#ifndef TUD_INFERENCE_EXHAUSTIVE_H_
#define TUD_INFERENCE_EXHAUSTIVE_H_

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "util/budget.h"

namespace tud {

/// Exact probability that gate `root` is true, by enumerating all 2^n
/// valuations of the events appearing under `root` (not all registry
/// events, so this scales with the *cone*). Requires at most 30 such
/// events (aborts otherwise). This is the naive baseline and the ground
/// truth for tests: a wrapper over the governed variant below with an
/// unlimited meter.
double ExhaustiveProbability(const BoolCircuit& circuit, GateId root,
                             const EventRegistry& registry);

/// Budget-governed variant: charges one cell per enumerated valuation
/// against `meter` and polls cancellation/deadline through it. A cone of
/// more than 30 events returns kResourceExhausted (recoverable) instead
/// of aborting. On kOk, `*value` holds the exact probability.
EngineStatus ExhaustiveProbabilityGoverned(const BoolCircuit& circuit,
                                           GateId root,
                                           const EventRegistry& registry,
                                           BudgetMeter& meter, double* value);

}  // namespace tud

#endif  // TUD_INFERENCE_EXHAUSTIVE_H_

#ifndef TUD_INFERENCE_SAMPLING_H_
#define TUD_INFERENCE_SAMPLING_H_

#include <cstdint>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "util/budget.h"
#include "util/rng.h"

namespace tud {

/// Monte-Carlo estimate of P(root = true): samples `num_samples` event
/// valuations and returns the fraction satisfying the circuit. This is
/// the approximation method the paper says practitioners must fall back
/// to on unrestricted instances ("makes it necessary in practice to
/// approximate query results via sampling", §1). The governed body below
/// under an unlimited budget.
double SampleProbability(const BoolCircuit& circuit, GateId root,
                         const EventRegistry& registry, uint32_t num_samples,
                         Rng& rng);

/// Budget-governed variant: charges circuit.NumGates() cells per sample
/// (one sample touches roughly every gate once) and polls cancellation/
/// deadline through `meter`. Stops early on a budget trip; the number of
/// completed samples is written to `*samples_done` and the estimate over
/// those samples to `*value`. Returns the tripping status (kOk if all
/// samples ran). Callers may treat a partial run with `*samples_done > 0`
/// as a degraded-but-usable estimate.
EngineStatus SampleProbabilityGoverned(const BoolCircuit& circuit, GateId root,
                                       const EventRegistry& registry,
                                       uint32_t num_samples, Rng& rng,
                                       BudgetMeter& meter, double* value,
                                       uint32_t* samples_done);

}  // namespace tud

#endif  // TUD_INFERENCE_SAMPLING_H_

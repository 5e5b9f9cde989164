#ifndef TUD_INFERENCE_HYBRID_H_
#define TUD_INFERENCE_HYBRID_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "inference/engine.h"
#include "util/rng.h"

namespace tud {

/// Partial tree decompositions (paper §2.2 end): "structure uncertain
/// instances as a high-treewidth core and low-treewidth tentacles, and
/// evaluate queries by combining [exact inference] on the tentacles and
/// sampling-based approximate methods on the core" (the ProbTree idea
/// [38]).
///
/// The circuit-level counterpart implemented here: pick a set of "core"
/// events whose removal makes the circuit low-treewidth; sample only the
/// core events from their priors, and for each sample run *exact* message
/// passing on the restricted (tentacle) circuit. The estimate is the
/// average of the exact conditional probabilities — a Rao-Blackwellised
/// estimator whose variance is never worse than plain Monte-Carlo with
/// the same number of samples.

/// Restricts the cone of `root` by substituting constants for the events
/// with a value in `fixed` (index = EventId). Returns the restricted
/// circuit and its root gate.
std::pair<BoolCircuit, GateId> RestrictCircuit(
    const BoolCircuit& circuit, GateId root,
    const std::vector<std::optional<bool>>& fixed);

/// Samples `core_events` `num_samples` times; for each sample, restricts
/// the circuit and computes the exact conditional probability by message
/// passing. Returns the averaged estimate in the shared EngineResult
/// shape: `value` is the estimate, `stats.width` the widest restricted
/// decomposition over samples, `stats.num_samples` the sample count.
/// The governed body below under an unlimited budget; a restricted
/// circuit too wide for exact message passing is a kResourceExhausted
/// status rather than an abort.
EngineResult HybridProbability(const BoolCircuit& circuit, GateId root,
                               const EventRegistry& registry,
                               const std::vector<EventId>& core_events,
                               uint32_t num_samples, Rng& rng);

/// Budget-governed variant. Each sample's restricted plan is charged
/// (its full table-cell cost) against `meter` before its tables are
/// computed, and cancellation/deadline are polled between samples. On a
/// mid-run trip the estimate over the samples completed so far is kept
/// in `*result` (with an honest error bound over that count) and the
/// tripping status is returned; callers may treat a partial run with
/// result->stats.num_samples > 0 as degraded-but-usable. A restricted
/// circuit too wide for exact message passing returns
/// kResourceExhausted.
EngineStatus HybridProbabilityGoverned(const BoolCircuit& circuit, GateId root,
                                       const EventRegistry& registry,
                                       const std::vector<EventId>& core_events,
                                       uint32_t num_samples, Rng& rng,
                                       BudgetMeter& meter,
                                       EngineResult* result);

/// Heuristic core selection: greedily removes the events whose variable
/// vertices have the highest fill-in contribution until the min-fill
/// width estimate of the restricted primal graph drops to
/// `target_width`, or `max_core` events were chosen.
std::vector<EventId> SelectCoreEvents(const BoolCircuit& circuit, GateId root,
                                      int target_width, size_t max_core);

}  // namespace tud

#endif  // TUD_INFERENCE_HYBRID_H_

#ifndef TUD_INFERENCE_HYBRID_H_
#define TUD_INFERENCE_HYBRID_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "circuits/bool_circuit.h"

namespace tud {

/// Partial tree decompositions (paper §2.2 end): "structure uncertain
/// instances as a high-treewidth core and low-treewidth tentacles, and
/// evaluate queries by combining [exact inference] on the tentacles and
/// sampling-based approximate methods on the core" (the ProbTree idea
/// [38]).
///
/// The circuit-level counterpart (HybridEngine in engine.h): pick a set
/// of "core" events whose removal makes the circuit low-treewidth; sample
/// only the core events from their priors, and for each sample run
/// *exact* message passing on the restricted (tentacle) circuit. The
/// estimate is the average of the exact conditional probabilities — a
/// Rao-Blackwellised estimator whose variance is never worse than plain
/// Monte-Carlo with the same number of samples. This header holds the
/// two circuit operations the engine is built from.

/// Restricts the cone of `root` by substituting constants for the events
/// with a value in `fixed` (index = EventId). Returns the restricted
/// circuit and its root gate.
std::pair<BoolCircuit, GateId> RestrictCircuit(
    const BoolCircuit& circuit, GateId root,
    const std::vector<std::optional<bool>>& fixed);

/// Heuristic core selection: greedily removes the events whose variable
/// vertices have the highest fill-in contribution until the min-fill
/// width estimate of the restricted primal graph drops to
/// `target_width`, or `max_core` events were chosen.
std::vector<EventId> SelectCoreEvents(const BoolCircuit& circuit, GateId root,
                                      int target_width, size_t max_core);

}  // namespace tud

#endif  // TUD_INFERENCE_HYBRID_H_

#ifndef TUD_TREEDEC_ELIMINATION_H_
#define TUD_TREEDEC_ELIMINATION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "treedec/graph.h"

namespace tud {

/// Heuristics producing vertex elimination orders, each with the tree
/// decomposition it derives (TreeDecomposition::FromElimination). All
/// are the standard upper-bound heuristics; min-fill usually yields
/// smaller width, min-degree is faster. X10 (treedec ablation) compares
/// them against exact treewidth on small graphs.
///
/// Each heuristic records the bags of its order from the one
/// elimination pass that chose it: the ring of v is the set of
/// not-yet-eliminated neighbors of v in the progressively filled graph
/// when v is eliminated, and the bag of v in the derived decomposition
/// is v plus its ring. The width and table cost follow from the ring
/// sizes.
///
/// All three eliminate on one graph representation at every size: an
/// adjacency list per vertex, so memory grows with the filled graph's
/// edges, not with n^2. Min-fill keeps every vertex's fill count exact
/// as it eliminates, updating only the ring and the common neighbors of
/// each new fill edge, instead of recounting. The orders are
/// deterministic: they depend on the graph, not on the order of its
/// neighbor lists. Ties break by ascending vertex id: min-fill takes the
/// smallest (fill, degree, id), and min-degree and the peel push each
/// eliminated vertex's neighbors in ascending id order onto LIFO queues.

/// Per-bag table sizes are capped at 2^kEliminationCostCapBits so
/// pathological orders cannot overflow the double's dynamic range; any
/// such order is far past exact-inference feasibility anyway.
inline constexpr uint32_t kEliminationCostCapBits = 63;

/// An elimination order with the bags and numbers of the decomposition
/// it derives.
struct EliminationOrder {
  std::vector<VertexId> order;
  /// The ring of order[i], ascending, is rings[ring_begin[i] ..
  /// ring_begin[i + 1]); ring_begin has order.size() + 1 entries.
  std::vector<uint32_t> ring_begin = {0};
  std::vector<VertexId> rings;
  /// Maximum elimination degree: the width of the derived decomposition.
  uint32_t width = 0;
  /// Σ_v 2^min(deg(v)+1, kEliminationCostCapBits), summed in elimination
  /// order: the total table-entry count of the derived decomposition's
  /// per-vertex bags, i.e. the work of one message pass over it. This is
  /// the unit of the batch planner's shared-vs-per-root cost model.
  double table_cost = 0;
};

/// The ring of the i-th eliminated vertex.
inline std::span<const VertexId> Ring(const EliminationOrder& elimination,
                                      size_t i) {
  return {elimination.rings.data() + elimination.ring_begin[i],
          elimination.rings.data() + elimination.ring_begin[i + 1]};
}

/// Eliminates the vertices of `graph` in the given order and records
/// its rings, width and table cost. `order` must be a permutation of the
/// vertices (checked).
EliminationOrder EliminateInOrder(const Graph& graph,
                                  const std::vector<VertexId>& order);

/// Min-fill: repeatedly eliminates the vertex whose elimination adds the
/// fewest fill edges (ties broken by smaller degree, then smaller id).
/// Fill counts from 256 up compare equal, so past that degree decides.
EliminationOrder MinFillOrder(const Graph& graph);

/// Min-fill preceded by a linear-time peel of all vertices of (current)
/// degree <= 2 — the islet/twig/series reduction rules. Degree-<=1
/// vertices are peeled with priority, so forests stay width 1; the
/// series rule is width-preserving on everything else (treewidth >= 2).
EliminationOrder PeeledMinFillOrder(const Graph& graph);

/// Min-degree with a bucket queue: every queue operation is O(1), so the
/// order costs little more than the eliminations themselves. The fast
/// path of the junction-tree inference pipeline for circuit primal
/// graphs (it falls back to min-fill when the cheap order comes out
/// wide).
EliminationOrder MinDegreeOrder(const Graph& graph);

/// Exact treewidth by branch-and-bound over elimination orders with
/// memoisation on eliminated subsets. Exponential: only for graphs with
/// at most `max_vertices` (default 16) vertices; returns nullopt above.
std::optional<uint32_t> ExactTreewidth(const Graph& graph,
                                       uint32_t max_vertices = 16);

}  // namespace tud

#endif  // TUD_TREEDEC_ELIMINATION_H_

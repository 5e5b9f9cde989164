#ifndef TUD_TREEDEC_TREE_DECOMPOSITION_H_
#define TUD_TREEDEC_TREE_DECOMPOSITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "treedec/elimination.h"
#include "treedec/graph.h"

namespace tud {

/// Index of a bag (node) within a TreeDecomposition.
using BagId = uint32_t;

inline constexpr BagId kInvalidBag = UINT32_MAX;

/// A rooted tree decomposition of a graph: a tree of bags (vertex sets)
/// such that every vertex appears in some bag, every edge is covered by
/// some bag, and the bags containing any fixed vertex form a connected
/// subtree (Robertson-Seymour [42]). Width = max bag size - 1.
class TreeDecomposition {
 public:
  /// The one converter from orders to decompositions: bag of v =
  /// {v} ∪ ring(v), as the elimination recorded it, attached to the bag
  /// of v's earliest-eliminated ring member. One bag per vertex plus an
  /// empty root bag, so the result is a tree even for disconnected
  /// graphs. `bag_of_vertex`, if non-null, receives the bag of each
  /// vertex: for any clique S of the graph, the bag of the
  /// earliest-eliminated vertex of S contains all of S — which is how
  /// factors are assigned to bags in junction-tree inference.
  static TreeDecomposition FromElimination(
      const EliminationOrder& elimination,
      std::vector<BagId>* bag_of_vertex = nullptr);

  /// FromElimination of `order` replayed on `graph` (EliminateInOrder:
  /// `order` must be a permutation of the vertices).
  static TreeDecomposition FromEliminationOrder(
      const Graph& graph, const std::vector<VertexId>& order,
      std::vector<BagId>* bag_of_vertex = nullptr);

  /// The trivial decomposition: a single bag containing every vertex.
  static TreeDecomposition Trivial(const Graph& graph);

  size_t NumBags() const { return parents_.size(); }
  BagId root() const { return root_; }
  BagId parent(BagId b) const { return parents_[b]; }
  /// Children of the bag, ascending.
  std::span<const BagId> children(BagId b) const {
    return {child_pool_.data() + child_begin_[b],
            child_pool_.data() + child_begin_[b + 1]};
  }

  /// Sorted vertex set of the bag.
  std::span<const VertexId> bag(BagId b) const {
    return {members_.data() + bag_begin_[b],
            members_.data() + bag_begin_[b + 1]};
  }

  /// Max bag size - 1 (the width of the decomposition); -1 if no bags.
  int Width() const;

  /// Verifies the three tree-decomposition conditions against `graph`.
  bool IsValidFor(const Graph& graph) const;

  /// Returns some bag containing all of `vertices`, or kInvalidBag.
  BagId FindBagContaining(const std::vector<VertexId>& vertices) const;

  /// Low-level construction for tests and adapters: adds a bag with the
  /// given sorted-deduplicated contents under `parent` (kInvalidBag for
  /// the root; exactly one root allowed). Bags are created parents
  /// first, so every parent has a smaller id than its children. Costs
  /// O(NumBags()), which keeps the children lists flat.
  BagId AddBag(const std::vector<VertexId>& vertices, BagId parent);

  TreeDecomposition() = default;

 private:
  // Bag b holds members_[bag_begin_[b] .. bag_begin_[b + 1]); its
  // children are child_pool_[child_begin_[b] .. child_begin_[b + 1]).
  std::vector<VertexId> members_;
  std::vector<uint32_t> bag_begin_ = {0};
  std::vector<BagId> parents_;
  std::vector<BagId> child_pool_;
  std::vector<uint32_t> child_begin_ = {0};
  BagId root_ = kInvalidBag;
};

}  // namespace tud

#endif  // TUD_TREEDEC_TREE_DECOMPOSITION_H_

#include "treedec/tree_decomposition.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace tud {

namespace {
constexpr VertexId kNoVertex = UINT32_MAX;
}  // namespace

BagId TreeDecomposition::AddBag(const std::vector<VertexId>& vertices,
                                BagId parent) {
  TUD_CHECK(std::is_sorted(vertices.begin(), vertices.end()));
  TUD_CHECK(std::adjacent_find(vertices.begin(), vertices.end()) ==
            vertices.end());
  const BagId id = static_cast<BagId>(NumBags());
  members_.insert(members_.end(), vertices.begin(), vertices.end());
  bag_begin_.push_back(static_cast<uint32_t>(members_.size()));
  parents_.push_back(parent);
  child_begin_.push_back(child_begin_.back());
  if (parent == kInvalidBag) {
    TUD_CHECK_EQ(root_, kInvalidBag) << "tree decomposition has two roots";
    root_ = id;
  } else {
    TUD_CHECK_LT(parent, id);
    // The newest bag is the parent's last child.
    child_pool_.insert(child_pool_.begin() + child_begin_[parent + 1], id);
    for (BagId b = parent + 1; b <= id + 1; ++b) ++child_begin_[b];
  }
  return id;
}

TreeDecomposition TreeDecomposition::FromEliminationOrder(
    const Graph& graph, const std::vector<VertexId>& order,
    std::vector<BagId>* bag_of_vertex) {
  return FromElimination(EliminateInOrder(graph, order), bag_of_vertex);
}

TreeDecomposition TreeDecomposition::FromElimination(
    const EliminationOrder& elimination, std::vector<BagId>* bag_of_vertex) {
  const std::vector<VertexId>& order = elimination.order;
  const uint32_t n = static_cast<uint32_t>(order.size());
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[order[i]] = i;

  // Bag 0 is an empty root. The bag of the i-th eliminated vertex v is
  // bag n - i, so later-eliminated vertices are closer to the root: v
  // plus its ring, under the bag of its earliest-eliminated ring member
  // (or the root if the ring is empty).
  TreeDecomposition td;
  td.root_ = 0;
  td.parents_.assign(size_t{n} + 1, kInvalidBag);
  td.bag_begin_.assign(size_t{n} + 2, 0);
  td.members_.reserve(n + elimination.rings.size());
  std::vector<BagId> bag_of(n, kInvalidBag);
  for (uint32_t i = n; i-- > 0;) {
    const BagId b = n - i;
    const VertexId v = order[i];
    const std::span<const VertexId> ring = Ring(elimination, i);
    VertexId attach = kNoVertex;
    uint32_t best_pos = UINT32_MAX;
    for (VertexId u : ring) {
      TUD_CHECK_GT(position[u], i);
      if (position[u] < best_pos) {
        best_pos = position[u];
        attach = u;
      }
    }
    const auto split = std::lower_bound(ring.begin(), ring.end(), v);
    td.members_.insert(td.members_.end(), ring.begin(), split);
    td.members_.push_back(v);
    td.members_.insert(td.members_.end(), split, ring.end());
    td.bag_begin_[b + 1] = static_cast<uint32_t>(td.members_.size());
    td.parents_[b] = attach == kNoVertex ? td.root_ : bag_of[attach];
    bag_of[v] = b;
  }

  // Children, ascending: a counting sort of the bags by parent.
  td.child_begin_.assign(size_t{n} + 2, 0);
  for (BagId b = 1; b <= n; ++b) ++td.child_begin_[td.parents_[b] + 2];
  for (BagId b = 2; b <= n + 1; ++b) {
    td.child_begin_[b] += td.child_begin_[b - 1];
  }
  td.child_pool_.resize(n);
  for (BagId b = 1; b <= n; ++b) {
    td.child_pool_[td.child_begin_[td.parents_[b] + 1]++] = b;
  }
  if (bag_of_vertex != nullptr) *bag_of_vertex = std::move(bag_of);
  return td;
}

TreeDecomposition TreeDecomposition::Trivial(const Graph& graph) {
  TreeDecomposition td;
  std::vector<VertexId> all(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) all[v] = v;
  td.AddBag(std::move(all), kInvalidBag);
  return td;
}

int TreeDecomposition::Width() const {
  int width = -1;
  for (BagId b = 0; b < NumBags(); ++b) {
    width = std::max(width, static_cast<int>(bag(b).size()) - 1);
  }
  return width;
}

bool TreeDecomposition::IsValidFor(const Graph& graph) const {
  if (NumBags() == 0 || root_ == kInvalidBag) return false;
  const uint32_t n = graph.NumVertices();

  // Condition 1: every vertex occurs in some bag.
  std::vector<bool> seen(n, false);
  for (BagId b = 0; b < NumBags(); ++b) {
    for (VertexId v : bag(b)) {
      if (v >= n) return false;
      seen[v] = true;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!seen[v]) return false;
  }

  // Condition 2: every edge is covered by some bag.
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : graph.Neighbors(v)) {
      if (u < v) continue;
      bool covered = false;
      for (BagId b = 0; b < NumBags(); ++b) {
        if (std::binary_search(bag(b).begin(), bag(b).end(), v) &&
            std::binary_search(bag(b).begin(), bag(b).end(), u)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
  }

  // Condition 3: bags containing any vertex form a connected subtree.
  // Walking bags top-down, a vertex's occurrence set is connected iff
  // whenever a bag contains v but its parent does not, it is the unique
  // "topmost" occurrence of v.
  std::vector<int> top_count(n, 0);
  for (BagId b = 0; b < NumBags(); ++b) {
    for (VertexId v : bag(b)) {
      bool parent_has = parents_[b] != kInvalidBag &&
                        std::binary_search(bag(parents_[b]).begin(),
                                           bag(parents_[b]).end(), v);
      if (!parent_has) {
        if (++top_count[v] > 1) return false;
      }
    }
  }
  return true;
}

BagId TreeDecomposition::FindBagContaining(
    const std::vector<VertexId>& vertices) const {
  for (BagId b = 0; b < NumBags(); ++b) {
    bool all = true;
    for (VertexId v : vertices) {
      if (!std::binary_search(bag(b).begin(), bag(b).end(), v)) {
        all = false;
        break;
      }
    }
    if (all) return b;
  }
  return kInvalidBag;
}

}  // namespace tud

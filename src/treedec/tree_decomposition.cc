#include "treedec/tree_decomposition.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace tud {

namespace {
constexpr VertexId kNoVertex = UINT32_MAX;
}  // namespace

BagId TreeDecomposition::AddBag(std::vector<VertexId> vertices, BagId parent) {
  TUD_CHECK(std::is_sorted(vertices.begin(), vertices.end()));
  TUD_CHECK(std::adjacent_find(vertices.begin(), vertices.end()) ==
            vertices.end());
  BagId id = static_cast<BagId>(bags_.size());
  bags_.push_back(std::move(vertices));
  parents_.push_back(parent);
  children_.emplace_back();
  if (parent == kInvalidBag) {
    TUD_CHECK_EQ(root_, kInvalidBag) << "tree decomposition has two roots";
    root_ = id;
  } else {
    TUD_CHECK_LT(parent, id);
    children_[parent].push_back(id);
  }
  return id;
}

TreeDecomposition TreeDecomposition::FromEliminationOrder(
    const Graph& graph, const std::vector<VertexId>& order) {
  return FromEliminationOrder(graph, order, nullptr);
}

TreeDecomposition TreeDecomposition::FromEliminationOrder(
    const Graph& graph, const std::vector<VertexId>& order,
    std::vector<BagId>* bag_of_vertex) {
  const uint32_t n = graph.NumVertices();
  TUD_CHECK_EQ(order.size(), n);

  // Compute each vertex's bag — itself plus its later-eliminated
  // neighbors in the fill graph — by symbolic factorisation (the sparse
  // Cholesky structure recurrence): the higher fill-neighborhood of v is
  // its higher original neighborhood united with bag(c) \ {c} for every
  // elimination-tree child c of v. Near-linear in the total bag size,
  // instead of simulating elimination with mutable adjacency sets.
  std::vector<uint32_t> position(n, UINT32_MAX);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    TUD_CHECK_LT(v, n) << "elimination order names vertex " << v;
    TUD_CHECK_EQ(position[v], UINT32_MAX)
        << "vertex " << v << " appears twice in the elimination order";
    position[v] = i;
  }

  std::vector<std::vector<VertexId>> bag_contents(n);
  std::vector<std::vector<VertexId>> etree_children(n);
  std::vector<bool> in_bag(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    std::vector<VertexId> bag = {v};
    in_bag[v] = true;
    auto add = [&](VertexId u) {
      if (!in_bag[u]) {
        in_bag[u] = true;
        bag.push_back(u);
      }
    };
    for (VertexId u : graph.Neighbors(v)) {
      if (position[u] > i) add(u);
    }
    for (VertexId c : etree_children[v]) {
      for (VertexId u : bag_contents[c]) {
        if (u != c) add(u);
      }
    }
    for (VertexId u : bag) in_bag[u] = false;
    std::sort(bag.begin(), bag.end());
    // Elimination-tree parent: earliest-eliminated later neighbor.
    VertexId parent = kNoVertex;
    uint32_t best_pos = UINT32_MAX;
    for (VertexId u : bag) {
      if (u != v && position[u] < best_pos) {
        best_pos = position[u];
        parent = u;
      }
    }
    if (parent != kNoVertex) etree_children[parent].push_back(v);
    bag_contents[v] = std::move(bag);
  }

  // Attach the bag of v under the bag of its earliest-eliminated later
  // neighbor; vertices with no later neighbor hang off an empty root.
  // Bags must be created parents-first, i.e., in reverse elimination
  // order (later-eliminated vertices are closer to the root).
  TreeDecomposition td;
  BagId root = td.AddBag({}, kInvalidBag);
  std::vector<BagId> bag_of(n, kInvalidBag);
  for (uint32_t i = n; i-- > 0;) {
    VertexId v = order[i];
    VertexId attach = kInvalidBag;
    uint32_t best_pos = UINT32_MAX;
    for (VertexId u : bag_contents[v]) {
      if (u == v) continue;
      TUD_CHECK_GT(position[u], position[v]);
      if (position[u] < best_pos) {
        best_pos = position[u];
        attach = u;
      }
    }
    BagId parent = attach == kInvalidBag ? root : bag_of[attach];
    TUD_CHECK_NE(parent, kInvalidBag);
    bag_of[v] = td.AddBag(std::move(bag_contents[v]), parent);
  }
  if (bag_of_vertex != nullptr) *bag_of_vertex = bag_of;
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
  for (const auto& bag : bags_) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

bool TreeDecomposition::IsValidFor(const Graph& graph) const {
  if (bags_.empty() || root_ == kInvalidBag) return false;
  const uint32_t n = graph.NumVertices();

  // Condition 1: every vertex occurs in some bag.
  std::vector<bool> seen(n, false);
  for (const auto& bag : bags_) {
    for (VertexId v : bag) {
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
      for (const auto& bag : bags_) {
        if (std::binary_search(bag.begin(), bag.end(), v) &&
            std::binary_search(bag.begin(), bag.end(), u)) {
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
  for (BagId b = 0; b < bags_.size(); ++b) {
    for (VertexId v : bags_[b]) {
      bool parent_has =
          parents_[b] != kInvalidBag &&
          std::binary_search(bags_[parents_[b]].begin(),
                             bags_[parents_[b]].end(), v);
      if (!parent_has) {
        if (++top_count[v] > 1) return false;
      }
    }
  }
  return true;
}

BagId TreeDecomposition::FindBagContaining(
    const std::vector<VertexId>& vertices) const {
  for (BagId b = 0; b < bags_.size(); ++b) {
    bool all = true;
    for (VertexId v : vertices) {
      if (!std::binary_search(bags_[b].begin(), bags_[b].end(), v)) {
        all = false;
        break;
      }
    }
    if (all) return b;
  }
  return kInvalidBag;
}

std::vector<BagId> TreeDecomposition::TopDownOrder() const {
  // Bags are created parents-first, so identity order works; keep the
  // explicit contract by checking.
  std::vector<BagId> order(bags_.size());
  for (BagId b = 0; b < bags_.size(); ++b) {
    TUD_CHECK(parents_[b] == kInvalidBag || parents_[b] < b);
    order[b] = b;
  }
  return order;
}

std::string TreeDecomposition::ToString() const {
  std::string out;
  for (BagId b = 0; b < bags_.size(); ++b) {
    out += "bag " + std::to_string(b) + " (parent ";
    out += parents_[b] == kInvalidBag ? "-" : std::to_string(parents_[b]);
    out += "): {";
    for (size_t i = 0; i < bags_[b].size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(bags_[b][i]);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace tud

#include "treedec/nice_decomposition.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace tud {

NiceNodeId NiceTreeDecomposition::AddNode(NiceNodeKind kind, VertexId vertex,
                                          std::vector<VertexId> bag,
                                          std::vector<NiceNodeId> children) {
  TUD_CHECK(std::is_sorted(bag.begin(), bag.end()));
  for (NiceNodeId c : children) TUD_CHECK_LT(c, NumNodes());
  NiceNodeId id = static_cast<NiceNodeId>(kinds_.size());
  kinds_.push_back(kind);
  vertices_.push_back(vertex);
  bags_.push_back(std::move(bag));
  children_.push_back(std::move(children));
  return id;
}

NiceTreeDecomposition NiceTreeDecomposition::FromParts(
    std::vector<NiceNodeKind> kinds, std::vector<VertexId> vertices,
    std::vector<std::vector<VertexId>> bags,
    std::vector<std::vector<NiceNodeId>> children) {
  TUD_CHECK_EQ(kinds.size(), vertices.size());
  TUD_CHECK_EQ(kinds.size(), bags.size());
  TUD_CHECK_EQ(kinds.size(), children.size());
  NiceTreeDecomposition ntd;
  ntd.kinds_ = std::move(kinds);
  ntd.vertices_ = std::move(vertices);
  ntd.bags_ = std::move(bags);
  ntd.children_ = std::move(children);
  return ntd;
}

NiceNodeId NiceTreeDecomposition::MorphTo(NiceNodeId from,
                                          std::vector<VertexId> from_bag,
                                          const std::vector<VertexId>& to_bag) {
  // Forget the vertices not in to_bag, then introduce the missing ones.
  NiceNodeId current = from;
  std::vector<VertexId> bag = std::move(from_bag);
  for (VertexId v : std::vector<VertexId>(bag.begin(), bag.end())) {
    if (std::binary_search(to_bag.begin(), to_bag.end(), v)) continue;
    bag.erase(std::find(bag.begin(), bag.end(), v));
    current = AddNode(NiceNodeKind::kForget, v, bag, {current});
  }
  for (VertexId v : to_bag) {
    if (std::binary_search(bag.begin(), bag.end(), v)) continue;
    bag.insert(std::upper_bound(bag.begin(), bag.end(), v), v);
    current = AddNode(NiceNodeKind::kIntroduce, v, bag, {current});
  }
  TUD_CHECK(bag == to_bag);
  return current;
}

NiceTreeDecomposition NiceTreeDecomposition::FromTreeDecomposition(
    const TreeDecomposition& td, std::vector<NiceNodeId>* top_of_bag) {
  TUD_CHECK_GT(td.NumBags(), 0u);
  NiceTreeDecomposition nice;

  // Post-order construction: Build(b) returns a nice node whose bag is
  // exactly td.bag(b). Iterative to avoid stack depth issues on long
  // paths. Process bags in reverse creation order (children have larger
  // ids than parents in TreeDecomposition, so reverse id order is
  // children-first).
  std::vector<NiceNodeId> built(td.NumBags(), kInvalidNiceNode);
  for (BagId b = static_cast<BagId>(td.NumBags()); b-- > 0;) {
    const std::vector<VertexId> target(td.bag(b).begin(), td.bag(b).end());
    const std::span<const BagId> kids = td.children(b);
    if (kids.empty()) {
      // Chain of introduces from an empty leaf.
      NiceNodeId leaf = nice.AddNode(NiceNodeKind::kLeaf, UINT32_MAX, {}, {});
      built[b] = nice.MorphTo(leaf, {}, target);
      continue;
    }
    // Morph each child's top node to bag `target`, then join pairwise.
    std::vector<NiceNodeId> tops;
    tops.reserve(kids.size());
    for (BagId c : kids) {
      TUD_CHECK_NE(built[c], kInvalidNiceNode);
      tops.push_back(nice.MorphTo(
          built[c], {td.bag(c).begin(), td.bag(c).end()}, target));
    }
    while (tops.size() > 1) {
      std::vector<NiceNodeId> next;
      for (size_t i = 0; i + 1 < tops.size(); i += 2) {
        next.push_back(nice.AddNode(NiceNodeKind::kJoin, UINT32_MAX, target,
                                    {tops[i], tops[i + 1]}));
      }
      if (tops.size() % 2 == 1) next.push_back(tops.back());
      tops = std::move(next);
    }
    built[b] = tops[0];
  }

  // Ensure the overall root has an empty bag.
  NiceNodeId top = built[td.root()];
  nice.MorphTo(top, {td.bag(td.root()).begin(), td.bag(td.root()).end()},
               {});
  TUD_CHECK(nice.bags_[nice.root()].empty());
  if (top_of_bag != nullptr) *top_of_bag = built;
  return nice;
}

VertexId NiceTreeDecomposition::vertex(NiceNodeId n) const {
  TUD_CHECK(kinds_[n] == NiceNodeKind::kIntroduce ||
            kinds_[n] == NiceNodeKind::kForget);
  return vertices_[n];
}

int NiceTreeDecomposition::Width() const {
  int width = -1;
  for (const auto& bag : bags_) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

NiceNodeId NiceTreeDecomposition::FindNodeCovering(
    const std::vector<VertexId>& vertices) const {
  for (NiceNodeId n = 0; n < NumNodes(); ++n) {
    bool all = true;
    for (VertexId v : vertices) {
      if (!std::binary_search(bags_[n].begin(), bags_[n].end(), v)) {
        all = false;
        break;
      }
    }
    if (all) return n;
  }
  return kInvalidNiceNode;
}

bool NiceTreeDecomposition::IsWellFormed() const {
  if (kinds_.empty()) return false;
  if (!bags_[root()].empty()) return false;
  for (NiceNodeId n = 0; n < NumNodes(); ++n) {
    const auto& kids = children_[n];
    switch (kinds_[n]) {
      case NiceNodeKind::kLeaf:
        if (!kids.empty() || !bags_[n].empty()) return false;
        break;
      case NiceNodeKind::kIntroduce: {
        if (kids.size() != 1) return false;
        std::vector<VertexId> expected = bags_[kids[0]];
        expected.insert(
            std::upper_bound(expected.begin(), expected.end(), vertices_[n]),
            vertices_[n]);
        if (expected != bags_[n]) return false;
        if (std::binary_search(bags_[kids[0]].begin(), bags_[kids[0]].end(),
                               vertices_[n])) {
          return false;
        }
        break;
      }
      case NiceNodeKind::kForget: {
        if (kids.size() != 1) return false;
        std::vector<VertexId> expected = bags_[n];
        expected.insert(
            std::upper_bound(expected.begin(), expected.end(), vertices_[n]),
            vertices_[n]);
        if (expected != bags_[kids[0]]) return false;
        break;
      }
      case NiceNodeKind::kJoin:
        if (kids.size() != 2) return false;
        if (bags_[kids[0]] != bags_[n] || bags_[kids[1]] != bags_[n]) {
          return false;
        }
        break;
    }
  }
  return true;
}

std::string NiceTreeDecomposition::ToString() const {
  std::string out;
  for (NiceNodeId n = 0; n < NumNodes(); ++n) {
    out += "node " + std::to_string(n) + ": ";
    switch (kinds_[n]) {
      case NiceNodeKind::kLeaf:
        out += "leaf";
        break;
      case NiceNodeKind::kIntroduce:
        out += "introduce " + std::to_string(vertices_[n]);
        break;
      case NiceNodeKind::kForget:
        out += "forget " + std::to_string(vertices_[n]);
        break;
      case NiceNodeKind::kJoin:
        out += "join";
        break;
    }
    out += " bag={";
    for (size_t i = 0; i < bags_[n].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(bags_[n][i]);
    }
    out += "} children=[";
    for (size_t i = 0; i < children_[n].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(children_[n][i]);
    }
    out += "]\n";
  }
  return out;
}

}  // namespace tud

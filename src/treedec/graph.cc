#include "treedec/graph.h"

#include <algorithm>

#include "util/check.h"

namespace tud {

Graph Graph::FromEdges(uint32_t num_vertices,
                       std::span<const std::pair<VertexId, VertexId>> edges) {
  // Two counting sorts. The first buckets every arc a -> b by its head
  // b; walking those buckets in ascending b and appending b to row a then
  // fills every row in ascending order, so duplicates are adjacent.
  const size_t n = num_vertices;
  TUD_CHECK_LE(edges.size(), size_t{UINT32_MAX / 2})
      << "graph too large for 32-bit row offsets";
  std::vector<uint32_t> by_head(n + 2, 0);
  for (const auto& [a, b] : edges) {
    TUD_CHECK_LT(a, num_vertices);
    TUD_CHECK_LT(b, num_vertices);
    if (a == b) continue;
    ++by_head[a + 2];
    ++by_head[b + 2];
  }
  for (size_t v = 2; v < n + 2; ++v) by_head[v] += by_head[v - 1];
  std::vector<VertexId> tails(by_head[n + 1]);
  for (const auto& [a, b] : edges) {
    if (a == b) continue;
    tails[by_head[b + 1]++] = a;
    tails[by_head[a + 1]++] = b;
  }

  // Row a, duplicates included, has as many entries as bucket a.
  Graph g(num_vertices);
  g.adjacency_.resize(tails.size());
  std::vector<uint32_t> next(by_head.begin(), by_head.begin() + n);
  for (VertexId b = 0; b < num_vertices; ++b) {
    for (uint32_t i = by_head[b]; i < by_head[b + 1]; ++i) {
      const VertexId a = tails[i];
      if (next[a] == by_head[a] || g.adjacency_[next[a] - 1] != b) {
        g.adjacency_[next[a]++] = b;
      }
    }
  }
  // Compact the rows over the dropped duplicates.
  uint32_t kept = 0;
  for (size_t v = 0; v < n; ++v) {
    g.offsets_[v] = kept;
    for (uint32_t i = by_head[v]; i < next[v]; ++i) {
      g.adjacency_[kept++] = g.adjacency_[i];
    }
  }
  g.offsets_[n] = kept;
  g.adjacency_.resize(kept);
  return g;
}

bool Graph::HasEdge(VertexId a, VertexId b) const {
  TUD_CHECK_LT(b, NumVertices());
  const std::span<const VertexId> row = Neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::span<const VertexId> Graph::Neighbors(VertexId v) const {
  TUD_CHECK_LT(v, NumVertices());
  return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
}

}  // namespace tud

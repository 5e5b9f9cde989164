#ifndef TUD_TREEDEC_GRAPH_H_
#define TUD_TREEDEC_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace tud {

/// Vertex of an undirected graph (dense ids).
using VertexId = uint32_t;

/// An immutable simple undirected graph in compressed sparse rows: the
/// neighbors of every vertex, ascending and without duplicates, in one
/// array. Used for Gaifman graphs of instances, primal graphs of
/// circuits, and their joins. Nothing is computed lazily, so a const
/// Graph may be read from several threads.
class Graph {
 public:
  /// The edgeless graph on `num_vertices` vertices.
  explicit Graph(uint32_t num_vertices = 0)
      : offsets_(size_t{num_vertices} + 1, 0) {}

  /// Builds a graph from an edge list over vertices < `num_vertices`.
  /// Self-loops and duplicate edges (in either orientation) are dropped.
  static Graph FromEdges(
      uint32_t num_vertices,
      std::span<const std::pair<VertexId, VertexId>> edges);

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }

  size_t NumEdges() const { return adjacency_.size() / 2; }

  bool HasEdge(VertexId a, VertexId b) const;

  /// Neighbors of v, ascending.
  std::span<const VertexId> Neighbors(VertexId v) const;

  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(Neighbors(v).size());
  }

 private:
  std::vector<uint32_t> offsets_;    ///< Row v is [offsets_[v], offsets_[v+1]).
  std::vector<VertexId> adjacency_;  ///< Both directions of every edge.
};

}  // namespace tud

#endif  // TUD_TREEDEC_GRAPH_H_

#include "treedec/elimination.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <tuple>

#include "treedec/elimination_graph.h"
#include "util/check.h"

namespace tud {

namespace {

// Appends v to the order, folding its elimination degree (its bag is v
// plus its current filled neighborhood) into the width and table cost.
void Record(EliminationOrder& out, VertexId v, uint32_t degree) {
  out.order.push_back(v);
  out.width = std::max(out.width, degree);
  const uint32_t bits = std::min(degree + 1, kEliminationCostCapBits);
  out.table_cost += static_cast<double>(uint64_t{1} << bits);
}

template <typename WorkGraph>
EliminationOrder GreedyOrder(const Graph& graph, bool peel) {
  // Lazy-heap min-fill: each heap entry snapshots a vertex's (fill,
  // degree, id, version); stale entries (version mismatch) are dropped
  // on pop. Eliminating v only changes the scores of vertices in its
  // (post-elimination) two-hop neighborhood, so the heap is repaired
  // locally — near-linear on the sparse graphs the library produces,
  // versus a full rescan per elimination.
  const uint32_t n = graph.NumVertices();
  WorkGraph work(graph);
  std::vector<uint64_t> version(n, 0);

  EliminationOrder out;
  out.order.reserve(n);

  if (peel) {
    // Peel phase: repeatedly eliminate vertices of degree <= 2. The
    // islet/twig rules (degree <= 1) are always width-safe; the series
    // rule (degree 2) is width-safe whenever treewidth >= 2, and
    // processing the degree-<=1 bucket first guarantees it is only ever
    // applied when no degree-<=1 vertex remains — so forests are peeled
    // entirely by the safe rules and keep width 1. On binarised circuit
    // graphs the peel removes the vast majority of vertices in linear
    // time, leaving the heap machinery a small core.
    std::vector<VertexId> low_stack, two_stack;
    for (VertexId v = 0; v < n; ++v) {
      if (work.Degree(v) <= 1) {
        low_stack.push_back(v);
      } else if (work.Degree(v) == 2) {
        two_stack.push_back(v);
      }
    }
    std::vector<VertexId> ring;
    while (!low_stack.empty() || !two_stack.empty()) {
      VertexId v;
      if (!low_stack.empty()) {
        v = low_stack.back();
        low_stack.pop_back();
        if (!work.alive(v) || work.Degree(v) > 1) continue;
      } else {
        v = two_stack.back();
        two_stack.pop_back();
        if (!work.alive(v) || work.Degree(v) != 2) continue;
      }
      Record(out, v, work.Degree(v));
      ring.clear();
      work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
      work.Eliminate(v);
      for (VertexId u : ring) {
        if (!work.alive(u)) continue;
        if (work.Degree(u) <= 1) {
          low_stack.push_back(u);
        } else if (work.Degree(u) == 2) {
          two_stack.push_back(u);
        }
      }
    }
  }

  using Entry = std::tuple<size_t, uint32_t, VertexId, uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  constexpr size_t kFillCap = 256;
  auto push = [&](VertexId v) {
    heap.emplace(work.FillCount(v, kFillCap), work.Degree(v), v, version[v]);
  };
  for (VertexId v = 0; v < n; ++v) {
    if (work.alive(v)) push(v);
  }
  constexpr uint16_t kRingMark = UINT16_MAX;
  std::vector<uint16_t> mark(n, 0);
  std::vector<VertexId> ring, affected, touched;
  while (out.order.size() < n) {
    TUD_CHECK(!heap.empty());
    auto [primary, secondary, v, entry_version] = heap.top();
    heap.pop();
    if (!work.alive(v) || entry_version != version[v]) continue;
    Record(out, v, work.Degree(v));
    // Vertices whose score actually changes: v's neighbors (adjacency
    // and degree change), plus outside vertices with at least TWO
    // neighbors in the ring: elimination only adds edges inside the
    // ring, and a new edge (a, b) changes the fill count of exactly the
    // common neighbors of a and b. One-ring-neighbor vertices keep their
    // scores, and their live heap entries with them.
    ring.clear();
    work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
    work.Eliminate(v);
    affected.clear();
    touched.clear();
    for (VertexId u : ring) {
      mark[u] = kRingMark;
      affected.push_back(u);
    }
    for (VertexId u : ring) {
      work.ForEachNeighbor(u, [&](VertexId w) {
        if (mark[w] == kRingMark || mark[w] == 2) return;
        if (mark[w] == 0) {
          touched.push_back(w);
          mark[w] = 1;
        } else {
          mark[w] = 2;
          affected.push_back(w);
        }
      });
    }
    for (VertexId w : touched) mark[w] = 0;
    for (VertexId u : affected) {
      mark[u] = 0;
      if (!work.alive(u)) continue;
      ++version[u];
      push(u);
    }
  }
  return out;
}

EliminationOrder GreedyOrderDispatch(const Graph& graph, bool peel) {
  if (graph.NumVertices() <= kDenseVertexLimit) {
    return GreedyOrder<DenseEliminationGraph>(graph, peel);
  }
  return GreedyOrder<SparseEliminationGraph>(graph, peel);
}

}  // namespace

EliminationOrder MinFillOrder(const Graph& graph) {
  return GreedyOrderDispatch(graph, /*peel=*/false);
}

EliminationOrder PeeledMinFillOrder(const Graph& graph) {
  return GreedyOrderDispatch(graph, /*peel=*/true);
}

EliminationOrder MinDegreeOrder(const Graph& graph) {
  // A bucket queue instead of a binary heap: degrees are small integers
  // and only change for the eliminated vertex's ring, so every queue
  // operation is O(1) (stale entries are dropped on pop by re-checking
  // the live degree). On binarised circuit primal graphs this produces
  // the same widths as min-fill at a fraction of the cost; the
  // junction-tree pipeline falls back to min-fill when the result is
  // wide.
  const uint32_t n = graph.NumVertices();
  EliminationOrder out;
  out.order.reserve(n);
  auto run = [&](auto work) {
    std::vector<std::vector<VertexId>> buckets;
    auto bucket_push = [&](VertexId v, uint32_t degree) {
      if (buckets.size() <= degree) buckets.resize(degree + 1);
      buckets[degree].push_back(v);
    };
    for (VertexId v = 0; v < n; ++v) bucket_push(v, work.Degree(v));
    uint32_t d = 0;
    std::vector<VertexId> ring;
    while (out.order.size() < n) {
      while (d < buckets.size() && buckets[d].empty()) ++d;
      TUD_CHECK_LT(d, buckets.size());
      const VertexId v = buckets[d].back();
      buckets[d].pop_back();
      if (!work.alive(v) || work.Degree(v) != d) continue;  // Stale entry.
      Record(out, v, d);
      ring.clear();
      work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
      work.Eliminate(v);
      for (VertexId u : ring) {
        const uint32_t du = work.Degree(u);
        bucket_push(u, du);
        if (du < d) d = du;
      }
    }
  };
  if (n <= kDenseVertexLimit) {
    run(DenseEliminationGraph(graph));
  } else {
    run(SparseEliminationGraph(graph));
  }
  return out;
}

namespace {

// Degree of v after eliminating the vertex set T (v not in T): the number
// of vertices u outside T∪{v} reachable from v by a path whose internal
// vertices all lie in T. This is the well-known characterisation of fill
// neighborhoods, independent of the order in which T was eliminated.
uint32_t ResidualDegree(const Graph& graph, VertexId v, uint64_t t_mask) {
  uint64_t visited = 1ULL << v;
  uint64_t reached_outside = 0;
  std::vector<VertexId> stack = {v};
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    for (VertexId u : graph.Neighbors(x)) {
      if ((visited >> u) & 1) continue;
      visited |= 1ULL << u;
      if ((t_mask >> u) & 1) {
        stack.push_back(u);  // Internal vertex: continue through it.
      } else {
        reached_outside |= 1ULL << u;
      }
    }
  }
  return static_cast<uint32_t>(std::popcount(reached_outside));
}

}  // namespace

std::optional<uint32_t> ExactTreewidth(const Graph& graph,
                                       uint32_t max_vertices) {
  const uint32_t n = graph.NumVertices();
  if (n > max_vertices || n > 24) return std::nullopt;
  if (n == 0) return 0;
  // DP over eliminated subsets (Bodlaender et al.): Q(S) is the minimum,
  // over orders eliminating exactly S first, of the maximum elimination
  // degree seen. Q(∅) = 0; Q(S) = min_{v∈S} max(Q(S\{v}), deg(v, S\{v})).
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  std::vector<uint32_t> q(static_cast<size_t>(full) + 1,
                          std::numeric_limits<uint32_t>::max());
  q[0] = 0;
  // Iterate masks in increasing value; every subset S\{v} < S numerically.
  for (uint64_t s = 1; s <= full; ++s) {
    uint32_t best = std::numeric_limits<uint32_t>::max();
    for (VertexId v = 0; v < n; ++v) {
      if (!((s >> v) & 1)) continue;
      uint64_t rest = s & ~(1ULL << v);
      uint32_t prefix = q[rest];
      if (prefix == std::numeric_limits<uint32_t>::max()) continue;
      uint32_t deg = ResidualDegree(graph, v, rest);
      best = std::min(best, std::max(prefix, deg));
    }
    q[s] = best;
  }
  return q[full];
}

}  // namespace tud

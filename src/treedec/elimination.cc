#include "treedec/elimination.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "util/check.h"

namespace tud {

namespace {

// The working copy of a Graph that the heuristics eliminate on: remove a
// vertex, clique its remaining neighborhood. One adjacency list per
// vertex, all in one pool (a list that outgrows its slot moves to the
// end with twice the room), with lazy removal: an eliminated vertex
// stays in its neighbors' lists until the next scan of each drops it.
// Adjacency and common-neighbor tests stamp one neighborhood at a time.
// After TrackFill(), every Eliminate keeps the fill count of every alive
// vertex (the number of non-adjacent pairs among its neighbors) exact.
class EliminationGraph {
 public:
  explicit EliminationGraph(const Graph& graph)
      : list_(graph.NumVertices()),
        degree_(graph.NumVertices()),
        alive_(graph.NumVertices(), 1),
        stamp_(graph.NumVertices(), 0) {
    // The lists start at 2m entries; the rest is room for lists that
    // outgrow their slots.
    pool_.reserve(4 * graph.NumEdges());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      const std::span<const VertexId> nbrs = graph.Neighbors(v);
      degree_[v] = static_cast<uint32_t>(nbrs.size());
      list_[v] = {static_cast<uint32_t>(pool_.size()), degree_[v],
                  degree_[v]};
      pool_.insert(pool_.end(), nbrs.begin(), nbrs.end());
    }
  }

  bool alive(VertexId v) const { return alive_[v]; }
  uint32_t Degree(VertexId v) const { return degree_[v]; }
  uint64_t Fill(VertexId v) const { return fill_[v]; }

  // Counts the fill of every alive vertex: C(deg, 2) minus the triangles
  // through it. Each triangle is found once, from its lowest corner, with
  // edges oriented toward the higher (degree, id), so no hub's whole
  // neighborhood is scanned per neighbor.
  void TrackFill() {
    const uint32_t n = static_cast<uint32_t>(alive_.size());
    auto below = [&](VertexId a, VertexId b) {
      return std::pair(degree_[a], a) < std::pair(degree_[b], b);
    };
    std::vector<uint32_t> start(n + 1);
    std::vector<VertexId> up;
    for (VertexId v = 0; v < n; ++v) {
      start[v] = static_cast<uint32_t>(up.size());
      if (!alive_[v]) continue;
      ForEachNeighbor(v, [&](VertexId u) {
        if (below(v, u)) up.push_back(u);
      });
    }
    start[n] = static_cast<uint32_t>(up.size());
    fill_.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      NextToken();
      for (uint32_t i = start[v]; i < start[v + 1]; ++i) stamp_[up[i]] = token_;
      for (uint32_t i = start[v]; i < start[v + 1]; ++i) {
        const VertexId u = up[i];
        for (uint32_t j = start[u]; j < start[u + 1]; ++j) {
          const VertexId w = up[j];
          if (stamp_[w] != token_) continue;
          ++fill_[v];
          ++fill_[u];
          ++fill_[w];
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      const uint64_t d = degree_[v];
      fill_[v] = d * (d - 1) / 2 - fill_[v];
    }
    common_.assign(n, 0);
    changed_at_.assign(n, 0);
    eliminations_ = 0;
  }

  // Eliminates v and returns its neighborhood at elimination, ascending.
  // When fill is tracked: each ring member u loses the pairs (v, x),
  // x ∈ N(u) \ N[v]; each fill edge (a, b) takes one pair from every
  // common neighbor of a and b, and gives a (and b) one pair per neighbor
  // not shared with b (a).
  const std::vector<VertexId>& Eliminate(VertexId v) {
    TUD_CHECK(alive_[v]);
    const bool track = !fill_.empty();
    alive_[v] = false;
    ring_.clear();
    ForEachNeighbor(v, [&](VertexId u) { ring_.push_back(u); });
    list_[v].size = 0;
    degree_[v] = 0;
    changed_.clear();
    ++eliminations_;
    for (VertexId u : ring_) {
      --degree_[u];
      if (track) {
        common_[u] = 0;
        MarkChanged(u);
      }
    }

    // Ring pairs, each tested from its earlier member. The
    // highest-degree member goes last, so its neighborhood is never
    // stamped: eliminating a hub's neighbor does not scan the hub.
    if (!ring_.empty()) {
      std::iter_swap(std::max_element(ring_.begin(), ring_.end(),
                                      [&](VertexId a, VertexId b) {
                                        return degree_[a] < degree_[b];
                                      }),
                     ring_.end() - 1);
    }
    missing_.clear();
    for (size_t i = 0; i + 1 < ring_.size(); ++i) {
      const VertexId a = ring_[i];
      StampNeighbors(a);
      for (size_t j = i + 1; j < ring_.size(); ++j) {
        const VertexId b = ring_[j];
        if (stamp_[b] == token_) {
          if (track) {
            ++common_[a];
            ++common_[b];
          }
        } else if (track) {
          missing_.emplace_back(a, b);
        } else {
          AddEdge(a, b);
        }
      }
    }

    if (track) {
      for (VertexId u : ring_) fill_[u] -= degree_[u] - common_[u];
      // Fill edges, grouped by first endpoint: one stamp of N(a) serves
      // all of a's edges, extended as they are added.
      for (size_t k = 0; k < missing_.size(); ++k) {
        const auto [a, b] = missing_[k];
        if (k == 0 || missing_[k - 1].first != a) StampNeighbors(a);
        uint32_t common = 0;
        ForEachNeighbor(b, [&](VertexId w) {
          if (stamp_[w] != token_) return;
          ++common;
          --fill_[w];
          MarkChanged(w);
        });
        fill_[a] += degree_[a] - common;
        fill_[b] += degree_[b] - common;
        AddEdge(a, b);
        stamp_[b] = token_;
      }
    }
    std::sort(ring_.begin(), ring_.end());
    return ring_;
  }

  // With fill tracked: the alive vertices whose fill or degree the last
  // Eliminate changed, each once.
  const std::vector<VertexId>& changed() const { return changed_; }

 private:
  struct List {
    uint32_t begin, size, capacity;  // A slot of pool_.
  };

  // Calls fn on every alive neighbor of v, dropping eliminated ones from
  // v's list on the way. fn must not add edges.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn fn) {
    List& list = list_[v];
    VertexId* nbrs = pool_.data() + list.begin;
    uint32_t kept = 0;
    for (uint32_t i = 0; i < list.size; ++i) {
      const VertexId u = nbrs[i];
      if (!alive_[u]) continue;
      nbrs[kept++] = u;
      fn(u);
    }
    list.size = kept;
  }

  void AddEdge(VertexId a, VertexId b) {
    Append(a, b);
    Append(b, a);
    ++degree_[a];
    ++degree_[b];
  }

  void Append(VertexId v, VertexId u) {
    List& list = list_[v];
    if (list.size == list.capacity) {
      const size_t begin = pool_.size();
      list.capacity = std::max(4u, 2 * list.capacity);
      TUD_CHECK_LE(begin + list.capacity, size_t{UINT32_MAX})
          << "elimination graph outgrew 32-bit list offsets";
      pool_.resize(begin + list.capacity);
      std::copy_n(pool_.begin() + list.begin, list.size,
                  pool_.begin() + begin);
      list.begin = static_cast<uint32_t>(begin);
    }
    pool_[list.begin + list.size++] = u;
  }

  void NextToken() {
    if (++token_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      token_ = 1;
    }
  }

  void StampNeighbors(VertexId v) {
    NextToken();
    ForEachNeighbor(v, [&](VertexId u) { stamp_[u] = token_; });
  }

  void MarkChanged(VertexId v) {
    if (changed_at_[v] == eliminations_) return;
    changed_at_[v] = eliminations_;
    changed_.push_back(v);
  }

  std::vector<VertexId> pool_;
  std::vector<List> list_;
  std::vector<uint32_t> degree_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> stamp_;
  uint32_t token_ = 0;
  // Fill tracking; empty until TrackFill().
  std::vector<uint64_t> fill_;
  std::vector<uint32_t> common_;      // Ring neighbors of a ring member.
  std::vector<uint32_t> changed_at_;  // Elimination that last marked v.
  uint32_t eliminations_ = 0;
  // Per-elimination scratch.
  std::vector<VertexId> ring_, changed_;
  std::vector<std::pair<VertexId, VertexId>> missing_;
};

// Eliminates v and appends it and its ring to the order, folding its
// elimination degree (its bag is v plus the ring) into the width and
// table cost. Returns the ring.
const std::vector<VertexId>& Record(EliminationOrder& out,
                                    EliminationGraph& work, VertexId v) {
  const std::vector<VertexId>& ring = work.Eliminate(v);
  const uint32_t degree = static_cast<uint32_t>(ring.size());
  out.order.push_back(v);
  out.rings.insert(out.rings.end(), ring.begin(), ring.end());
  out.ring_begin.push_back(static_cast<uint32_t>(out.rings.size()));
  out.width = std::max(out.width, degree);
  const uint32_t bits = std::min(degree + 1, kEliminationCostCapBits);
  out.table_cost += static_cast<double>(uint64_t{1} << bits);
  return ring;
}

EliminationOrder GreedyMinFillOrder(const Graph& graph, bool peel) {
  const uint32_t n = graph.NumVertices();
  EliminationGraph work(graph);
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
      for (VertexId u : Record(out, work, v)) {
        if (work.Degree(u) <= 1) {
          low_stack.push_back(u);
        } else if (work.Degree(u) == 2) {
          two_stack.push_back(u);
        }
      }
    }
  }

  // Lazy-heap min-fill on exact, incrementally kept fill counts: each
  // entry snapshots a vertex's (fill saturated at kFillCap, degree, id),
  // and an entry is dropped on pop unless it still equals the vertex's
  // score. Only the vertices whose score an elimination changed are
  // pushed again, so the heap always holds every alive vertex's current
  // score and each pop is the exact argmin. Fills from kFillCap up count
  // as equal: among vertices that costly, the smaller degree goes first.
  constexpr uint64_t kFillCap = 256;
  using Entry = std::tuple<uint64_t, uint32_t, VertexId>;
  auto score = [&](VertexId v) {
    return Entry(std::min(work.Fill(v), kFillCap), work.Degree(v), v);
  };
  work.TrackFill();
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (VertexId v = 0; v < n; ++v) {
    if (work.alive(v)) heap.push(score(v));
  }
  while (out.order.size() < n) {
    TUD_CHECK(!heap.empty());
    const Entry top = heap.top();
    heap.pop();
    const VertexId v = std::get<2>(top);
    if (!work.alive(v) || top != score(v)) continue;
    Record(out, work, v);
    for (VertexId u : work.changed()) heap.push(score(u));
  }
  return out;
}

}  // namespace

EliminationOrder EliminateInOrder(const Graph& graph,
                                  const std::vector<VertexId>& order) {
  const uint32_t n = graph.NumVertices();
  TUD_CHECK_EQ(order.size(), n);
  EliminationGraph work(graph);
  EliminationOrder out;
  out.order.reserve(n);
  for (const VertexId v : order) {
    TUD_CHECK_LT(v, n) << "elimination order names vertex " << v;
    TUD_CHECK(work.alive(v))
        << "vertex " << v << " appears twice in the elimination order";
    Record(out, work, v);
  }
  return out;
}

EliminationOrder MinFillOrder(const Graph& graph) {
  return GreedyMinFillOrder(graph, /*peel=*/false);
}

EliminationOrder PeeledMinFillOrder(const Graph& graph) {
  return GreedyMinFillOrder(graph, /*peel=*/true);
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
  EliminationGraph work(graph);
  EliminationOrder out;
  out.order.reserve(n);
  std::vector<std::vector<VertexId>> buckets;
  auto bucket_push = [&](VertexId v, uint32_t degree) {
    if (buckets.size() <= degree) buckets.resize(degree + 1);
    buckets[degree].push_back(v);
  };
  for (VertexId v = 0; v < n; ++v) bucket_push(v, work.Degree(v));
  uint32_t d = 0;
  while (out.order.size() < n) {
    while (d < buckets.size() && buckets[d].empty()) ++d;
    TUD_CHECK_LT(d, buckets.size());
    const VertexId v = buckets[d].back();
    buckets[d].pop_back();
    if (!work.alive(v) || work.Degree(v) != d) continue;  // Stale entry.
    for (VertexId u : Record(out, work, v)) {
      const uint32_t du = work.Degree(u);
      bucket_push(u, du);
      if (du < d) d = du;
    }
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

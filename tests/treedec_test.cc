#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "circuits/bool_circuit.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "prxml/to_uncertain_tree.h"
#include "queries/query_session.h"
#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "treedec/nice_decomposition.h"
#include "treedec/tree_decomposition.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

Graph PathGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, edges);
}

Graph CycleGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(n - 1, 0);
  return Graph::FromEdges(n, edges);
}

Graph CompleteGraph(uint32_t n) {
  EdgeList edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Graph::FromEdges(n, edges);
}

Graph GridGraph(uint32_t rows, uint32_t cols) {
  EdgeList edges;
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(r * cols + c, r * cols + c + 1);
      if (r + 1 < rows) edges.emplace_back(r * cols + c, (r + 1) * cols + c);
    }
  }
  return Graph::FromEdges(rows * cols, edges);
}

Graph RandomGraph(uint32_t n, double p, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) edges.emplace_back(i, j);
    }
  }
  return Graph::FromEdges(n, edges);
}

TEST(GraphTest, BasicOperations) {
  const Graph g = Graph::FromEdges(4, EdgeList{{0, 1}, {1, 2}, {2, 1}, {2, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);  // Duplicate and self-loop dropped.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_EQ(Graph(3).NumEdges(), 0u);
  EXPECT_EQ(Graph(3).Degree(2), 0u);
}

// FromEdges keeps exactly the distinct non-loop edges of a random list
// with repeats in both orientations, each row ascending.
TEST(GraphTest, FromEdgesRowsAreAscendingAndDeduplicated) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const uint32_t n = 1 + static_cast<uint32_t>(rng.UniformInt(60));
    EdgeList edges;
    std::vector<std::vector<bool>> expected(n, std::vector<bool>(n, false));
    for (int i = 0; i < 200; ++i) {
      const auto a = static_cast<VertexId>(rng.UniformInt(n));
      const auto b = static_cast<VertexId>(rng.UniformInt(n));
      edges.emplace_back(a, b);
      if (a != b) expected[a][b] = expected[b][a] = true;
    }
    const Graph g = Graph::FromEdges(n, edges);
    size_t num_edges = 0;
    for (VertexId v = 0; v < n; ++v) {
      const std::span<const VertexId> row = g.Neighbors(v);
      EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                     std::greater_equal<VertexId>()) ==
                  row.end())
          << "row " << v << " not strictly ascending";
      for (VertexId u = 0; u < n; ++u) {
        EXPECT_EQ(g.HasEdge(v, u), expected[v][u]) << v << "-" << u;
        num_edges += expected[v][u] && v < u;
      }
      EXPECT_EQ(g.Degree(v), std::count(expected[v].begin(),
                                        expected[v].end(), true));
    }
    EXPECT_EQ(g.NumEdges(), num_edges);
  }
}

// Random recursive forest: vertex i > 0 hangs off a random earlier
// vertex, or (with probability `root_p`) starts a new component.
Graph RandomForest(uint32_t n, double root_p, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  for (uint32_t i = 1; i < n; ++i) {
    if (!rng.Bernoulli(root_p)) {
      edges.emplace_back(i, static_cast<VertexId>(rng.UniformInt(i)));
    }
  }
  return Graph::FromEdges(n, edges);
}

using Heuristic = EliminationOrder (*)(const Graph&);
constexpr Heuristic kHeuristics[] = {&MinFillOrder, &PeeledMinFillOrder,
                                     &MinDegreeOrder};

// Every graph family of this file, each with a label for failures.
std::vector<std::pair<std::string, Graph>> GraphFamilies() {
  std::vector<std::pair<std::string, Graph>> families = {
      {"path", PathGraph(10)},        {"cycle", CycleGraph(8)},
      {"grid", GridGraph(5, 6)},      {"complete", CompleteGraph(7)},
      {"edgeless", Graph(4)},
  };
  for (uint64_t seed = 0; seed < 10; ++seed) {
    families.emplace_back("tree/" + std::to_string(seed),
                          RandomForest(40, 0.0, seed));
    families.emplace_back("forest/" + std::to_string(seed),
                          RandomForest(40, 0.15, seed + 100));
    families.emplace_back("random/" + std::to_string(seed),
                          RandomGraph(30, 0.15, seed));
  }
  // A forest of more than 2^14 vertices.
  families.emplace_back("sparse-forest", RandomForest(16484, 0.01, 7));
  return families;
}

Graph StarGraph(uint32_t leaves) {
  EdgeList edges;
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) edges.emplace_back(0, leaf);
  return Graph::FromEdges(leaves + 1, edges);
}

Graph PartialKTree(uint32_t n, uint32_t k, uint64_t seed) {
  Rng rng(seed);
  return Graph::FromEdges(n, workloads::PartialKTreeEdges(rng, n, k, 0.9));
}

// Min-fill by recounting: before every elimination, count the fill of
// every alive vertex on an adjacency-matrix copy and eliminate the
// minimum of (min(fill, 256), degree, id). `capped_picks`, if given,
// counts the eliminations whose fill was at or past the cap.
std::vector<VertexId> ReferenceMinFillOrder(const Graph& graph,
                                            int* capped_picks = nullptr) {
  constexpr uint64_t kFillCap = 256;
  const uint32_t n = graph.NumVertices();
  std::vector<std::vector<bool>> adjacent(n, std::vector<bool>(n, false));
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : graph.Neighbors(v)) adjacent[v][u] = true;
  }
  std::vector<bool> alive(n, true);
  auto neighbors = [&](VertexId v) {
    std::vector<VertexId> out;
    for (VertexId u = 0; u < n; ++u) {
      if (alive[u] && adjacent[v][u]) out.push_back(u);
    }
    return out;
  };
  std::vector<VertexId> order;
  for (uint32_t step = 0; step < n; ++step) {
    std::tuple<uint64_t, size_t, VertexId> best(
        std::numeric_limits<uint64_t>::max(), 0, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const std::vector<VertexId> nbrs = neighbors(v);
      uint64_t fill = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          fill += adjacent[nbrs[i]][nbrs[j]] ? 0 : 1;
        }
      }
      best = std::min(best, {std::min(fill, kFillCap), nbrs.size(), v});
    }
    const VertexId v = std::get<2>(best);
    if (capped_picks != nullptr && std::get<0>(best) == kFillCap) {
      ++*capped_picks;
    }
    const std::vector<VertexId> nbrs = neighbors(v);
    for (VertexId a : nbrs) {
      for (VertexId b : nbrs) {
        if (a != b) adjacent[a][b] = true;
      }
    }
    alive[v] = false;
    order.push_back(v);
  }
  return order;
}

// FNV-1a over an order, its width and the bits of its table cost.
uint64_t Digest(const EliminationOrder& elimination) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (VertexId v : elimination.order) mix(v);
  mix(elimination.width);
  mix(std::bit_cast<uint64_t>(elimination.table_cost));
  return hash;
}

// The primal graph a junction-tree plan decomposes for one lineage gate:
// over the gates of the binarised cone, numbered in gate order, one
// clique per gate scope ({gate} and its inputs). For a root that does
// not fold to a constant every binarised gate is reachable from the
// root, so these are exactly the vertices of JunctionTreeAnalysis.
Graph LineagePrimalGraph(const BoolCircuit& circuit, GateId root) {
  const auto [cone, cone_root] = circuit.ExtractCone(root);
  const auto [bin, remap] = cone.Binarize();
  EXPECT_NE(bin.kind(remap[cone_root]), GateKind::kConst);
  return Graph::FromEdges(static_cast<uint32_t>(bin.NumGates()),
                          bin.PrimalEdges());
}

// The lineage of ExistsLabel(occupation) Or EveryBUnderA(occupation,
// musician) over the tree-automaton benchmark's document: a primal graph
// on which min-degree comes out wider than plan Build accepts, so Build
// falls back to min-fill.
Graph FallbackLineageGraph() {
  Rng doc_rng(6);
  const PrXmlDocument doc = workloads::MakeWikidataPrxml(doc_rng, 48, 1);
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  const Label alphabet = tree.AlphabetSize();
  const Label occupation = labels.Find("occupation");
  TreeQuerySession session(std::move(tree), doc.events(),
                           std::make_unique<JunctionTreeEngine>());
  const GateId root = session.Lineage(
      AutomatonExpr::Atom(MakeExistsLabel(alphabet, occupation)) ||
      AutomatonExpr::Atom(MakeEveryBUnderA(alphabet, occupation,
                                           labels.Find("musician"))));
  return LineagePrimalGraph(session.tree().circuit(), root);
}

TEST(EliminationTest, OrdersArePermutations) {
  Graph g = GridGraph(4, 4);
  for (Heuristic heuristic : kHeuristics) {
    std::vector<VertexId> sorted = heuristic(g).order;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(sorted[i], i);
  }
}

// The width and table cost a heuristic reports from its elimination pass
// are those of the decomposition its order derives: width = max bag
// size - 1, table cost = Σ 2^|bag| over the per-vertex bags (the empty
// root bag FromEliminationOrder adds is not a table).
TEST(EliminationTest, ReportedWidthAndCostMatchDerivedDecomposition) {
  for (const auto& [name, g] : GraphFamilies()) {
    for (Heuristic heuristic : kHeuristics) {
      const EliminationOrder elimination = heuristic(g);
      std::vector<BagId> bag_of;
      const TreeDecomposition td =
          TreeDecomposition::FromEliminationOrder(g, elimination.order,
                                                  &bag_of);
      EXPECT_EQ(static_cast<int>(elimination.width), td.Width()) << name;
      double cost = 0;
      for (VertexId v : elimination.order) {
        cost += std::ldexp(1.0, static_cast<int>(td.bag(bag_of[v]).size()));
      }
      EXPECT_EQ(elimination.table_cost, cost) << name;
    }
  }
}

// The rings of an order by symbolic factorisation (the sparse Cholesky
// structure recurrence), without simulating any elimination: the ring of
// v is its later-eliminated neighbors united with ring(c) \ {v} for every
// elimination-tree child c of v (the vertices whose earliest-eliminated
// ring member is v). Returns the ring of each position, ascending.
std::vector<std::vector<VertexId>> SymbolicRings(
    const Graph& graph, const std::vector<VertexId>& order) {
  const uint32_t n = graph.NumVertices();
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<std::vector<VertexId>> ring_of(n), etree_children(n);
  std::vector<bool> in_ring(n, false);
  std::vector<std::vector<VertexId>> rings(n);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    std::vector<VertexId> ring;
    auto add = [&](VertexId u) {
      if (!in_ring[u]) {
        in_ring[u] = true;
        ring.push_back(u);
      }
    };
    for (VertexId u : graph.Neighbors(v)) {
      if (position[u] > i) add(u);
    }
    for (VertexId c : etree_children[v]) {
      for (VertexId u : ring_of[c]) {
        if (u != v) add(u);
      }
    }
    for (VertexId u : ring) in_ring[u] = false;
    std::sort(ring.begin(), ring.end());
    if (!ring.empty()) {
      etree_children[*std::min_element(
                         ring.begin(), ring.end(),
                         [&](VertexId a, VertexId b) {
                           return position[a] < position[b];
                         })]
          .push_back(v);
    }
    ring_of[v] = ring;
    rings[i] = std::move(ring);
  }
  return rings;
}

// The bags every heuristic records in its elimination pass, and those of
// a replayed shuffled order, are the bags symbolic factorisation derives;
// FromElimination turns them into bags {v} ∪ ring(v).
TEST(EliminationTest, RecordedBagsMatchSymbolicFactorisation) {
  Rng rng(41);
  for (const auto& [name, g] : GraphFamilies()) {
    std::vector<std::pair<std::string, EliminationOrder>> eliminations;
    for (size_t h = 0; h < std::size(kHeuristics); ++h) {
      eliminations.emplace_back(name + "/" + std::to_string(h),
                                kHeuristics[h](g));
    }
    if (g.NumVertices() <= 100) {
      std::vector<VertexId> shuffled(g.NumVertices());
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const auto j = static_cast<size_t>(rng.UniformInt(v + 1));
        shuffled[v] = shuffled[j];
        shuffled[j] = v;
      }
      eliminations.emplace_back(name + "/shuffled",
                                EliminateInOrder(g, shuffled));
    }
    for (const auto& [label, elimination] : eliminations) {
      const std::vector<std::vector<VertexId>> expected =
          SymbolicRings(g, elimination.order);
      ASSERT_EQ(elimination.ring_begin.size(), elimination.order.size() + 1);
      std::vector<BagId> bag_of;
      const TreeDecomposition td =
          TreeDecomposition::FromElimination(elimination, &bag_of);
      for (size_t i = 0; i < elimination.order.size(); ++i) {
        const std::span<const VertexId> ring = Ring(elimination, i);
        ASSERT_EQ(std::vector<VertexId>(ring.begin(), ring.end()),
                  expected[i])
            << label << " position " << i;
        std::vector<VertexId> bag = expected[i];
        bag.insert(std::upper_bound(bag.begin(), bag.end(),
                                    elimination.order[i]),
                   elimination.order[i]);
        const std::span<const VertexId> td_bag =
            td.bag(bag_of[elimination.order[i]]);
        ASSERT_EQ(std::vector<VertexId>(td_bag.begin(), td_bag.end()), bag)
            << label;
      }
      if (g.NumVertices() <= 100) {
        EXPECT_TRUE(td.IsValidFor(g)) << label;
      }
    }
  }
}

// Incrementally kept fill counts pick the same vertex at every step as
// recounting every fill from scratch.
TEST(EliminationTest, MinFillMatchesRecomputeReference) {
  std::vector<std::pair<std::string, Graph>> graphs = {
      {"grid/6x7", GridGraph(6, 7)},
      {"grid/3x12", GridGraph(3, 12)},
      {"star/30", StarGraph(30)},
  };
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const std::string tag = "/" + std::to_string(seed);
    graphs.emplace_back("random" + tag, RandomGraph(40, 0.12, seed));
    graphs.emplace_back("ktree3" + tag, PartialKTree(90, 3, seed));
    graphs.emplace_back("ktree8" + tag, PartialKTree(90, 8, seed + 50));
  }
  for (const auto& [name, g] : graphs) {
    EXPECT_EQ(MinFillOrder(g).order, ReferenceMinFillOrder(g)) << name;
  }
  // Every fill starts past the cap: ties at the cap are broken by degree.
  const Graph dense = RandomGraph(100, 0.5, 3);
  int capped_picks = 0;
  EXPECT_EQ(MinFillOrder(dense).order,
            ReferenceMinFillOrder(dense, &capped_picks));
  EXPECT_GT(capped_picks, 0);
}

// Orders, widths and table costs pinned to the values of the earlier
// bitset-based elimination graph. "families" folds every family of
// GraphFamilies() into one digest.
TEST(EliminationTest, GoldenOrderDigests) {
  struct Golden {
    const char* name;
    uint64_t min_fill, peeled_min_fill, min_degree;
  };
  constexpr Golden kGolden[] = {
      {"families", 5392869403631291699ull, 16646802400829584035ull,
       10361786962865091965ull},
      {"ktree8/2048", 7852805284816834914ull, 7852805284816834914ull,
       17706551232240498758ull},
      {"fallback-lineage", 13254728979698790879ull, 14510443759177745239ull,
       16882269028385215303ull},
  };
  std::vector<Graph> families;
  for (auto& [name, g] : GraphFamilies()) families.push_back(std::move(g));
  const std::vector<Graph> ktree = {PartialKTree(2048, 8, 1)};
  const Graph lineage = FallbackLineageGraph();
  EXPECT_GT(MinDegreeOrder(lineage).width, 10u);
  const std::vector<Graph> fallback = {lineage};
  const std::vector<Graph>* inputs[] = {&families, &ktree, &fallback};
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    uint64_t digests[3];
    for (size_t h = 0; h < 3; ++h) {
      uint64_t folded = 0;
      for (const Graph& g : *inputs[i]) {
        folded = folded * 1099511628211ull ^ Digest(kHeuristics[h](g));
      }
      digests[h] = folded;
    }
    EXPECT_EQ(digests[0], kGolden[i].min_fill) << kGolden[i].name;
    EXPECT_EQ(digests[1], kGolden[i].peeled_min_fill) << kGolden[i].name;
    EXPECT_EQ(digests[2], kGolden[i].min_degree) << kGolden[i].name;
  }
}

TEST(EliminationTest, PathHasWidthOne) {
  Graph g = PathGraph(10);
  EXPECT_EQ(MinFillOrder(g).width, 1u);
  EXPECT_EQ(MinDegreeOrder(g).width, 1u);
}

TEST(EliminationTest, ForestsHaveWidthOne) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = RandomForest(60, 0.1, seed);
    EXPECT_EQ(MinDegreeOrder(g).width, 1u) << seed;
    EXPECT_EQ(PeeledMinFillOrder(g).width, 1u) << seed;
  }
}

TEST(EliminationTest, CycleHasWidthTwo) {
  Graph g = CycleGraph(8);
  EXPECT_EQ(MinFillOrder(g).width, 2u);
}

TEST(EliminationTest, CliqueHasWidthNMinusOne) {
  Graph g = CompleteGraph(6);
  EXPECT_EQ(MinFillOrder(g).width, 5u);
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(8)), 1u);
  EXPECT_EQ(ExactTreewidth(CycleGraph(8)), 2u);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(5)), 4u);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 3)), 3u);
  EXPECT_EQ(ExactTreewidth(Graph(3)), 0u);  // Edgeless.
  EXPECT_EQ(ExactTreewidth(GridGraph(4, 4), 10), std::nullopt);  // Too big.
}

TEST(ExactTreewidthTest, HeuristicsAreUpperBounds) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = RandomGraph(10, 0.3, seed);
    uint32_t exact = *ExactTreewidth(g);
    for (Heuristic heuristic : kHeuristics) {
      EXPECT_GE(heuristic(g).width, exact);
    }
  }
}

TEST(TreeDecompositionTest, TrivialIsValid) {
  Graph g = CycleGraph(5);
  TreeDecomposition td = TreeDecomposition::Trivial(g);
  EXPECT_TRUE(td.IsValidFor(g));
  EXPECT_EQ(td.Width(), 4);
}

class DecompositionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionPropertyTest, EliminationDecompositionIsValid) {
  Rng rng(GetParam());
  uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(15));
  Graph g = RandomGraph(n, 0.25, GetParam() * 977 + 1);
  const EliminationOrder elimination = MinFillOrder(g);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, elimination.order);
  EXPECT_TRUE(td.IsValidFor(g));
  EXPECT_EQ(td.Width(), static_cast<int>(elimination.width));
}

TEST_P(DecompositionPropertyTest, NiceDecompositionIsWellFormed) {
  Rng rng(GetParam() + 500);
  uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(10));
  Graph g = RandomGraph(n, 0.3, GetParam() * 31 + 7);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g).order);
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td);
  EXPECT_TRUE(nice.IsWellFormed());
  EXPECT_EQ(nice.Width(), td.Width());
  // Every graph edge is covered by some nice bag.
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (u < v) continue;
      EXPECT_NE(nice.FindNodeCovering({v, u}), kInvalidNiceNode)
          << "edge " << v << "-" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionPropertyTest,
                         ::testing::Range(0, 20));

TEST(TreeDecompositionTest, BagOfVertexCoversCliques) {
  Graph g = CompleteGraph(4);
  std::vector<VertexId> order = MinFillOrder(g).order;
  std::vector<uint32_t> position(4);
  for (uint32_t i = 0; i < 4; ++i) position[order[i]] = i;
  std::vector<BagId> bag_of;
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, order, &bag_of);
  // The whole graph is a clique: the bag of the first-eliminated vertex
  // must contain all vertices.
  const auto& bag = td.bag(bag_of[order[0]]);
  EXPECT_EQ(bag.size(), 4u);
}

TEST(TreeDecompositionTest, FindBagContaining) {
  Graph g = PathGraph(5);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g).order);
  EXPECT_NE(td.FindBagContaining({2, 3}), kInvalidBag);
  EXPECT_EQ(td.FindBagContaining({0, 4}), kInvalidBag);
}

TEST(TreeDecompositionDeathTest, EliminationOrderMustBePermutation) {
  const Graph g = PathGraph(4);
  EXPECT_DEATH(TreeDecomposition::FromEliminationOrder(g, {0, 1, 1, 3}),
               "appears twice");
  EXPECT_DEATH(TreeDecomposition::FromEliminationOrder(g, {0, 1, 2, 4}),
               "names vertex 4");
}

TEST(TreeDecompositionTest, InvalidDecompositionDetected) {
  Graph g = PathGraph(3);
  TreeDecomposition td;
  td.AddBag({0, 1}, kInvalidBag);
  // Missing vertex 2 and edge {1,2}.
  EXPECT_FALSE(td.IsValidFor(g));
}

TEST(TreeDecompositionTest, DisconnectedOccurrencesDetected) {
  const Graph g = PathGraph(3);
  TreeDecomposition td;
  BagId root = td.AddBag({0, 1}, kInvalidBag);
  BagId middle = td.AddBag({1, 2}, root);
  td.AddBag({0}, middle);  // Vertex 0 reappears below a bag without it.
  EXPECT_FALSE(td.IsValidFor(g));
}

TEST(NiceDecompositionTest, PathDecomposition) {
  Graph g = PathGraph(6);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g).order);
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td);
  EXPECT_TRUE(nice.IsWellFormed());
  EXPECT_EQ(nice.Width(), 1);
  EXPECT_TRUE(nice.bag(nice.root()).empty());
}

TEST(NiceDecompositionTest, TopOfBagMapsToMatchingBags) {
  Graph g = GridGraph(3, 3);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g).order);
  std::vector<NiceNodeId> top_of_bag;
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td, &top_of_bag);
  ASSERT_EQ(top_of_bag.size(), td.NumBags());
  for (BagId b = 0; b < td.NumBags(); ++b) {
    EXPECT_TRUE(std::ranges::equal(nice.bag(top_of_bag[b]), td.bag(b)));
  }
}

}  // namespace
}  // namespace tud

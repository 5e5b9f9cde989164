#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "treedec/elimination.h"
#include "treedec/elimination_graph.h"
#include "treedec/graph.h"
#include "treedec/nice_decomposition.h"
#include "treedec/tree_decomposition.h"
#include "util/rng.h"

namespace tud {
namespace {

Graph PathGraph(uint32_t n) {
  Graph g(n);
  for (uint32_t i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Graph CycleGraph(uint32_t n) {
  Graph g = PathGraph(n);
  g.AddEdge(n - 1, 0);
  return g;
}

Graph CompleteGraph(uint32_t n) {
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

Graph GridGraph(uint32_t rows, uint32_t cols) {
  Graph g(rows * cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(r * cols + c, r * cols + c + 1);
      if (r + 1 < rows) g.AddEdge(r * cols + c, (r + 1) * cols + c);
    }
  }
  return g;
}

Graph RandomGraph(uint32_t n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) g.AddEdge(i, j);
    }
  }
  return g;
}

TEST(GraphTest, BasicOperations) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // Duplicate ignored.
  g.AddEdge(2, 2);  // Self-loop ignored.
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
}

// Random recursive forest: vertex i > 0 hangs off a random earlier
// vertex, or (with probability `root_p`) starts a new component.
Graph RandomForest(uint32_t n, double root_p, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (uint32_t i = 1; i < n; ++i) {
    if (!rng.Bernoulli(root_p)) {
      g.AddEdge(i, static_cast<VertexId>(rng.UniformInt(i)));
    }
  }
  return g;
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
  // Past kDenseVertexLimit the heuristics eliminate on the sparse
  // adjacency-set graph.
  families.emplace_back("sparse-forest",
                        RandomForest(kDenseVertexLimit + 100, 0.01, 7));
  return families;
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

TEST(TreeDecompositionTest, InvalidDecompositionDetected) {
  Graph g = PathGraph(3);
  TreeDecomposition td;
  td.AddBag({0, 1}, kInvalidBag);
  // Missing vertex 2 and edge {1,2}.
  EXPECT_FALSE(td.IsValidFor(g));
}

TEST(TreeDecompositionTest, DisconnectedOccurrencesDetected) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
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
    EXPECT_EQ(nice.bag(top_of_bag[b]), td.bag(b));
  }
}

}  // namespace
}  // namespace tud

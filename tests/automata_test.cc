#include <functional>
#include <vector>

#include "automata/automaton_library.h"
#include "automata/binary_tree.h"
#include "treedec/tree_decomposition.h"
#include "automata/provenance_run.h"
#include "automata/tree_automaton.h"
#include "automata/uncertain_tree.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "util/rng.h"

namespace tud {
namespace {

// Reference (slow) property checks on plain trees.
int CountLabel(const BinaryTree& t, Label target) {
  int count = 0;
  for (TreeNodeId n = 0; n < t.NumNodes(); ++n) {
    if (t.label(n) == target) ++count;
  }
  return count;
}

bool RefEveryBUnderA(const BinaryTree& t, Label a, Label b) {
  // For each b-node, check some strict ancestor is labeled a.
  std::vector<TreeNodeId> parent(t.NumNodes(), kNoTreeNode);
  for (TreeNodeId n = 0; n < t.NumNodes(); ++n) {
    if (!t.IsLeaf(n)) {
      parent[t.left(n)] = n;
      parent[t.right(n)] = n;
    }
  }
  for (TreeNodeId n = 0; n < t.NumNodes(); ++n) {
    if (t.label(n) != b) continue;
    bool shielded = false;
    for (TreeNodeId x = parent[n]; x != kNoTreeNode; x = parent[x]) {
      if (t.label(x) == a) {
        shielded = true;
        break;
      }
    }
    if (!shielded) return false;
  }
  return true;
}

bool RefExistsBBelowA(const BinaryTree& t, Label a, Label b) {
  std::vector<TreeNodeId> parent(t.NumNodes(), kNoTreeNode);
  for (TreeNodeId n = 0; n < t.NumNodes(); ++n) {
    if (!t.IsLeaf(n)) {
      parent[t.left(n)] = n;
      parent[t.right(n)] = n;
    }
  }
  for (TreeNodeId n = 0; n < t.NumNodes(); ++n) {
    if (t.label(n) != b) continue;
    for (TreeNodeId x = parent[n]; x != kNoTreeNode; x = parent[x]) {
      if (t.label(x) == a) return true;
    }
  }
  return false;
}

BinaryTree RandomTree(Rng& rng, uint32_t num_internal, Label alphabet) {
  BinaryTree t;
  std::vector<TreeNodeId> roots;
  for (uint32_t i = 0; i < num_internal + 1; ++i) {
    roots.push_back(
        t.AddLeaf(static_cast<Label>(rng.UniformInt(alphabet))));
  }
  while (roots.size() > 1) {
    size_t i = rng.UniformInt(roots.size());
    TreeNodeId a = roots[i];
    roots.erase(roots.begin() + i);
    size_t j = rng.UniformInt(roots.size());
    TreeNodeId b = roots[j];
    roots[j] = t.AddInternal(static_cast<Label>(rng.UniformInt(alphabet)),
                             a, b);
  }
  return t;
}

TEST(BinaryTreeTest, Construction) {
  BinaryTree t;
  TreeNodeId l = t.AddLeaf(0);
  TreeNodeId r = t.AddLeaf(1);
  TreeNodeId root = t.AddInternal(2, l, r);
  EXPECT_EQ(t.root(), root);
  EXPECT_TRUE(t.IsLeaf(l));
  EXPECT_FALSE(t.IsLeaf(root));
  EXPECT_EQ(t.AlphabetSize(), 3u);
}

class AutomatonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AutomatonPropertyTest, LibraryAutomataMatchReferenceChecks) {
  Rng rng(GetParam());
  const Label kAlphabet = 3;
  BinaryTree t = RandomTree(rng, 2 + rng.UniformInt(12), kAlphabet);
  EXPECT_EQ(MakeExistsLabel(kAlphabet, 1).Accepts(t),
            CountLabel(t, 1) >= 1);
  EXPECT_EQ(MakeExistsLabelNondet(kAlphabet, 1).Accepts(t),
            CountLabel(t, 1) >= 1);
  EXPECT_EQ(MakeCountAtLeast(kAlphabet, 2, 3).Accepts(t),
            CountLabel(t, 2) >= 3);
  EXPECT_EQ(MakeRootHasLabel(kAlphabet, 0).Accepts(t), t.label(t.root()) == 0);
  EXPECT_EQ(MakeEveryBUnderA(kAlphabet, 0, 1).Accepts(t),
            RefEveryBUnderA(t, 0, 1));
  EXPECT_EQ(MakeExistsBBelowA(kAlphabet, 0, 1).Accepts(t),
            RefExistsBBelowA(t, 0, 1));
}

TEST_P(AutomatonPropertyTest, BooleanClosureOperations) {
  Rng rng(GetParam() + 300);
  const Label kAlphabet = 2;
  BinaryTree t = RandomTree(rng, 2 + rng.UniformInt(8), kAlphabet);
  TreeAutomaton exists0 = MakeExistsLabel(kAlphabet, 0);
  TreeAutomaton exists1 = MakeExistsLabel(kAlphabet, 1);

  TreeAutomaton both = TreeAutomaton::Product(exists0, exists1, true);
  EXPECT_EQ(both.Accepts(t), exists0.Accepts(t) && exists1.Accepts(t));

  TreeAutomaton either = TreeAutomaton::Product(exists0, exists1, false);
  EXPECT_EQ(either.Accepts(t), exists0.Accepts(t) || exists1.Accepts(t));

  TreeAutomaton not0 = exists0.Complement();
  EXPECT_EQ(not0.Accepts(t), !exists0.Accepts(t));

  TreeAutomaton det = MakeExistsLabelNondet(kAlphabet, 0).Determinize();
  EXPECT_EQ(det.Accepts(t), exists0.Accepts(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomatonPropertyTest,
                         ::testing::Range(0, 25));

TEST(AutomatonTest, EmptinessCheck) {
  TreeAutomaton exists = MakeExistsLabel(2, 1);
  EXPECT_FALSE(exists.IsEmpty());
  // "Exists label 1 AND not exists label 1" is empty.
  TreeAutomaton contradiction =
      TreeAutomaton::Product(exists, exists.Complement(), true);
  EXPECT_TRUE(contradiction.IsEmpty());
  // An automaton with no accepting states is empty.
  TreeAutomaton none(1, 2);
  none.AddLeafTransition(0, 0);
  none.AddTransition(0, 0, 0, 0);
  EXPECT_TRUE(none.IsEmpty());
}

TEST(AutomatonTest, ReachableStatesBottomUp) {
  TreeAutomaton a = MakeExistsLabel(2, 1);
  BinaryTree t;
  TreeNodeId l = t.AddLeaf(1);
  TreeNodeId r = t.AddLeaf(0);
  t.AddInternal(0, l, r);
  auto reach = a.ReachableStates(t);
  EXPECT_TRUE(reach[l].contains(1));
  EXPECT_TRUE(reach[r].contains(0));
  EXPECT_TRUE(reach[t.root()].contains(1));
}

// ---------------------------------------------------------------------------
// ProvenanceRun: the lineage gate agrees with running the automaton on
// every possible world.
// ---------------------------------------------------------------------------

// Builds an uncertain tree whose node labels flip between two letters
// guarded by one event per node (event i controls node i).
UncertainBinaryTree FlipTree(Rng& rng, uint32_t num_internal,
                             EventRegistry& registry) {
  UncertainBinaryTree t;
  uint32_t next_event = 0;
  auto make_alts = [&]() {
    EventId e = next_event++;
    registry.Register("n" + std::to_string(e),
                      0.2 + 0.6 * rng.UniformDouble());
    GateId var = t.circuit().AddVar(e);
    GateId not_var = t.circuit().AddNot(var);
    return std::vector<std::pair<Label, GateId>>{{0, not_var}, {1, var}};
  };
  std::vector<TreeNodeId> roots;
  for (uint32_t i = 0; i < num_internal + 1; ++i) {
    roots.push_back(t.AddLeaf(make_alts()));
  }
  while (roots.size() > 1) {
    size_t i = rng.UniformInt(roots.size());
    TreeNodeId a = roots[i];
    roots.erase(roots.begin() + i);
    size_t j = rng.UniformInt(roots.size());
    TreeNodeId b = roots[j];
    roots[j] = t.AddInternal(make_alts(), a, b);
  }
  return t;
}

class ProvenanceRunTest : public ::testing::TestWithParam<int> {};

TEST_P(ProvenanceRunTest, LineageMatchesWorldByWorld) {
  Rng rng(GetParam());
  EventRegistry registry;
  UncertainBinaryTree tree = FlipTree(rng, 2 + rng.UniformInt(5), registry);
  const size_t num_events = registry.size();
  ASSERT_LE(num_events, 16u);

  TreeAutomaton automata[] = {
      MakeExistsLabel(2, 1),
      MakeCountAtLeast(2, 1, 2),
      MakeEveryBUnderA(2, 0, 1),
      MakeExistsLabelNondet(2, 1),
  };
  for (TreeAutomaton& a : automata) {
    GateId lineage = ProvenanceRun(a, tree);
    for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
      Valuation v = Valuation::FromMask(mask, num_events);
      ASSERT_TRUE(tree.IsWellFormedUnder(v));
      BinaryTree world = tree.World(v);
      EXPECT_EQ(tree.circuit().Evaluate(lineage, v), a.Accepts(world))
          << "mask=" << mask;
    }
  }
}

TEST_P(ProvenanceRunTest, ProbabilityViaMessagePassingMatchesEnumeration) {
  Rng rng(GetParam() + 900);
  EventRegistry registry;
  UncertainBinaryTree tree = FlipTree(rng, 3, registry);
  TreeAutomaton a = MakeExistsLabel(2, 1);
  GateId lineage = ProvenanceRun(a, tree);
  double exact =
      ExhaustiveEngine().Estimate(tree.circuit(), lineage, registry).value;
  double mp = JunctionTreeEngine().Estimate(tree.circuit(), lineage,
                                            registry).value;
  EXPECT_NEAR(mp, exact, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceRunTest, ::testing::Range(0, 12));

TEST(UncertainTreeTest, WorldSelectsUniqueAlternative) {
  EventRegistry registry;
  EventId e = registry.Register("e", 0.5);
  UncertainBinaryTree t;
  GateId var = t.circuit().AddVar(e);
  GateId not_var = t.circuit().AddNot(var);
  t.AddLeaf({{7, var}, {9, not_var}});
  Valuation v(1);
  v.set_value(e, true);
  EXPECT_EQ(t.World(v).label(0), 7u);
  v.set_value(e, false);
  EXPECT_EQ(t.World(v).label(0), 9u);
  EXPECT_TRUE(t.IsWellFormedUnder(v));
}

TEST(UncertainTreeDeathTest, OverlappingGuardsRejectedByWorld) {
  EventRegistry registry;
  EventId e = registry.Register("e", 0.5);
  UncertainBinaryTree t;
  GateId var = t.circuit().AddVar(e);
  t.AddLeaf({{0, var}, {1, var}});  // Both guards true when e holds.
  Valuation v(1);
  v.set_value(e, true);
  EXPECT_FALSE(t.IsWellFormedUnder(v));
  EXPECT_DEATH(t.World(v), "alternatives");
}


TEST(UncertainTreeDeathTest, EmptyAlternativesRejected) {
  UncertainBinaryTree t;
  EXPECT_DEATH(t.AddLeaf({}), "CHECK failed");
}

TEST(TreeDecompositionDeathTest, SecondRootRejected) {
  TreeDecomposition td;
  td.AddBag({0}, kInvalidBag);
  EXPECT_DEATH(td.AddBag({1}, kInvalidBag), "two roots");
}

}  // namespace
}  // namespace tud

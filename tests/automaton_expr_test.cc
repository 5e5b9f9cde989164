// The compiled-first combinator surface: AutomatonExpr::Compile must
// (a) implement exactly the Boolean combination of its atoms' languages
// and (b) never round-trip through the std::map TreeAutomaton
// representation between closure steps — pinned down by the
// ToTreeAutomatonCalls counter.

#include <vector>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "automata/binary_tree.h"
#include "automata/compiled_automaton.h"
#include "automata/provenance_run.h"
#include "automata/tree_automaton.h"
#include "events/event_registry.h"
#include "events/valuation.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "util/rng.h"

namespace tud {
namespace {

TreeAutomaton RandomAutomaton(Rng& rng, uint32_t num_states,
                              Label alphabet) {
  TreeAutomaton a(num_states, alphabet);
  for (Label l = 0; l < alphabet; ++l) {
    for (State q = 0; q < num_states; ++q) {
      if (rng.Bernoulli(0.4)) a.AddLeafTransition(l, q);
    }
    for (State ql = 0; ql < num_states; ++ql) {
      for (State qr = 0; qr < num_states; ++qr) {
        uint64_t count = rng.UniformInt(3);
        for (uint64_t i = 0; i < count; ++i) {
          a.AddTransition(l, ql, qr,
                          static_cast<State>(rng.UniformInt(num_states)));
        }
      }
    }
  }
  a.SetAccepting(static_cast<State>(rng.UniformInt(num_states)));
  return a;
}

BinaryTree RandomTree(Rng& rng, uint32_t num_internal, Label alphabet) {
  BinaryTree t;
  std::vector<TreeNodeId> roots;
  for (uint32_t i = 0; i < num_internal + 1; ++i) {
    roots.push_back(t.AddLeaf(static_cast<Label>(rng.UniformInt(alphabet))));
  }
  while (roots.size() > 1) {
    size_t i = rng.UniformInt(roots.size());
    TreeNodeId a = roots[i];
    roots.erase(roots.begin() + i);
    size_t j = rng.UniformInt(roots.size());
    TreeNodeId b = roots[j];
    roots[j] =
        t.AddInternal(static_cast<Label>(rng.UniformInt(alphabet)), a, b);
  }
  return t;
}

class AutomatonExprTest : public ::testing::TestWithParam<int> {};

TEST_P(AutomatonExprTest, CompileMatchesLanguageCombination) {
  Rng rng(GetParam());
  const Label alphabet = 2 + static_cast<Label>(rng.UniformInt(2));
  TreeAutomaton a = RandomAutomaton(rng, 2 + rng.UniformInt(3), alphabet);
  TreeAutomaton b = RandomAutomaton(rng, 2 + rng.UniformInt(3), alphabet);
  TreeAutomaton c = RandomAutomaton(rng, 2 + rng.UniformInt(3), alphabet);

  AutomatonExpr expr = (AutomatonExpr::Atom(a) && !AutomatonExpr::Atom(b)) ||
                       AutomatonExpr::Atom(c);
  AutomatonExpr::CompileStats stats;
  CompiledAutomaton compiled = expr.Compile(&stats);
  EXPECT_EQ(stats.products, 2u);
  EXPECT_EQ(stats.complements, 1u);
  EXPECT_EQ(stats.result_states, compiled.num_states());

  for (int t = 0; t < 30; ++t) {
    BinaryTree tree =
        RandomTree(rng, static_cast<uint32_t>(rng.UniformInt(12)), alphabet);
    const bool expected =
        (a.Accepts(tree) && !b.Accepts(tree)) || c.Accepts(tree);
    EXPECT_EQ(compiled.Accepts(tree), expected) << "tree " << t;
  }
}

TEST_P(AutomatonExprTest, CompileNeverRoundTripsThroughTreeAutomaton) {
  Rng rng(GetParam() + 50);
  const Label alphabet = 2;
  // Atoms lower TreeAutomaton -> CompiledAutomaton up front (the edge);
  // from there the whole closure must stay compiled-to-compiled.
  AutomatonExpr expr =
      !(AutomatonExpr::Atom(RandomAutomaton(rng, 3, alphabet)) &&
        AutomatonExpr::Atom(RandomAutomaton(rng, 3, alphabet))) ||
      AutomatonExpr::Atom(RandomAutomaton(rng, 4, alphabet));
  const uint64_t before = CompiledAutomaton::ToTreeAutomatonCalls();
  CompiledAutomaton compiled = expr.Compile();
  EXPECT_EQ(CompiledAutomaton::ToTreeAutomatonCalls(), before)
      << "Compile() rebuilt a std::map TreeAutomaton mid-pipeline";
  EXPECT_GT(compiled.num_states(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomatonExprTest, ::testing::Range(0, 10));

TEST(AutomatonExprTest, DoubleNegationFoldsToSameNode) {
  AutomatonExpr e = AutomatonExpr::Atom(MakeExistsLabel(2, 1));
  AutomatonExpr folded = !!e;
  EXPECT_EQ(folded.CacheKey(), e.CacheKey());
  AutomatonExpr::CompileStats stats;
  folded.Compile(&stats);
  EXPECT_EQ(stats.complements, 0u);
}

TEST(AutomatonExprTest, SharedSubexpressionKeepsOneIdentity) {
  AutomatonExpr atom = AutomatonExpr::Atom(MakeExistsLabel(2, 0));
  AutomatonExpr left = atom && AutomatonExpr::Atom(MakeExistsLabel(2, 1));
  AutomatonExpr right = atom || AutomatonExpr::Atom(MakeExistsLabel(2, 1));
  // Distinct combinations have distinct identities; copies share one.
  EXPECT_NE(left.CacheKey(), right.CacheKey());
  AutomatonExpr copy = left;
  EXPECT_EQ(copy.CacheKey(), left.CacheKey());
}

TEST(AutomatonExprTest, ProvenanceThroughCompiledExprMatchesLegacyRoute) {
  // The §2.2 Boolean-combination pipeline both ways: the expr route
  // (compiled end to end) and the legacy TreeAutomaton::Product /
  // Complement chain must produce the same lineage probability.
  EventRegistry registry;
  EventId e0 = registry.Register("e0", 0.35);
  EventId e1 = registry.Register("e1", 0.7);
  UncertainBinaryTree tree;
  GateId v0 = tree.circuit().AddVar(e0);
  GateId v1 = tree.circuit().AddVar(e1);
  TreeNodeId l0 = tree.AddLeaf({{1, v0}, {0, tree.circuit().AddNot(v0)}});
  TreeNodeId l1 = tree.AddLeaf({{2, v1}, {0, tree.circuit().AddNot(v1)}});
  tree.AddInternal({{0, tree.circuit().AddConst(true)}}, l0, l1);

  TreeAutomaton has_one = MakeExistsLabel(3, 1);
  TreeAutomaton has_two = MakeExistsLabel(3, 2);

  AutomatonExpr expr =
      AutomatonExpr::Atom(has_one) && !AutomatonExpr::Atom(has_two);
  GateId expr_lineage = ProvenanceRun(expr.Compile(), tree);

  TreeAutomaton legacy =
      TreeAutomaton::Product(has_one, has_two.Complement(), true);
  GateId legacy_lineage = ProvenanceRun(legacy, tree);

  EXPECT_NEAR(ExhaustiveEngine().Estimate(tree.circuit(), expr_lineage,
                                          registry).value,
              ExhaustiveEngine().Estimate(tree.circuit(), legacy_lineage,
                                          registry).value,
              1e-12);
}

}  // namespace
}  // namespace tud

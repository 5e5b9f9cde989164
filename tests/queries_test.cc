#include <vector>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "queries/query_parser.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"

namespace tud {
namespace {

Schema MakeRst() {
  Schema schema;
  schema.AddRelation("R", 1);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 1);
  return schema;
}

TEST(ConjunctiveQueryTest, NaiveEvaluation) {
  Schema schema = MakeRst();
  Instance instance(schema);
  instance.AddFact(0, {0});      // R(a)
  instance.AddFact(1, {0, 1});   // S(a,b)
  instance.AddFact(2, {1});      // T(b)
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  EXPECT_TRUE(q.EvaluateBool(instance));

  Instance broken(schema);
  broken.AddFact(0, {0});
  broken.AddFact(1, {2, 1});  // S doesn't start at an R element.
  broken.AddFact(2, {1});
  EXPECT_FALSE(q.EvaluateBool(broken));
}

TEST(ConjunctiveQueryTest, ConstantsInAtoms) {
  Schema schema = MakeRst();
  Instance instance(schema);
  instance.AddFact(1, {3, 4});
  ConjunctiveQuery q;
  q.AddAtom(1, {Term::C(3), Term::V(0)});
  EXPECT_TRUE(q.EvaluateBool(instance));
  ConjunctiveQuery q2;
  q2.AddAtom(1, {Term::C(5), Term::V(0)});
  EXPECT_FALSE(q2.EvaluateBool(instance));
}

TEST(ConjunctiveQueryTest, SelfJoinVariables) {
  Schema schema = MakeRst();
  Instance instance(schema);
  instance.AddFact(1, {0, 0});
  ConjunctiveQuery loop;
  loop.AddAtom(1, {Term::V(0), Term::V(0)});
  EXPECT_TRUE(loop.EvaluateBool(instance));
  Instance no_loop(schema);
  no_loop.AddFact(1, {0, 1});
  EXPECT_FALSE(loop.EvaluateBool(no_loop));
}

TEST(ConjunctiveQueryTest, UcqSemantics) {
  Schema schema = MakeRst();
  Instance instance(schema);
  instance.AddFact(2, {9});
  ConjunctiveQuery wants_r;
  wants_r.AddAtom(0, {Term::V(0)});
  ConjunctiveQuery wants_t;
  wants_t.AddAtom(2, {Term::V(0)});
  UnionOfConjunctiveQueries ucq({wants_r, wants_t});
  EXPECT_TRUE(ucq.EvaluateBool(instance));
  UnionOfConjunctiveQueries just_r({wants_r});
  EXPECT_FALSE(just_r.EvaluateBool(instance));
}

TEST(ConjunctiveQueryTest, ToString) {
  Schema schema = MakeRst();
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  EXPECT_EQ(q.ToString(schema), "∃ x0,x1: R(x0) ∧ S(x0,x1) ∧ T(x1)");
}

// ---------------------------------------------------------------------------
// Lineage correctness: for every valuation, the lineage gate equals the
// naive evaluation of the query on the selected world. This is the
// defining property of lineage (§2.2).
// ---------------------------------------------------------------------------

// Random TID over a path-shaped domain (treewidth 1 Gaifman graph), RST
// schema.
TidInstance RandomPathTid(Rng& rng, uint32_t domain) {
  TidInstance tid(MakeRst());
  for (Value v = 0; v < domain; ++v) {
    if (rng.Bernoulli(0.7)) {
      tid.AddFact(0, {v}, 0.2 + 0.6 * rng.UniformDouble());
    }
    if (rng.Bernoulli(0.7)) {
      tid.AddFact(2, {v}, 0.2 + 0.6 * rng.UniformDouble());
    }
    if (v + 1 < domain && rng.Bernoulli(0.8)) {
      tid.AddFact(1, {v, v + 1}, 0.2 + 0.6 * rng.UniformDouble());
    }
  }
  return tid;
}

class LineagePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LineagePropertyTest, LineageAgreesWithPerWorldEvaluation) {
  Rng rng(GetParam());
  TidInstance tid = RandomPathTid(rng, 5);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  ASSERT_LE(num_events, 14u);

  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  LineageStats stats;
  GateId lineage = ComputeCqLineage(q, pcc, &stats);
  EXPECT_GT(stats.num_nice_nodes, 0u);

  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    Instance world = pcc.World(v);
    EXPECT_EQ(pcc.circuit().Evaluate(lineage, v), q.EvaluateBool(world))
        << "mask=" << mask;
  }
}

TEST_P(LineagePropertyTest, SelfJoinAndConstantLineage) {
  Rng rng(GetParam() + 400);
  TidInstance tid = RandomPathTid(rng, 4);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  ASSERT_LE(num_events, 14u);

  // q: ∃x S(x, x+?) with constant end point 2 — S(x, #2).
  ConjunctiveQuery q;
  q.AddAtom(1, {Term::V(0), Term::C(2)});
  GateId lineage = ComputeCqLineage(q, pcc);
  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    EXPECT_EQ(pcc.circuit().Evaluate(lineage, v),
              q.EvaluateBool(pcc.World(v)))
        << "mask=" << mask;
  }
}

TEST_P(LineagePropertyTest, UcqLineage) {
  Rng rng(GetParam() + 800);
  TidInstance tid = RandomPathTid(rng, 4);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  ASSERT_LE(num_events, 14u);

  ConjunctiveQuery r_then_s;
  r_then_s.AddAtom(0, {Term::V(0)});
  r_then_s.AddAtom(1, {Term::V(0), Term::V(1)});
  ConjunctiveQuery lonely_t;
  lonely_t.AddAtom(2, {Term::V(0)});
  UnionOfConjunctiveQueries ucq({r_then_s, lonely_t});

  GateId lineage = ComputeUcqLineage(ucq, pcc);
  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    EXPECT_EQ(pcc.circuit().Evaluate(lineage, v),
              ucq.EvaluateBool(pcc.World(v)))
        << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineagePropertyTest, ::testing::Range(0, 15));

// Theorem 1 end-to-end on the paper's hard query: exact probability via
// lineage + message passing matches brute-force possible-world
// enumeration.
TEST(Theorem1Test, RstProbabilityMatchesEnumeration) {
  Rng rng(42);
  TidInstance tid = RandomPathTid(rng, 5);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);

  double exact = ExhaustiveEngine().Estimate(pcc.circuit(), lineage,
                                             pcc.events()).value;
  double mp = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value;
  EXPECT_NEAR(mp, exact, 1e-9);
}

// Theorem 2: correlated annotations through a shared circuit. Two S
// facts share one event; the lineage must reflect the correlation.
TEST(Theorem2Test, CorrelatedAnnotationsHandled) {
  PccInstance pcc(MakeRst());
  EventId shared = pcc.events().Register("shared", 0.5);
  EventId solo = pcc.events().Register("solo", 0.5);
  GateId g_shared = pcc.circuit().AddVar(shared);
  GateId g_both = pcc.circuit().AddAnd(g_shared, pcc.circuit().AddVar(solo));
  pcc.AddFact(0, {0}, g_shared);       // R(a) iff shared.
  pcc.AddFact(1, {0, 1}, g_shared);    // S(a,b) iff shared.
  pcc.AddFact(2, {1}, g_both);         // T(b) iff shared & solo.

  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);
  // Query holds iff shared & solo: P = 0.25.
  double p = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                           pcc.events()).value;
  EXPECT_NEAR(p, 0.25, 1e-12);
  for (uint64_t mask = 0; mask < 4; ++mask) {
    Valuation v = Valuation::FromMask(mask, 2);
    EXPECT_EQ(pcc.circuit().Evaluate(lineage, v),
              q.EvaluateBool(pcc.World(v)));
  }
}

TEST(LineageTest, EmptyInstanceGivesFalse) {
  PccInstance pcc(MakeRst());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);
  EXPECT_EQ(pcc.circuit().kind(lineage), GateKind::kConst);
  EXPECT_FALSE(pcc.circuit().const_value(lineage));
}

TEST(LineageTest, CertainFactsGiveConstantTrueLineage) {
  PccInstance pcc(MakeRst());
  GateId always = pcc.circuit().AddConst(true);
  pcc.AddFact(0, {0}, always);
  pcc.AddFact(1, {0, 1}, always);
  pcc.AddFact(2, {1}, always);
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);
  Valuation v(0);
  EXPECT_TRUE(pcc.circuit().Evaluate(lineage, v));
}

TEST(LineageTest, StatsReportBoundedStates) {
  Rng rng(7);
  TidInstance tid = RandomPathTid(rng, 30);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  LineageStats stats;
  ComputeCqLineage(q, pcc, &stats);
  // Path-shaped instance: decomposition width 1; the per-node state
  // count is bounded by a constant independent of n.
  EXPECT_LE(stats.decomposition_width, 1);
  EXPECT_LE(stats.max_states_per_node, 200u);
}

TEST(LineageDeathTest, RejectsUnboundQueryVariable) {
  PccInstance pcc(MakeRst());
  pcc.AddFact(0, {0}, pcc.circuit().AddConst(true));
  ConjunctiveQuery q;
  q.AddAtom(0, {Term::V(1)});  // Variable 0 never occurs.
  EXPECT_DEATH(ComputeCqLineage(q, pcc), "occurs in no atom");
}


TEST(QueryParserTest, ParsesAtomsVariablesAndConstants) {
  Schema schema = MakeRst();
  Dictionary dict;
  Value a = dict.Intern("a");
  auto q = ParseConjunctiveQuery("R(X), S(X, Y), T(Y)", schema, dict);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumAtoms(), 3u);
  EXPECT_EQ(q->NumVars(), 2u);
  EXPECT_EQ(q->atom(1).terms[0], Term::V(0));
  EXPECT_EQ(q->atom(1).terms[1], Term::V(1));

  auto q2 = ParseConjunctiveQuery("S(a, Who)", schema, dict);
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q2->atom(0).terms[0], Term::C(a));
  EXPECT_EQ(q2->atom(0).terms[1], Term::V(0));

  // '?'-prefixed names are variables regardless of case.
  auto q3 = ParseConjunctiveQuery("S(?x, ?x)", schema, dict);
  ASSERT_TRUE(q3.has_value());
  EXPECT_EQ(q3->NumVars(), 1u);
}

TEST(QueryParserTest, ParsedQueryEvaluatesLikeHandBuilt) {
  Schema schema = MakeRst();
  Dictionary dict;
  auto parsed = ParseConjunctiveQuery("R(X), S(X, Y), T(Y)", schema, dict);
  ASSERT_TRUE(parsed.has_value());
  ConjunctiveQuery built = ConjunctiveQuery::RstPath(0, 1, 2);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    TidInstance tid = RandomPathTid(rng, 5);
    // Compare on the support instance.
    EXPECT_EQ(parsed->EvaluateBool(tid.instance()),
              built.EvaluateBool(tid.instance()));
  }
}

TEST(QueryParserTest, RejectsMalformedInput) {
  Schema schema = MakeRst();
  Dictionary dict;
  EXPECT_FALSE(ParseConjunctiveQuery("", schema, dict).has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("Q(X)", schema, dict).has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("R(X", schema, dict).has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("R(X,Y)", schema, dict).has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("R(X),", schema, dict).has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("R(X) S(X,Y)", schema, dict)
                   .has_value());
  EXPECT_FALSE(ParseConjunctiveQuery("R()", schema, dict).has_value());
}

}  // namespace
}  // namespace tud

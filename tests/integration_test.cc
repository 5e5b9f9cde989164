// End-to-end integration tests chaining multiple subsystems, mirroring
// the workflows the paper's introduction motivates: extract uncertain
// facts, enrich with soft rules, query with lineage, condition on
// observations, and reason about provenance — checking every step
// against independent brute-force computation.

#include <cmath>

#include "gtest/gtest.h"
#include "inference/conditioning.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "inference/possibility.h"
#include "queries/answers.h"
#include "queries/lineage.h"
#include "queries/query_parser.h"
#include "queries/reachability.h"
#include "rules/chase.h"
#include "semiring/provenance_eval.h"
#include "semiring/semiring.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/worlds.h"
#include "util/rng.h"

namespace tud {
namespace {

// Pipeline 1: extraction -> soft rules -> query -> conditioning.
TEST(IntegrationTest, ExtractChaseQueryCondition) {
  Schema schema;
  RelationId lives = schema.AddRelation("LivesIn", 2);
  RelationId cityin = schema.AddRelation("CityIn", 2);
  RelationId resides = schema.AddRelation("ResidesIn", 2);

  Dictionary dict;
  Value ann = dict.Intern("ann");
  Value lyon = dict.Intern("lyon");
  Value france = dict.Intern("france");

  // Two independently extracted facts, each 70% reliable.
  CInstance kb(schema);
  EventId x1 = kb.events().Register("extract1", 0.7);
  EventId x2 = kb.events().Register("extract2", 0.7);
  kb.AddFact(lives, {ann, lyon}, BoolFormula::Var(x1));
  kb.AddFact(cityin, {lyon, france}, BoolFormula::Var(x2));

  // Soft rule: LivesIn + CityIn -> ResidesIn @ 0.8.
  Rule rule = MakeRule(
      "residence",
      {{lives, {Term::V(0), Term::V(1)}}, {cityin, {Term::V(1), Term::V(2)}}},
      {{resides, {Term::V(0), Term::V(2)}}}, 0.8);
  ChaseResult chased = ProbabilisticChase(kb, {rule}, dict);
  ASSERT_EQ(chased.num_firings, 1u);

  // Query the chased instance: ∃c ResidesIn(ann, c).
  PccInstance pcc = PccInstance::FromCInstance(chased.instance);
  auto query = ParseConjunctiveQuery("ResidesIn(ann, Where)", schema, dict);
  ASSERT_TRUE(query.has_value());
  GateId lineage = ComputeCqLineage(*query, pcc);
  double p = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                           pcc.events()).value;
  EXPECT_NEAR(p, 0.7 * 0.7 * 0.8, 1e-12);

  // Condition on a curator confirming extraction 1.
  double p_given = JunctionTreeEngine()
                       .Estimate(pcc.circuit(), lineage, pcc.events(),
                                 {{x1, true}})
                       .value;
  EXPECT_NEAR(p_given, 0.7 * 0.8, 1e-12);

  // And the ratio definition agrees.
  GateId obs = pcc.circuit().AddVar(x1);
  EngineResult ratio =
      ConditionalProbability(pcc.circuit(), lineage, obs, pcc.events());
  ASSERT_TRUE(ratio.ok());
  EXPECT_NEAR(ratio.value, p_given, 1e-12);
}

// Pipeline 2: lineage of answers feeds provenance, possibility and
// sampling, all consistent with world enumeration.
TEST(IntegrationTest, AnswersProvenanceAndSampling) {
  Schema schema;
  RelationId e = schema.AddRelation("E", 2);
  Dictionary dict;
  (void)dict;

  PccInstance pcc(schema);
  EventId ea = pcc.events().Register("a", 0.6);
  EventId eb = pcc.events().Register("b", 0.5);
  EventId ec = pcc.events().Register("c", 0.4);
  pcc.AddFact(e, {0, 1}, pcc.circuit().AddVar(ea));
  pcc.AddFact(e, {1, 2}, pcc.circuit().AddVar(eb));
  pcc.AddFact(e, {0, 2}, pcc.circuit().AddVar(ec));

  // Answers of E(0, X).
  ConjunctiveQuery q;
  q.AddAtom(e, {Term::C(0), Term::V(0)});
  auto answers = ComputeAnswerLineages(q, {0}, pcc);
  ASSERT_EQ(answers.size(), 2u);

  for (const AnswerLineage& answer : answers) {
    // Probability by three routes.
    double mp = JunctionTreeEngine().Estimate(pcc.circuit(), answer.lineage,
                                              pcc.events()).value;
    double ex = ExhaustiveEngine().Estimate(pcc.circuit(), answer.lineage,
                                            pcc.events()).value;
    EXPECT_NEAR(mp, ex, 1e-12);
    SamplingEngine sampler(/*num_samples=*/20000, /*seed=*/3);
    double sampled =
        sampler.Estimate(pcc.circuit(), answer.lineage, pcc.events()).value;
    EXPECT_NEAR(sampled, ex, 0.02);
    EXPECT_TRUE(IsSatisfiable(pcc.circuit(), answer.lineage));
    EXPECT_FALSE(IsValid(pcc.circuit(), answer.lineage));
  }

  // Reachability 0 -> 2 combines the three edges; check why-provenance.
  GateId reach = ComputeReachabilityLineage(pcc, e, 0, 2);
  auto why = EvalMonotoneCircuit<WhySemiring>(
      pcc.circuit(), reach,
      [](EventId ev) { return WhySemiring::Value{{ev}}; });
  WhySemiring::Value expected = {{ea, eb}, {ec}};
  EXPECT_EQ(why, expected);
  double p_reach =
      JunctionTreeEngine().Estimate(pcc.circuit(), reach, pcc.events()).value;
  EXPECT_NEAR(p_reach, 1 - (1 - 0.6 * 0.5) * (1 - 0.4), 1e-12);
}

// Pipeline 3: the same random instance queried through every exact
// engine and through the UCQ, answer, and reachability paths, under a
// common enumeration oracle.
class GrandCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(GrandCrossCheckTest, AllEnginesAgreeOnRandomInstances) {
  Rng rng(GetParam());
  Schema schema;
  RelationId r = schema.AddRelation("R", 1);
  RelationId s = schema.AddRelation("S", 2);
  RelationId t = schema.AddRelation("T", 1);

  CInstance ci(schema);
  const uint32_t domain = 4;
  for (Value v = 0; v < domain; ++v) {
    if (rng.Bernoulli(0.7)) {
      EventId ev = ci.events().RegisterAnonymous(0.3 + 0.5 * rng.UniformDouble());
      ci.AddFact(r, {v}, BoolFormula::Var(ev));
    }
    if (rng.Bernoulli(0.7)) {
      EventId ev = ci.events().RegisterAnonymous(0.3 + 0.5 * rng.UniformDouble());
      ci.AddFact(t, {v}, BoolFormula::Var(ev));
    }
    if (v + 1 < domain) {
      // Correlated pair of edges sharing one event.
      EventId ev = ci.events().RegisterAnonymous(0.3 + 0.5 * rng.UniformDouble());
      ci.AddFact(s, {v, v + 1},
                 rng.Bernoulli(0.5)
                     ? BoolFormula::Var(ev)
                     : BoolFormula::Not(BoolFormula::Var(ev)));
    }
  }
  if (ci.events().size() > 12) GTEST_SKIP();

  PccInstance pcc = PccInstance::FromCInstance(ci);
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(r, s, t);
  GateId lineage = ComputeCqLineage(q, pcc);

  double oracle = ProbabilityByEnumeration(
      pcc.events(),
      [&](const Valuation& v) { return q.EvaluateBool(pcc.World(v)); });
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value,
              oracle, 1e-9);
  EXPECT_NEAR(ExhaustiveEngine().Estimate(pcc.circuit(), lineage,
                                          pcc.events()).value,
              oracle, 1e-9);
  EXPECT_EQ(IsSatisfiable(pcc.circuit(), lineage), oracle > 1e-15);

  // Reachability over S read as edges: oracle again by enumeration.
  GateId reach = ComputeReachabilityLineage(pcc, s, 0, domain - 1);
  double reach_oracle = ProbabilityByEnumeration(
      pcc.events(), [&](const Valuation& v) {
        return EvaluateReachability(pcc.World(v), s, 0, domain - 1);
      });
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), reach,
                                            pcc.events()).value,
              reach_oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrandCrossCheckTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace tud

#include "gtest/gtest.h"
#include "inference/junction_tree.h"
#include "rules/chase.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/worlds.h"

namespace tud {
namespace {

// Schema: Cityin(city, country), Livesin(person, city), Residesin(person,
// country), Knows(person, person).
Schema MakeKbSchema() {
  Schema schema;
  schema.AddRelation("CityIn", 2);
  schema.AddRelation("LivesIn", 2);
  schema.AddRelation("ResidesIn", 2);
  schema.AddRelation("Knows", 2);
  return schema;
}

// Probability that `fact` holds in the chased pc-instance.
double FactProbability(const CInstance& ci, const Fact& fact) {
  for (FactId f = 0; f < ci.NumFacts(); ++f) {
    if (ci.instance().fact(f) == fact) {
      BoolCircuit c;
      GateId g = c.AddFormula(ci.annotation(f));
      return JunctionTreeEngine().Estimate(c, g, ci.events()).value;
    }
  }
  return 0.0;
}

TEST(ChaseTest, HardRuleComputesClosure) {
  // Hard rule: LivesIn(p, c) & CityIn(c, k) -> ResidesIn(p, k).
  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value paris = dict.Intern("paris");
  Value france = dict.Intern("france");
  CInstance base(MakeKbSchema());
  base.AddFact(1, {alice, paris}, BoolFormula::True());
  base.AddFact(0, {paris, france}, BoolFormula::True());

  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 1.0);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  EXPECT_EQ(result.num_firings, 1u);
  EXPECT_TRUE(result.instance.instance().Contains(Fact{2, {alice, france}}));
  EXPECT_NEAR(FactProbability(result.instance, Fact{2, {alice, france}}),
              1.0, 1e-12);
}

TEST(ChaseTest, SoftRuleDerivesWithRuleProbability) {
  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value paris = dict.Intern("paris");
  Value france = dict.Intern("france");
  CInstance base(MakeKbSchema());
  base.AddFact(1, {alice, paris}, BoolFormula::True());
  base.AddFact(0, {paris, france}, BoolFormula::True());

  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 0.8);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  EXPECT_NEAR(FactProbability(result.instance, Fact{2, {alice, france}}),
              0.8, 1e-12);
}

TEST(ChaseTest, UncertainBodyPropagatesLineage) {
  // The body fact is itself uncertain: derived probability is
  // P(body) * P(rule fires).
  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value paris = dict.Intern("paris");
  Value france = dict.Intern("france");
  CInstance base(MakeKbSchema());
  EventId extraction = base.events().Register("extraction_ok", 0.5);
  base.AddFact(1, {alice, paris}, BoolFormula::Var(extraction));
  base.AddFact(0, {paris, france}, BoolFormula::True());

  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 0.8);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  EXPECT_NEAR(FactProbability(result.instance, Fact{2, {alice, france}}),
              0.4, 1e-12);
}

TEST(ChaseTest, MultipleDerivationsCombineAsNoisyOr) {
  // Alice lives in two cities of the same country: two independent
  // derivations, P = 1 - (1 - p)^2.
  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value paris = dict.Intern("paris");
  Value lyon = dict.Intern("lyon");
  Value france = dict.Intern("france");
  CInstance base(MakeKbSchema());
  base.AddFact(1, {alice, paris}, BoolFormula::True());
  base.AddFact(1, {alice, lyon}, BoolFormula::True());
  base.AddFact(0, {paris, france}, BoolFormula::True());
  base.AddFact(0, {lyon, france}, BoolFormula::True());

  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 0.8);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  EXPECT_EQ(result.num_firings, 2u);
  EXPECT_NEAR(FactProbability(result.instance, Fact{2, {alice, france}}),
              1.0 - 0.2 * 0.2, 1e-12);
}

TEST(ChaseTest, ExistentialRuleInventsNulls) {
  // Knows(p, q) -> ∃z Knows(q, z): advisor-style existential head.
  Dictionary dict;
  Value a = dict.Intern("a");
  Value b = dict.Intern("b");
  CInstance base(MakeKbSchema());
  base.AddFact(3, {a, b}, BoolFormula::True());

  Rule rule = MakeRule("invent", {{3, {Term::V(0), Term::V(1)}}},
                       {{3, {Term::V(1), Term::V(2)}}}, 1.0);
  ChaseOptions options;
  options.max_rounds = 2;
  ChaseResult result = ProbabilisticChase(base, {rule}, dict, options);
  // Round 1: Knows(b, _null0); round 2: Knows(_null0, _null1).
  EXPECT_GE(result.num_firings, 2u);
  EXPECT_TRUE(dict.Find("_null0").has_value());
  Value null0 = *dict.Find("_null0");
  EXPECT_TRUE(result.instance.instance().Contains(Fact{3, {b, null0}}));
}

TEST(ChaseTest, ChainedDerivationsMultiplyProbabilities) {
  // p -- soft rule --> q -- soft rule --> r with independent firings.
  Schema schema;
  schema.AddRelation("P", 1);
  schema.AddRelation("Q", 1);
  schema.AddRelation("R", 1);
  Dictionary dict;
  Value x = dict.Intern("x");
  CInstance base(schema);
  base.AddFact(0, {x}, BoolFormula::True());

  Rule r1 = MakeRule("pq", {{0, {Term::V(0)}}}, {{1, {Term::V(0)}}}, 0.5);
  Rule r2 = MakeRule("qr", {{1, {Term::V(0)}}}, {{2, {Term::V(0)}}}, 0.5);
  ChaseResult result = ProbabilisticChase(base, {r1, r2}, dict);
  EXPECT_NEAR(FactProbability(result.instance, Fact{1, {x}}), 0.5, 1e-12);
  EXPECT_NEAR(FactProbability(result.instance, Fact{2, {x}}), 0.25, 1e-12);
}

TEST(ChaseTest, RoundBoundTruncatesRecursion) {
  Schema schema;
  schema.AddRelation("E", 2);
  Dictionary dict;
  Value a = dict.Intern("a");
  CInstance base(schema);
  base.AddFact(0, {a, a}, BoolFormula::True());

  // E(x,y) -> ∃z E(y,z): infinite chase, truncated.
  Rule rule = MakeRule("step", {{0, {Term::V(0), Term::V(1)}}},
                       {{0, {Term::V(1), Term::V(2)}}}, 0.9);
  ChaseOptions options;
  options.max_rounds = 4;
  ChaseResult result = ProbabilisticChase(base, {rule}, dict, options);
  EXPECT_EQ(result.rounds_run, 4u);
  EXPECT_EQ(result.num_firings, 4u);  // One new frontier fact per round.
}

TEST(ChaseTest, FactCapStopsCleanly) {
  Schema schema;
  schema.AddRelation("E", 2);
  Dictionary dict;
  Value a = dict.Intern("a");
  CInstance base(schema);
  base.AddFact(0, {a, a}, BoolFormula::True());
  Rule rule = MakeRule("step", {{0, {Term::V(0), Term::V(1)}}},
                       {{0, {Term::V(1), Term::V(2)}}}, 0.9);
  ChaseOptions options;
  options.max_rounds = 100;
  options.max_facts = 5;
  ChaseResult result = ProbabilisticChase(base, {rule}, dict, options);
  EXPECT_TRUE(result.hit_fact_cap);
  EXPECT_LE(result.instance.NumFacts(), 6u);
}

TEST(ChaseTest, NoMatchingBodyNoFiring) {
  Dictionary dict;
  CInstance base(MakeKbSchema());
  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 0.8);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  EXPECT_EQ(result.num_firings, 0u);
  EXPECT_EQ(result.instance.NumFacts(), 0u);
}

TEST(ChaseTest, WorldSemanticsOfChasedInstance) {
  // Cross-check the chased annotations against direct possible-world
  // reasoning: in each world, derived facts hold iff their derivation
  // events and body facts do.
  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value paris = dict.Intern("paris");
  Value france = dict.Intern("france");
  CInstance base(MakeKbSchema());
  EventId src = base.events().Register("src", 0.5);
  base.AddFact(1, {alice, paris}, BoolFormula::Var(src));
  base.AddFact(0, {paris, france}, BoolFormula::True());
  Rule rule = MakeRule(
      "residence",
      {{1, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{2, {Term::V(0), Term::V(2)}}}, 0.5);
  ChaseResult result = ProbabilisticChase(base, {rule}, dict);
  const CInstance& chased = result.instance;
  ASSERT_EQ(chased.events().size(), 2u);  // src + one firing event.
  ForEachWorld(chased.events(), [&](const Valuation& v, double p) {
    (void)p;
    Instance world = chased.World(v);
    bool body = v.value(0);
    bool fires = v.value(1);
    EXPECT_EQ(world.Contains(Fact{2, {alice, france}}), body && fires);
  });
}

}  // namespace
}  // namespace tud

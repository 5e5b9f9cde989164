#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "inference/junction_tree.h"
#include "inference/possibility.h"
#include "queries/answers.h"
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

TEST(EvaluateAnswersTest, FreeVariableProjection) {
  Instance instance(MakeRst());
  instance.AddFact(1, {0, 1});
  instance.AddFact(1, {0, 2});
  instance.AddFact(1, {3, 4});
  ConjunctiveQuery q;
  q.AddAtom(1, {Term::V(0), Term::V(1)});
  // Answers over the first column.
  EXPECT_EQ(EvaluateAnswers(q, {0}, instance),
            (std::set<std::vector<Value>>{{0}, {3}}));
  // Both columns.
  EXPECT_EQ(EvaluateAnswers(q, {0, 1}, instance),
            (std::set<std::vector<Value>>{{0, 1}, {0, 2}, {3, 4}}));
  // Boolean projection: empty tuple iff nonempty.
  EXPECT_EQ(EvaluateAnswers(q, {}, instance),
            (std::set<std::vector<Value>>{{}}));
}

TEST(BindVariablesTest, SubstitutesConstants) {
  ConjunctiveQuery q;
  q.AddAtom(1, {Term::V(0), Term::V(1)});
  q.AddAtom(0, {Term::V(0)});
  ConjunctiveQuery bound = BindVariables(q, {0}, {7});
  EXPECT_EQ(bound.atom(0).terms[0], Term::C(7));
  EXPECT_EQ(bound.atom(0).terms[1], Term::V(1));
  EXPECT_EQ(bound.atom(1).terms[0], Term::C(7));
}

TEST(AnswerLineagesTest, PerAnswerProbabilities) {
  // S(a, x) with a uncertain per edge: answers are the endpoints, each
  // with its own edge's probability.
  TidInstance tid(MakeRst());
  tid.AddFact(1, {0, 1}, 0.3);
  tid.AddFact(1, {0, 2}, 0.6);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q;
  q.AddAtom(1, {Term::C(0), Term::V(0)});
  auto answers = ComputeAnswerLineages(q, {0}, pcc);
  ASSERT_EQ(answers.size(), 2u);
  for (const AnswerLineage& a : answers) {
    double p =
        JunctionTreeEngine().Estimate(pcc.circuit(), a.lineage,
                                      pcc.events()).value;
    if (a.tuple == std::vector<Value>{1}) {
      EXPECT_NEAR(p, 0.3, 1e-12);
    } else {
      EXPECT_EQ(a.tuple, (std::vector<Value>{2}));
      EXPECT_NEAR(p, 0.6, 1e-12);
    }
  }
}

TEST(AnswerLineagesTest, PossibleAndCertainAnswers) {
  PccInstance pcc(MakeRst());
  GateId certain = pcc.circuit().AddConst(true);
  EventId e = pcc.events().Register("e", 0.5);
  GateId maybe = pcc.circuit().AddVar(e);
  GateId never = pcc.circuit().AddAnd(maybe, pcc.circuit().AddNot(maybe));
  pcc.AddFact(0, {0}, certain);
  pcc.AddFact(0, {1}, maybe);
  pcc.AddFact(0, {2}, never);
  ConjunctiveQuery q;
  q.AddAtom(0, {Term::V(0)});
  auto answers = ComputeAnswerLineages(q, {0}, pcc);
  // All three support answers are returned ('never' has a
  // non-constant but unsatisfiable gate: contradiction detection is the
  // job of IsSatisfiable, not of structural folding).
  ASSERT_EQ(answers.size(), 3u);
  for (const AnswerLineage& a : answers) {
    bool possible = IsSatisfiable(pcc.circuit(), a.lineage);
    EXPECT_EQ(possible, a.tuple != std::vector<Value>{2}) << a.tuple[0];
    bool is_certain = IsValid(pcc.circuit(), a.lineage);
    EXPECT_EQ(is_certain, a.tuple == std::vector<Value>{0}) << a.tuple[0];
  }
}

// Property: per-world, the answers of the world equal the tuples whose
// lineage is true.
class AnswerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AnswerPropertyTest, LineageMatchesPerWorldAnswers) {
  Rng rng(GetParam());
  TidInstance tid(MakeRst());
  const uint32_t n = 4;
  for (Value v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.8)) tid.AddFact(0, {v}, 0.5);
    if (rng.Bernoulli(0.8)) tid.AddFact(2, {v}, 0.5);
    if (v + 1 < n && rng.Bernoulli(0.9)) tid.AddFact(1, {v, v + 1}, 0.5);
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  ASSERT_LE(num_events, 13u);

  // q(x) = R(x) ∧ S(x, y): answers are R-elements with an outgoing S.
  ConjunctiveQuery q;
  q.AddAtom(0, {Term::V(0)});
  q.AddAtom(1, {Term::V(0), Term::V(1)});
  auto answers = ComputeAnswerLineages(q, {0}, pcc);

  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    std::set<std::vector<Value>> world_answers =
        EvaluateAnswers(q, {0}, pcc.World(v));
    std::set<std::vector<Value>> lineage_answers;
    for (const AnswerLineage& a : answers) {
      if (pcc.circuit().Evaluate(a.lineage, v)) {
        lineage_answers.insert(a.tuple);
      }
    }
    EXPECT_EQ(lineage_answers, world_answers) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerPropertyTest, ::testing::Range(0, 12));

TEST(PossibilityTest, SatisfiabilityAndValidity) {
  BoolCircuit c;
  GateId a = c.AddVar(0);
  GateId b = c.AddVar(1);
  EXPECT_TRUE(IsSatisfiable(c, c.AddAnd(a, b)));
  EXPECT_FALSE(IsValid(c, c.AddAnd(a, b)));
  EXPECT_TRUE(IsValid(c, c.AddOr(a, c.AddNot(a))));
  EXPECT_FALSE(IsSatisfiable(c, c.AddAnd(a, c.AddNot(a))));
  EXPECT_TRUE(IsValid(c, c.AddConst(true)));
  EXPECT_FALSE(IsSatisfiable(c, c.AddConst(false)));
}

TEST(PossibilityTest, AgreesWithProbabilityBounds) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    BoolCircuit c;
    EventRegistry registry;
    std::vector<GateId> pool;
    for (EventId e = 0; e < 5; ++e) {
      registry.Register("e" + std::to_string(e), 0.5);
      pool.push_back(c.AddVar(e));
    }
    for (int i = 0; i < 15; ++i) {
      GateId x = pool[rng.UniformInt(pool.size())];
      GateId y = pool[rng.UniformInt(pool.size())];
      switch (rng.UniformInt(3)) {
        case 0:
          pool.push_back(c.AddNot(x));
          break;
        case 1:
          pool.push_back(c.AddAnd(x, y));
          break;
        default:
          pool.push_back(c.AddOr(x, y));
      }
    }
    GateId root = pool.back();
    double p = JunctionTreeEngine().Estimate(c, root, registry).value;
    EXPECT_EQ(IsSatisfiable(c, root), p > 0.0);
    EXPECT_EQ(IsValid(c, root), p == 1.0);
  }
}

}  // namespace
}  // namespace tud

#include <cmath>

#include "bdd/bdd.h"
#include "circuits/bool_circuit.h"
#include "gtest/gtest.h"
#include "inference/conditioning.h"
#include "inference/crowd.h"
#include "inference/engine.h"
#include "inference/hybrid.h"
#include "inference/junction_tree.h"
#include "util/rng.h"

namespace tud {
namespace {

BoolCircuit RandomCircuit(Rng& rng, uint32_t num_events, uint32_t num_gates,
                          GateId* root) {
  BoolCircuit c;
  std::vector<GateId> pool;
  for (EventId e = 0; e < num_events; ++e) pool.push_back(c.AddVar(e));
  for (uint32_t i = 0; i < num_gates; ++i) {
    GateId a = pool[rng.UniformInt(pool.size())];
    GateId b = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0:
        pool.push_back(c.AddNot(a));
        break;
      case 1:
        pool.push_back(c.AddAnd(a, b));
        break;
      default:
        pool.push_back(c.AddOr(a, b));
        break;
    }
  }
  *root = pool.back();
  return c;
}

EventRegistry RandomRegistry(Rng& rng, uint32_t num_events) {
  EventRegistry registry;
  for (uint32_t i = 0; i < num_events; ++i) {
    registry.Register("e" + std::to_string(i),
                      0.05 + 0.9 * rng.UniformDouble());
  }
  return registry;
}

TEST(ExhaustiveTest, SimpleCircuits) {
  EventRegistry registry;
  registry.Register("a", 0.5);
  registry.Register("b", 0.25);
  BoolCircuit c;
  GateId a = c.AddVar(0);
  GateId b = c.AddVar(1);
  EXPECT_NEAR(ExhaustiveEngine().Estimate(c, c.AddAnd(a, b), registry).value,
              0.125, 1e-12);
  EXPECT_NEAR(ExhaustiveEngine().Estimate(c, c.AddOr(a, b), registry).value,
              0.625, 1e-12);
  EXPECT_NEAR(ExhaustiveEngine().Estimate(c, c.AddConst(true), registry).value,
              1.0, 1e-12);
  EXPECT_NEAR(ExhaustiveEngine().Estimate(c, c.AddConst(false), registry).value,
              0.0, 1e-12);
}

TEST(JunctionTreeTest, ConstantAndSingleVar) {
  EventRegistry registry;
  registry.Register("a", 0.3);
  BoolCircuit c;
  EXPECT_NEAR(JunctionTreeEngine().Estimate(c, c.AddConst(true),
                                            registry).value, 1.0,
              1e-12);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(c, c.AddVar(0), registry).value,
              0.3, 1e-12);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(c, c.AddNot(c.AddVar(0)),
                                            registry).value,
              0.7, 1e-12);
}

// The core cross-validation invariant: the three exact engines agree.
class ExactEnginesAgreeTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactEnginesAgreeTest, ExhaustiveVsJunctionTreeVsBdd) {
  Rng rng(GetParam());
  const uint32_t kEvents = 7;
  GateId root;
  BoolCircuit c = RandomCircuit(rng, kEvents, 35, &root);
  EventRegistry registry = RandomRegistry(rng, kEvents);

  double exhaustive = ExhaustiveEngine().Estimate(c, root, registry).value;
  double message_passing = JunctionTreeEngine().Estimate(c, root,
                                                         registry).value;
  EXPECT_NEAR(message_passing, exhaustive, 1e-9);

  BddManager mgr(kEvents);
  std::vector<uint32_t> levels(kEvents);
  std::vector<double> probs(kEvents);
  for (uint32_t i = 0; i < kEvents; ++i) {
    levels[i] = i;
    probs[i] = registry.probability(i);
  }
  double bdd = mgr.Wmc(mgr.FromCircuit(c, root, levels), probs);
  EXPECT_NEAR(bdd, exhaustive, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactEnginesAgreeTest,
                         ::testing::Range(0, 40));

TEST(JunctionTreeTest, StatsPopulated) {
  Rng rng(1);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 6, 20, &root);
  EventRegistry registry = RandomRegistry(rng, 6);
  const EngineStats stats =
      JunctionTreeEngine().Estimate(c, root, registry).stats;
  EXPECT_GE(stats.width, 0);
  EXPECT_GT(stats.num_bags, 0u);
  EXPECT_GT(stats.num_gates, 0u);
}

TEST(JunctionTreeTest, EvidencePinsEvents) {
  EventRegistry registry;
  registry.Register("a", 0.3);
  registry.Register("b", 0.6);
  BoolCircuit c;
  GateId g = c.AddAnd(c.AddVar(0), c.AddVar(1));
  // P(a & b | a=true) = P(b) = 0.6.
  EXPECT_NEAR(
      JunctionTreeEngine().Estimate(c, g, registry, {{0, true}}).value, 0.6,
      1e-12);
  EXPECT_NEAR(
      JunctionTreeEngine().Estimate(c, g, registry, {{0, false}}).value, 0.0,
      1e-12);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(c, g, registry,
                                            {{0, true}, {1, true}}).value,
              1.0, 1e-12);
}

TEST(SamplingTest, ConvergesOnSimpleCircuit) {
  EventRegistry registry;
  registry.Register("a", 0.4);
  registry.Register("b", 0.5);
  BoolCircuit c;
  GateId g = c.AddOr(c.AddVar(0), c.AddVar(1));
  SamplingEngine engine(/*num_samples=*/40000, /*seed=*/7);
  double estimate = engine.Estimate(c, g, registry).value;
  EXPECT_NEAR(estimate, 0.7, 0.02);
}

class SamplingConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplingConvergenceTest, WithinConfidenceBand) {
  Rng rng(GetParam() + 77);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 6, 25, &root);
  EventRegistry registry = RandomRegistry(rng, 6);
  double exact = ExhaustiveEngine().Estimate(c, root, registry).value;
  SamplingEngine engine(/*num_samples=*/20000, /*seed=*/GetParam());
  double estimate = engine.Estimate(c, root, registry).value;
  // 5 sigma band for Bernoulli(0.5) worst case.
  EXPECT_NEAR(estimate, exact, 5 * 0.5 / std::sqrt(20000.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingConvergenceTest,
                         ::testing::Range(0, 10));

TEST(ConditioningTest, ConditionalProbabilityDefinition) {
  EventRegistry registry;
  registry.Register("a", 0.5);
  registry.Register("b", 0.5);
  BoolCircuit c;
  GateId a = c.AddVar(0);
  GateId b = c.AddVar(1);
  GateId q = c.AddAnd(a, b);
  // P(a & b | a) = 0.5; P(a & b | a or b) = 0.25 / 0.75.
  EngineResult p1 = ConditionalProbability(c, q, a, registry);
  ASSERT_TRUE(p1.ok());
  EXPECT_NEAR(p1.value, 0.5, 1e-12);
  GateId obs = c.AddOr(a, b);
  EngineResult p2 = ConditionalProbability(c, q, obs, registry);
  ASSERT_TRUE(p2.ok());
  EXPECT_NEAR(p2.value, 0.25 / 0.75, 1e-12);
  // Conditioning on an impossible observation, or on an unknown gate.
  GateId never = c.AddAnd(a, c.AddNot(a));
  EXPECT_EQ(ConditionalProbability(c, q, never, registry).status,
            EngineStatus::kInvalidArgument);
  const GateId unknown = static_cast<GateId>(c.NumGates() + 1);
  EXPECT_EQ(ConditionalProbability(c, unknown, a, registry).status,
            EngineStatus::kInvalidArgument);
  EXPECT_EQ(ConditionalProbability(c, q, unknown, registry).status,
            EngineStatus::kInvalidArgument);
}

TEST(ConditioningTest, MaterialisedEventConditioningMatchesRatio) {
  // Condition the Table-1-style instance on pods=true two ways: by
  // materialisation and by ratio; world distributions must agree.
  Schema schema;
  schema.AddRelation("Trip", 2);
  CInstance ci(schema);
  EventId pods = ci.events().Register("pods", 0.3);
  EventId stoc = ci.events().Register("stoc", 0.8);
  ci.AddFact(0, {0, 1}, BoolFormula::Var(pods));
  ci.AddFact(0, {1, 2},
             BoolFormula::And(BoolFormula::Var(pods),
                              BoolFormula::Not(BoolFormula::Var(stoc))));
  CInstance conditioned = ConditionOnEventLiteral(ci, pods, true);
  EXPECT_DOUBLE_EQ(conditioned.events().probability(pods), 1.0);
  // Fact 0's annotation became constant true.
  EXPECT_TRUE(conditioned.IsCertain(0));
  // Fact 1 now depends only on stoc: P = 1 - 0.8.
  BoolCircuit c;
  GateId g = c.AddFormula(conditioned.annotation(1));
  EXPECT_NEAR(JunctionTreeEngine().Estimate(c, g, conditioned.events()).value,
              0.2, 1e-12);
}

TEST(ConditioningTest, SubstituteEventHandlesAllShapes) {
  EventRegistry registry;
  EventId a = registry.Register("a", 0.5);
  EventId b = registry.Register("b", 0.5);
  auto f = BoolFormula::Parse("(a & b) | !a", registry);
  ASSERT_TRUE(f.has_value());
  BoolFormula t = SubstituteEvent(*f, a, true);
  BoolFormula fl = SubstituteEvent(*f, a, false);
  for (uint64_t mask = 0; mask < 4; ++mask) {
    Valuation v = Valuation::FromMask(mask, 2);
    Valuation vt = v, vf = v;
    vt.set_value(a, true);
    vf.set_value(a, false);
    EXPECT_EQ(t.Evaluate(v), f->Evaluate(vt));
    EXPECT_EQ(fl.Evaluate(v), f->Evaluate(vf));
  }
  (void)b;
}

TEST(ConditioningTest, BinaryEntropy) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.5), 1.0);
  EXPECT_GT(BinaryEntropy(0.5), BinaryEntropy(0.1));
}

TEST(ConditioningTest, QuestionSelectionPrefersInformativeEvent) {
  // Query = a; candidate questions: a (fully informative) vs c
  // (irrelevant). Asking a must win.
  EventRegistry registry;
  EventId a = registry.Register("a", 0.5);
  EventId c_ev = registry.Register("c", 0.5);
  BoolCircuit c;
  GateId q = c.AddVar(a);
  QuestionChoice choice{};
  ASSERT_EQ(SelectBestQuestion(c, q, registry, {a, c_ev}, &choice),
            EngineStatus::kOk);
  EXPECT_EQ(choice.event, a);
  EXPECT_NEAR(choice.expected_entropy, 0.0, 1e-12);
  EXPECT_NEAR(choice.current_entropy, 1.0, 1e-12);
  EXPECT_EQ(SelectBestQuestion(c, q, registry, {}, &choice),
            EngineStatus::kInvalidArgument);
  EXPECT_EQ(SelectBestQuestion(c, q, registry,
                               {a, static_cast<EventId>(registry.size())},
                               &choice),
            EngineStatus::kInvalidArgument);
}

TEST(HybridTest, RestrictCircuitSubstitutesConstants) {
  BoolCircuit c;
  GateId a = c.AddVar(0);
  GateId b = c.AddVar(1);
  GateId g = c.AddOr(c.AddAnd(a, b), c.AddNot(a));
  std::vector<std::optional<bool>> fixed = {true, std::nullopt};
  auto [restricted, root] = RestrictCircuit(c, g, fixed);
  // With a = true, g reduces to b.
  for (bool bv : {false, true}) {
    Valuation v(2);
    v.set_value(1, bv);
    EXPECT_EQ(restricted.Evaluate(root, v), bv);
  }
}

TEST(HybridTest, ExactWhenCoreEmpty) {
  Rng rng(3);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 6, 20, &root);
  EventRegistry registry = RandomRegistry(rng, 6);
  EngineResult result = HybridEngine().EstimateWithCore(c, root, registry, {});
  EXPECT_NEAR(result.value,
              ExhaustiveEngine().Estimate(c, root, registry).value, 1e-9);
}

class HybridConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(HybridConvergenceTest, ConvergesWithSampledCore) {
  Rng rng(GetParam() + 11);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 8, 30, &root);
  EventRegistry registry = RandomRegistry(rng, 8);
  double exact = ExhaustiveEngine().Estimate(c, root, registry).value;
  HybridEngine engine(/*target_width=*/8, /*max_core=*/16,
                      /*num_samples=*/4000, /*seed=*/GetParam());
  EngineResult result = engine.EstimateWithCore(c, root, registry, {0, 1});
  EXPECT_NEAR(result.value, exact, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridConvergenceTest,
                         ::testing::Range(0, 8));

TEST(HybridTest, SelectCoreEventsReducesWidth) {
  // A "core + tentacles" circuit: a dense parity-ish core over a few
  // events feeding long independent chains.
  BoolCircuit c;
  std::vector<GateId> core_vars;
  for (EventId e = 0; e < 4; ++e) core_vars.push_back(c.AddVar(e));
  // Dense core: pairwise XORs all ANDed together.
  std::vector<GateId> parts;
  for (size_t i = 0; i < core_vars.size(); ++i) {
    for (size_t j = i + 1; j < core_vars.size(); ++j) {
      GateId x = core_vars[i], y = core_vars[j];
      parts.push_back(c.AddOr(c.AddAnd(x, c.AddNot(y)),
                              c.AddAnd(c.AddNot(x), y)));
    }
  }
  GateId core = c.AddAnd(parts);
  GateId chain = core;
  for (EventId e = 4; e < 14; ++e) {
    chain = c.AddOr(chain, c.AddVar(e));
  }
  std::vector<EventId> core_events = SelectCoreEvents(c, chain, 2, 8);
  // Conditioning should pick only core variables (the chain is thin).
  for (EventId e : core_events) EXPECT_LT(e, 4u);
}


TEST(CrowdTest, PosteriorUpdateFormula) {
  // Symmetric channel: prior 0.5, reliability 0.8, answer true:
  // posterior = 0.8*0.5 / (0.8*0.5 + 0.2*0.5) = 0.8.
  EXPECT_NEAR(UpdateEventPosterior(0.5, true, 0.8), 0.8, 1e-12);
  EXPECT_NEAR(UpdateEventPosterior(0.5, false, 0.8), 0.2, 1e-12);
  // A perfectly reliable answer pins the posterior.
  EXPECT_NEAR(UpdateEventPosterior(0.3, true, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(UpdateEventPosterior(0.3, false, 1.0), 0.0, 1e-12);
  // Contradictory answers cancel out.
  double p = 0.5;
  p = UpdateEventPosterior(p, true, 0.8);
  p = UpdateEventPosterior(p, false, 0.8);
  EXPECT_NEAR(p, 0.5, 1e-12);
  // Degenerate priors are absorbing.
  EXPECT_NEAR(UpdateEventPosterior(1.0, false, 0.8), 1.0 * 0.2 / 0.2,
              1e-12);
}

TEST(CrowdTest, RepeatedAsksConcentrateOnTruth) {
  EventRegistry registry;
  EventId e = registry.Register("claim", 0.5);
  Valuation truth(1);
  truth.set_value(e, true);
  NoisyOracle oracle(truth, 0.7, 42);
  double posterior = AskAndUpdate(registry, e, oracle, 60);
  EXPECT_GT(posterior, 0.95);
  EXPECT_EQ(registry.probability(e), posterior);
}

TEST(CrowdTest, UnreliableFalseTruthConverges) {
  EventRegistry registry;
  EventId e = registry.Register("claim", 0.7);  // Prior leans true.
  Valuation truth(1);
  truth.set_value(e, false);
  NoisyOracle oracle(truth, 0.8, 7);
  double posterior = AskAndUpdate(registry, e, oracle, 60);
  EXPECT_LT(posterior, 0.05);  // Evidence overrides the prior.
}

TEST(CrowdTest, NoisyConditioningChangesQueryProbability) {
  // Query = e1 & e2; workers confirm e1 noisily: P(q) rises toward
  // P(e2) but never reaches it with finite evidence.
  EventRegistry registry;
  EventId e1 = registry.Register("e1", 0.5);
  EventId e2 = registry.Register("e2", 0.6);
  BoolCircuit c;
  GateId q = c.AddAnd(c.AddVar(e1), c.AddVar(e2));
  double before = JunctionTreeEngine().Estimate(c, q, registry).value;
  EXPECT_NEAR(before, 0.3, 1e-12);
  Valuation truth(2);
  truth.set_value(e1, true);
  truth.set_value(e2, true);
  NoisyOracle oracle(truth, 0.9, 3);
  AskAndUpdate(registry, e1, oracle, 20);
  double after = JunctionTreeEngine().Estimate(c, q, registry).value;
  EXPECT_GT(after, 0.55);
  EXPECT_LT(after, 0.6 + 1e-9);
}

TEST(CrowdDeathTest, CoinFlipWorkersRejected) {
  Valuation truth(1);
  EXPECT_DEATH(NoisyOracle(truth, 0.5, 1), "coin flips");
}

}  // namespace
}  // namespace tud

// Equivalence suite for the unified ProbabilityEngine interface: every
// adapter (and the AutoEngine planner's choice) must agree with
// exhaustive world enumeration on randomized circuits, with and
// without evidence pinning. Exact engines agree to float tolerance,
// sampling-based engines within their Monte-Carlo error.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/hybrid.h"
#include "inference/junction_tree.h"
#include "queries/reachability.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

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

// Ground truth for conditional queries: pin the evidence by restriction
// and enumerate the remaining events.
double ExactConditional(const BoolCircuit& circuit, GateId root,
                        const EventRegistry& registry,
                        const Evidence& evidence) {
  std::vector<std::optional<bool>> fixed(registry.size());
  for (const auto& [e, v] : evidence) fixed[e] = v;
  auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
  return ExhaustiveEngine().Estimate(restricted, restricted_root,
                                     registry).value;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalenceTest, ExactEnginesMatchEnumeration) {
  Rng rng(GetParam());
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 7, 25, &root);
  EventRegistry registry = RandomRegistry(rng, 7);
  const double exact = ExhaustiveEngine().Estimate(c, root, registry).value;

  ExhaustiveEngine exhaustive;
  JunctionTreeEngine junction_tree;
  BddEngine bdd;
  ConditioningEngine conditioning;
  AutoEngine auto_engine;
  ProbabilityEngine* engines[] = {&exhaustive, &junction_tree, &bdd,
                                  &conditioning, &auto_engine};
  for (ProbabilityEngine* engine : engines) {
    EngineResult result = engine->Estimate(c, root, registry);
    EXPECT_NEAR(result.value, exact, 1e-9) << engine->name();
    EXPECT_EQ(result.error_bound, 0.0) << engine->name();
  }
}

TEST_P(EngineEquivalenceTest, SamplingEnginesConverge) {
  Rng rng(GetParam() + 100);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 8, 30, &root);
  EventRegistry registry = RandomRegistry(rng, 8);
  const double exact = ExhaustiveEngine().Estimate(c, root, registry).value;

  SamplingEngine sampling(40000, GetParam() + 1);
  EngineResult sampled = sampling.Estimate(c, root, registry);
  EXPECT_NEAR(sampled.value, exact, 0.05);
  EXPECT_GT(sampled.error_bound, 0.0);
  EXPECT_EQ(sampled.stats.num_samples, 40000u);

  HybridEngine hybrid(/*target_width=*/2, /*max_core=*/4,
                      /*num_samples=*/4000, GetParam() + 1);
  EngineResult hybridised = hybrid.Estimate(c, root, registry);
  EXPECT_NEAR(hybridised.value, exact, 0.05);
}

TEST_P(EngineEquivalenceTest, EvidencePinningMatchesEnumeration) {
  Rng rng(GetParam() + 200);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 7, 25, &root);
  EventRegistry registry = RandomRegistry(rng, 7);
  const Evidence evidence = {{0, true}, {1, false}};
  const double exact = ExactConditional(c, root, registry, evidence);

  ExhaustiveEngine exhaustive;
  JunctionTreeEngine junction_tree;
  BddEngine bdd;
  ConditioningEngine conditioning;
  AutoEngine auto_engine;
  ProbabilityEngine* engines[] = {&exhaustive, &junction_tree, &bdd,
                                  &conditioning, &auto_engine};
  for (ProbabilityEngine* engine : engines) {
    EngineResult result = engine->Estimate(c, root, registry, evidence);
    EXPECT_NEAR(result.value, exact, 1e-9) << engine->name();
  }

  SamplingEngine sampling(40000, GetParam() + 1);
  EXPECT_NEAR(sampling.Estimate(c, root, registry, evidence).value, exact,
              0.05);
  HybridEngine hybrid(2, 4, 4000, GetParam() + 1);
  EXPECT_NEAR(hybrid.Estimate(c, root, registry, evidence).value, exact,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range(0, 10));

TEST(AutoEngineTest, PicksExhaustiveOnTinyCones) {
  Rng rng(7);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 6, 15, &root);
  EventRegistry registry = RandomRegistry(rng, 6);
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "exhaustive");
  EXPECT_NEAR(result.value,
              ExhaustiveEngine().Estimate(c, root, registry).value, 1e-9);
}

TEST(AutoEngineTest, PicksBddOnMediumCones) {
  // 14 events: past the exhaustive cutoff (10), inside the BDD one (18).
  Rng rng(8);
  EventRegistry registry = RandomRegistry(rng, 14);
  BoolCircuit c;
  std::vector<GateId> clauses;
  for (EventId e = 0; e + 1 < 14; e += 2) {
    clauses.push_back(c.AddAnd(c.AddVar(e), c.AddVar(e + 1)));
  }
  GateId root = c.AddOr(std::move(clauses));
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "bdd");
  EXPECT_GT(result.stats.bdd_nodes, 0u);
  EXPECT_NEAR(result.value,
              ExhaustiveEngine().Estimate(c, root, registry).value, 1e-9);
}

TEST(AutoEngineTest, PicksJunctionTreeOnWideEventNarrowWidthCones) {
  // 24 events in a chain of ORs: too many to enumerate or compile, but
  // the primal graph is a path — message passing territory.
  EventRegistry registry;
  BoolCircuit c;
  GateId root = c.AddVar(registry.Register("e0", 0.5));
  for (EventId e = 1; e < 24; ++e) {
    root = c.AddOr(root, c.AddVar(registry.Register(
                             "e" + std::to_string(e), 0.1)));
  }
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "junction_tree");
  // P(OR of independents) = 1 - prod(1 - p_e).
  double expected = 1.0;
  for (EventId e = 0; e < 24; ++e) {
    expected *= 1.0 - registry.probability(e);
  }
  EXPECT_NEAR(result.value, 1.0 - expected, 1e-9);
}

TEST(AutoEngineTest, HandedOffDecompositionIsBitIdentical) {
  // The planner's width estimate is a JunctionTreeAnalysis that it hands
  // to the junction-tree plan it builds; the engine computing its own
  // decomposition runs the exact same Analyze+Build path, so the two
  // results must be bit-identical (not just within tolerance). A random
  // chain over 24 events is past the exhaustive and BDD rungs' event
  // limits but narrow, so the planner picks message passing.
  constexpr uint32_t kEvents = 24;
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 600);
    BoolCircuit c;
    GateId prev = c.AddVar(0);
    GateId root = prev;
    for (EventId e = 1; e < kEvents; ++e) {
      GateId lit = c.AddVar(e);
      if (rng.UniformInt(2) == 0) lit = c.AddNot(lit);
      const GateId pair =
          rng.UniformInt(2) == 0 ? c.AddAnd(lit, prev) : c.AddOr(lit, prev);
      root = rng.UniformInt(2) == 0 ? c.AddAnd(root, pair)
                                    : c.AddOr(root, pair);
      prev = lit;
    }
    EventRegistry registry = RandomRegistry(rng, kEvents);
    AutoEngine auto_engine;
    JunctionTreeEngine direct;
    EngineResult handed = auto_engine.Estimate(c, root, registry);
    EngineResult computed = direct.Estimate(c, root, registry);
    ASSERT_STREQ(handed.engine, "junction_tree") << "seed " << seed;
    EXPECT_EQ(handed.stats.cone_events, kEvents);
    EXPECT_EQ(handed.value, computed.value) << "seed " << seed;
    EXPECT_EQ(handed.stats.width, computed.stats.width);
    EXPECT_EQ(handed.stats.num_bags, computed.stats.num_bags);
    EXPECT_EQ(handed.stats.num_gates, computed.stats.num_gates);
  }
}

TEST(AutoEngineTest, WidthEstimateMatchesPlanAnalysis) {
  // The MinDegreeWidth probe must agree with the width the built plan
  // reports whenever the min-degree order is the one accepted.
  Rng rng(77);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 8, 40, &root);
  JunctionTreeAnalysis analysis = JunctionTreeAnalysis::Analyze(c, root);
  ASSERT_FALSE(analysis.trivial());
  const int estimate = analysis.MinDegreeWidth();
  JunctionTreePlan plan = JunctionTreePlan::Build(std::move(analysis));
  if (estimate <= 10) {  // Below the accept threshold no fallback runs.
    EXPECT_EQ(plan.width(), estimate);
  } else {
    EXPECT_LE(plan.width(), estimate);
  }
}

// ladder:48 reachability lineages (the shape of the adhoc-cold
// benchmark): the min-degree order is the one Build accepts, so the
// analysis's width and table cost are those of the built plan. The
// plan's total also counts the one cell of the decomposition's empty
// root bag, which no vertex elimination creates.
TEST(AutoEngineTest, LadderProbeMatchesBuiltPlan) {
  const TidInstance tid =
      workloads::MakeInstance(*workloads::ParseInstanceSpec("ladder:48"));
  for (const Value target : {10u, 50u}) {
    PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
    const GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, target);
    JunctionTreeAnalysis analysis =
        JunctionTreeAnalysis::Analyze(pcc.circuit(), lineage);
    const int width = analysis.MinDegreeWidth();
    const double cost = analysis.TableCost();
    const JunctionTreePlan plan = JunctionTreePlan::Build(std::move(analysis));
    ASSERT_EQ(plan.build_status(), EngineStatus::kOk) << "t=" << target;
    EXPECT_EQ(width, plan.width()) << "t=" << target;
    EXPECT_EQ(cost + 1, plan.total_cells()) << "t=" << target;
  }
}

}  // namespace
}  // namespace tud

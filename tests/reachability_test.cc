#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/reachability.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

Schema EdgeSchema() {
  Schema schema;
  schema.AddRelation("E", 2);
  return schema;
}

TEST(ReachabilityEvalTest, BfsGroundTruth) {
  Instance instance(EdgeSchema());
  instance.AddFact(0, {0, 1});
  instance.AddFact(0, {1, 2});
  instance.AddFact(0, {4, 5});
  EXPECT_TRUE(EvaluateReachability(instance, 0, 0, 2));
  EXPECT_TRUE(EvaluateReachability(instance, 0, 2, 0));  // Undirected.
  EXPECT_FALSE(EvaluateReachability(instance, 0, 0, 4));
  EXPECT_TRUE(EvaluateReachability(instance, 0, 3, 3));  // Trivial.
  EXPECT_FALSE(EvaluateReachability(instance, 0, 0, 99));
}

TEST(ReachabilityLineageTest, SingleEdge) {
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 1}, 0.4);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, 1);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value,
              0.4, 1e-12);
}

TEST(ReachabilityLineageTest, TwoParallelPaths) {
  // 0-1-3 and 0-2-3: P = 1 - (1 - p01*p13)(1 - p02*p23).
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 1}, 0.5);
  tid.AddFact(0, {1, 3}, 0.5);
  tid.AddFact(0, {0, 2}, 0.5);
  tid.AddFact(0, {2, 3}, 0.5);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, 3);
  double expected = 1.0 - (1 - 0.25) * (1 - 0.25);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value,
              expected, 1e-12);
}

TEST(ReachabilityLineageTest, TrivialAndUnreachableCases) {
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 1}, 0.5);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  GateId same = ComputeReachabilityLineage(pcc, 0, 1, 1);
  EXPECT_TRUE(pcc.circuit().const_value(same));
  GateId out_of_domain = ComputeReachabilityLineage(pcc, 0, 0, 7);
  EXPECT_FALSE(pcc.circuit().const_value(out_of_domain));
}

TEST(ReachabilityLineageTest, SelfLoopsAndDuplicateEdgesHandled) {
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 0}, 0.9);  // Self-loop: irrelevant.
  tid.AddFact(0, {0, 1}, 0.5);
  tid.AddFact(0, {0, 1}, 0.5);  // Duplicate edge: independent copy.
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, 1);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value,
              0.75, 1e-12);
}

// Random graphs: the lineage agrees with per-world BFS on every
// valuation, and the probability agrees with enumeration.
class ReachabilityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachabilityPropertyTest, LineageMatchesBfsWorldByWorld) {
  Rng rng(GetParam());
  const uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(3));
  TidInstance tid(EdgeSchema());
  // Sparse random graph (keeps treewidth small and events <= 13).
  uint32_t edges = 0;
  for (Value a = 0; a < n && edges < 13; ++a) {
    for (Value b = a + 1; b < n && edges < 13; ++b) {
      if (rng.Bernoulli(0.35)) {
        tid.AddFact(0, {a, b}, 0.2 + 0.6 * rng.UniformDouble());
        ++edges;
      }
    }
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  Value source = static_cast<Value>(rng.UniformInt(n));
  Value target = static_cast<Value>(rng.UniformInt(n));
  GateId lineage = ComputeReachabilityLineage(pcc, 0, source, target);
  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    EXPECT_EQ(pcc.circuit().Evaluate(lineage, v),
              EvaluateReachability(pcc.World(v), 0, source, target))
        << "mask=" << mask << " s=" << source << " t=" << target;
  }
}

TEST_P(ReachabilityPropertyTest, ProbabilityMatchesEnumeration) {
  Rng rng(GetParam() + 700);
  TidInstance tid(EdgeSchema());
  // A path with chords.
  const uint32_t n = 6;
  for (Value v = 0; v + 1 < n; ++v) {
    tid.AddFact(0, {v, v + 1}, 0.3 + 0.5 * rng.UniformDouble());
  }
  for (int c = 0; c < 3; ++c) {
    Value a = static_cast<Value>(rng.UniformInt(n));
    Value b = static_cast<Value>(rng.UniformInt(n));
    if (a != b) tid.AddFact(0, {a, b}, 0.3 + 0.5 * rng.UniformDouble());
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, n - 1);
  double mp = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value;
  double exact = ExhaustiveEngine().Estimate(pcc.circuit(), lineage,
                                             pcc.events()).value;
  EXPECT_NEAR(mp, exact, 1e-9);
  // Cross-check against direct world enumeration of the query.
  double direct = 0;
  for (uint64_t mask = 0; mask < (1ULL << pcc.events().size()); ++mask) {
    Valuation v = Valuation::FromMask(mask, pcc.events().size());
    if (EvaluateReachability(pcc.World(v), 0, 0, n - 1)) {
      direct += v.Probability(pcc.events());
    }
  }
  EXPECT_NEAR(mp, direct, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityPropertyTest,
                         ::testing::Range(0, 20));

// Correlated edges through a shared circuit (the Theorem-2 regime for a
// non-CQ query).
TEST(ReachabilityLineageTest, CorrelatedEdges) {
  PccInstance pcc(EdgeSchema());
  EventId e = pcc.events().Register("bridge_open", 0.5);
  GateId g = pcc.circuit().AddVar(e);
  // Both edges of the only path exist iff the same event holds.
  pcc.AddFact(0, {0, 1}, g);
  pcc.AddFact(0, {1, 2}, g);
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, 2);
  // Perfectly correlated: P = 0.5, not 0.25.
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                            pcc.events()).value,
              0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Target-indexed multi-target DP
// ---------------------------------------------------------------------------

TEST(MultiTargetReachabilityTest, TrivialAndDuplicateTargets) {
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 1}, 0.4);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  // Battery mixing the source itself, an out-of-domain value, a real
  // target, and a duplicate of it.
  std::vector<GateId> gates =
      ComputeMultiTargetReachabilityLineage(pcc, 0, 0, {0, 9, 1, 1});
  ASSERT_EQ(gates.size(), 4u);
  EXPECT_TRUE(pcc.circuit().const_value(gates[0]));    // t == source.
  EXPECT_FALSE(pcc.circuit().const_value(gates[1]));   // Out of domain.
  EXPECT_EQ(gates[2], gates[3]);                       // Duplicates share.
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), gates[2],
                                            pcc.events()).value,
              0.4, 1e-12);
}

TEST(MultiTargetReachabilityTest, OutOfDomainSource) {
  TidInstance tid(EdgeSchema());
  tid.AddFact(0, {0, 1}, 0.4);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  std::vector<GateId> gates =
      ComputeMultiTargetReachabilityLineage(pcc, 0, 42, {0, 1, 42});
  ASSERT_EQ(gates.size(), 3u);
  EXPECT_FALSE(pcc.circuit().const_value(gates[0]));
  EXPECT_FALSE(pcc.circuit().const_value(gates[1]));
  EXPECT_TRUE(pcc.circuit().const_value(gates[2]));  // t == source.
}

// The battery of every vertex as a target agrees with per-world BFS on
// every valuation — each gate of a T-target run is exactly the
// reachability semantics of its own target.
TEST_P(ReachabilityPropertyTest, MultiTargetMatchesBfsWorldByWorld) {
  Rng rng(GetParam() + 1400);
  const uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(3));
  TidInstance tid(EdgeSchema());
  uint32_t edges = 0;
  for (Value a = 0; a < n && edges < 13; ++a) {
    for (Value b = a + 1; b < n && edges < 13; ++b) {
      if (rng.Bernoulli(0.35)) {
        tid.AddFact(0, {a, b}, 0.2 + 0.6 * rng.UniformDouble());
        ++edges;
      }
    }
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  const size_t num_events = pcc.events().size();
  const Value source = static_cast<Value>(rng.UniformInt(n));
  std::vector<Value> targets;
  for (Value t = 0; t < n; ++t) targets.push_back(t);
  std::vector<GateId> gates =
      ComputeMultiTargetReachabilityLineage(pcc, 0, source, targets);
  ASSERT_EQ(gates.size(), targets.size());
  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    Instance world = pcc.World(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(pcc.circuit().Evaluate(gates[i], v),
                EvaluateReachability(world, 0, source, targets[i]))
          << "mask=" << mask << " s=" << source << " t=" << targets[i];
    }
  }
}

// A T-target battery and T one-target runs of the same DP give the same
// probability, target by target: tracking other targets jointly changes
// the circuit's shape, never its semantics.
TEST_P(ReachabilityPropertyTest, MultiTargetMatchesOneTargetRunsProbability) {
  Rng rng(GetParam() + 2100);
  TidInstance tid(EdgeSchema());
  const uint32_t n = 6;
  for (Value v = 0; v + 1 < n; ++v) {
    tid.AddFact(0, {v, v + 1}, 0.3 + 0.5 * rng.UniformDouble());
  }
  for (int c = 0; c < 3; ++c) {
    Value a = static_cast<Value>(rng.UniformInt(n));
    Value b = static_cast<Value>(rng.UniformInt(n));
    if (a != b) tid.AddFact(0, {a, b}, 0.3 + 0.5 * rng.UniformDouble());
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  std::vector<Value> targets;
  for (Value t = 0; t < n; ++t) targets.push_back(t);
  std::vector<GateId> battery =
      ComputeMultiTargetReachabilityLineage(pcc, 0, 0, targets);
  for (size_t i = 0; i < targets.size(); ++i) {
    GateId single = ComputeReachabilityLineage(pcc, 0, 0, targets[i]);
    EXPECT_NEAR(
        JunctionTreeEngine().Estimate(pcc.circuit(), battery[i],
                                      pcc.events()).value,
        JunctionTreeEngine().Estimate(pcc.circuit(), single,
                                      pcc.events()).value, 1e-9)
        << "t=" << targets[i];
  }
}

TEST(MultiTargetReachabilityTest, CorrelatedEdges) {
  PccInstance pcc(EdgeSchema());
  EventId e = pcc.events().Register("bridge_open", 0.5);
  GateId g = pcc.circuit().AddVar(e);
  pcc.AddFact(0, {0, 1}, g);
  pcc.AddFact(0, {1, 2}, g);
  std::vector<GateId> gates =
      ComputeMultiTargetReachabilityLineage(pcc, 0, 0, {1, 2});
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), gates[0],
                                            pcc.events()).value,
              0.5, 1e-12);
  EXPECT_NEAR(JunctionTreeEngine().Estimate(pcc.circuit(), gates[1],
                                            pcc.events()).value,
              0.5, 1e-12);
}

TEST(MultiTargetReachabilityTest, LongPathFullBatteryLinearStates) {
  // Sixteen targets spread along a 120-vertex path, one DP call: states
  // stay bounded and every probability is the product of its prefix.
  TidInstance tid(EdgeSchema());
  const uint32_t n = 120;
  for (Value v = 0; v + 1 < n; ++v) {
    tid.AddFact(0, {v, v + 1}, 0.95);
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  std::vector<Value> targets;
  for (uint32_t k = 1; k <= 16; ++k) {
    targets.push_back(static_cast<Value>((k * n) / 17));
  }
  LineageStats stats;
  std::vector<GateId> gates =
      ComputeMultiTargetReachabilityLineage(pcc, 0, 0, targets, &stats);
  EXPECT_LE(stats.max_states_per_node, 256u);
  for (size_t i = 0; i < targets.size(); ++i) {
    double p = JunctionTreeEngine().Estimate(pcc.circuit(), gates[i],
                                             pcc.events()).value;
    EXPECT_NEAR(p, std::pow(0.95, targets[i]), 1e-9) << "t=" << targets[i];
  }
}

TEST(ReachabilityLineageTest, LongPathLinearStates) {
  // A long path: DP states per node stay bounded.
  TidInstance tid(EdgeSchema());
  const uint32_t n = 200;
  Rng rng(4);
  for (Value v = 0; v + 1 < n; ++v) {
    tid.AddFact(0, {v, v + 1}, 0.9);
  }
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  LineageStats stats;
  GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, n - 1, &stats);
  EXPECT_LE(stats.max_states_per_node, 64u);
  double p = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                           pcc.events()).value;
  EXPECT_NEAR(p, std::pow(0.9, n - 1), 1e-9);
}

// ladder:48 (the benchmark's instance): a one-target query emits its
// witness where source and target first connect instead of carrying a
// connected flag up to the root, so its junction-tree plan stays small
// (a flag-carrying DP gives 338,119 and 193,159 cells here). The
// reference probabilities come from that flag-carrying DP.
TEST(ReachabilityLineageTest, LadderOneTargetPlansStaySmall) {
  const TidInstance tid =
      workloads::MakeInstance(*workloads::ParseInstanceSpec("ladder:48"));
  const struct {
    Value target;
    double probability;
  } cases[] = {{10, 0.5218886080720625}, {50, 0.039933836298718994}};
  for (const auto& c : cases) {
    PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
    const GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, c.target);
    const JunctionTreePlan plan =
        JunctionTreePlan::Build(pcc.circuit(), lineage);
    EXPECT_NEAR(plan.Execute(pcc.events()), c.probability, 1e-12)
        << "t=" << c.target;
    EXPECT_LE(plan.total_cells(), 60000.0) << "t=" << c.target;
  }
}

}  // namespace
}  // namespace tud

// Pinned-decision and equivalence suite for the batch cost model: the
// engine's EstimateBatch must take the shared calibrating pass exactly
// when the union decomposition's 2 * sum 2^|bag| beats the per-root
// sum, fall back per root when every root is better off alone, pick
// the middle kGrouped path when cone-overlap groups win individually
// but the whole set loses — and in every case report the two cost
// numbers it compared and agree numerically with sequential Estimate.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "util/rng.h"

namespace tud {
namespace {

EventRegistry RandomRegistry(Rng& rng, uint32_t num_events) {
  EventRegistry registry;
  for (uint32_t i = 0; i < num_events; ++i) {
    registry.Register("e" + std::to_string(i),
                      0.05 + 0.9 * rng.UniformDouble());
  }
  return registry;
}

// A conjunction chain over `events` starting at event `first`: gate i
// is And(gate i-1, var(first + i)). Chains are the controllable
// workload here — the cone of gate k contains the whole prefix, so
// roots picked inside one chain overlap totally, and chains over
// disjoint event ranges have disjoint cones.
std::vector<GateId> BuildChain(BoolCircuit& c, EventId first,
                               uint32_t length) {
  std::vector<GateId> gates;
  gates.push_back(c.AddVar(first));
  for (uint32_t i = 1; i < length; ++i) {
    gates.push_back(c.AddAnd(gates.back(), c.AddVar(first + i)));
  }
  return gates;
}

double ChainProbability(const EventRegistry& registry, EventId first,
                        uint32_t length) {
  double p = 1.0;
  for (uint32_t i = 0; i < length; ++i) {
    p *= registry.probability(first + i);
  }
  return p;
}

// Many roots inside ONE chain's cone: the union decomposition is the
// deepest root's own, so two shared sweeps beat five upward sweeps.
TEST(BatchCostModelTest, SubLineageBatteryTakesSharedPass) {
  Rng rng(11);
  EventRegistry registry = RandomRegistry(rng, 32);
  BoolCircuit c;
  std::vector<GateId> chain = BuildChain(c, 0, 32);
  std::vector<GateId> roots = {chain[31], chain[27], chain[23], chain[19],
                               chain[15]};

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> results =
      engine.EstimateBatch(c, roots, registry, {});
  ASSERT_EQ(results.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const EngineStats& s = results[i].stats;
    EXPECT_EQ(s.batch_path, BatchPath::kShared) << "root " << i;
    EXPECT_EQ(s.batch_groups, 1u);
    EXPECT_GT(s.batch_shared_cost, 0.0);
    EXPECT_GT(s.batch_per_root_cost, 0.0);
    EXPECT_LE(s.batch_shared_cost, s.batch_per_root_cost);
    EXPECT_NEAR(results[i].value,
                engine.Estimate(c, roots[i], registry, {}).value, 1e-12);
  }
}

// One root per disjoint chain: the shared pass costs two sweeps over
// the same total table mass the per-root plans cover in one, so the
// model must keep the sequential path.
TEST(BatchCostModelTest, DisjointSingletonsStayPerRoot) {
  Rng rng(12);
  EventRegistry registry = RandomRegistry(rng, 30);
  BoolCircuit c;
  std::vector<GateId> a = BuildChain(c, 0, 10);
  std::vector<GateId> b = BuildChain(c, 10, 10);
  std::vector<GateId> d = BuildChain(c, 20, 10);
  std::vector<GateId> roots = {a.back(), b.back(), d.back()};

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> results =
      engine.EstimateBatch(c, roots, registry, {});
  ASSERT_EQ(results.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const EngineStats& s = results[i].stats;
    EXPECT_EQ(s.batch_path, BatchPath::kPerRoot) << "root " << i;
    EXPECT_EQ(s.batch_groups, 3u);
    EXPECT_GT(s.batch_shared_cost, s.batch_per_root_cost);
    EXPECT_NEAR(results[i].value,
                ChainProbability(registry, static_cast<EventId>(10 * i), 10),
                1e-12);
  }
}

// A battery of one is a degenerate batch: one upward sweep beats the
// two the shared pass would spend, whatever the root looks like.
TEST(BatchCostModelTest, SingleRootBatteryIsPerRoot) {
  Rng rng(13);
  EventRegistry registry = RandomRegistry(rng, 12);
  BoolCircuit c;
  std::vector<GateId> chain = BuildChain(c, 0, 12);

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> results =
      engine.EstimateBatch(c, {chain.back()}, registry, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stats.batch_path, BatchPath::kPerRoot);
  EXPECT_EQ(results[0].stats.batch_groups, 1u);
  EXPECT_NEAR(results[0].value, ChainProbability(registry, 0, 12), 1e-12);
}

// The middle path: a tight sub-lineage cluster on a short chain (shared
// wins within the cluster) plus one singleton root on a much longer
// disjoint chain (expensive enough that batching the WHOLE set would
// pay its table mass twice). The whole-set comparison loses, the
// cone-overlap groups win individually: kGrouped, one shared group and
// one per-root singleton.
TEST(BatchCostModelTest, MixedBatteryTakesGroupedPath) {
  Rng rng(14);
  EventRegistry registry = RandomRegistry(rng, 100);
  BoolCircuit c;
  std::vector<GateId> cluster = BuildChain(c, 0, 12);
  std::vector<GateId> heavy = BuildChain(c, 12, 80);
  std::vector<GateId> roots = {cluster[11], cluster[10], cluster[9],
                               heavy.back()};

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> results =
      engine.EstimateBatch(c, roots, registry, {});
  ASSERT_EQ(results.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const EngineStats& s = results[i].stats;
    EXPECT_EQ(s.batch_path, BatchPath::kGrouped) << "root " << i;
    EXPECT_EQ(s.batch_groups, 2u);
    EXPECT_GT(s.batch_shared_cost, s.batch_per_root_cost);
  }
  EXPECT_NEAR(results[0].value, ChainProbability(registry, 0, 12), 1e-12);
  EXPECT_NEAR(results[1].value, ChainProbability(registry, 0, 11), 1e-12);
  EXPECT_NEAR(results[2].value, ChainProbability(registry, 0, 10), 1e-12);
  EXPECT_NEAR(results[3].value, ChainProbability(registry, 12, 80), 1e-9);
}

// Randomized equivalence across whatever path the model picks: two
// cone clusters coupled only through their own event blocks, batched
// results must match sequential Estimate root for root.
class BatchCostEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchCostEquivalenceTest, GroupedBatchMatchesSequentialEstimate) {
  Rng rng(GetParam() + 4000);
  const uint32_t num_events = 14;
  EventRegistry registry = RandomRegistry(rng, num_events);
  BoolCircuit c;
  // Two random DAG clusters over disjoint event halves.
  std::vector<std::vector<GateId>> pools(2);
  for (uint32_t block = 0; block < 2; ++block) {
    const EventId base = block * (num_events / 2);
    for (EventId e = 0; e < num_events / 2; ++e) {
      pools[block].push_back(c.AddVar(base + e));
    }
    for (uint32_t i = 0; i < 18; ++i) {
      GateId x = pools[block][rng.UniformInt(pools[block].size())];
      GateId y = pools[block][rng.UniformInt(pools[block].size())];
      switch (rng.UniformInt(3)) {
        case 0:
          pools[block].push_back(c.AddNot(x));
          break;
        case 1:
          pools[block].push_back(c.AddAnd(x, y));
          break;
        default:
          pools[block].push_back(c.AddOr(x, y));
          break;
      }
    }
  }
  std::vector<GateId> roots;
  for (uint32_t block = 0; block < 2; ++block) {
    for (int k = 0; k < 4; ++k) {
      roots.push_back(pools[block][rng.UniformInt(pools[block].size())]);
    }
  }
  const Evidence evidence =
      rng.Bernoulli(0.5) ? Evidence{{1, true}, {8, false}} : Evidence{};

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> batched =
      engine.EstimateBatch(c, roots, registry, evidence);
  ASSERT_EQ(batched.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_NEAR(batched[i].value,
                engine.Estimate(c, roots[i], registry, evidence).value, 1e-9)
        << "root " << i << " path "
        << static_cast<int>(batched[i].stats.batch_path);
    EXPECT_EQ(batched[i].stats.batch_size, roots.size());
    EXPECT_GT(batched[i].stats.batch_groups, 0u);
  }
  // Reissuing the same battery permuted must reuse the cached decision
  // (one build total) and keep every value identical.
  std::vector<GateId> permuted(roots.rbegin(), roots.rend());
  const uint64_t builds_before = engine.batch_builds();
  std::vector<EngineResult> again =
      engine.EstimateBatch(c, permuted, registry, evidence);
  EXPECT_EQ(engine.batch_builds(), builds_before);
  for (size_t i = 0; i < permuted.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].value,
                     batched[roots.size() - 1 - i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchCostEquivalenceTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace tud

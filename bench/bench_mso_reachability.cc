// Experiment X11 (Theorems 1-2 beyond CQs): lineage for s-t
// *reachability* — MSO-definable, not CQ-expressible — over
// bounded-treewidth TIDs, via the Courcelle-style connectivity DP.
// Shapes: ~linear in n at fixed width; state count per node bounded;
// exact probabilities match the CQ engines' guarantees (validated in
// tests; counters report P and the width actually used).
//
// The primary benchmarks go through QuerySession: the instance's tree
// encoding is derived once and every iteration (= one query) reuses it,
// which is the paper's compile-once/evaluate-many shape. The *Fresh
// variants keep the old per-query derivation as the baseline.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "queries/reachability.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

// The instances come from the shared workload registry
// (src/workloads/workloads.h) — the same generators the serving QPS
// harness and the tests size their runs from.
using workloads::KTreeEdgeTid;
using workloads::LadderTid;

void BM_ReachabilityLadder(benchmark::State& state) {
  const uint32_t length = static_cast<uint32_t>(state.range(0));
  Rng rng(8);
  TidInstance tid = LadderTid(rng, length);
  // Policy picked once: exact message passing with plan caching — the
  // lineage gate is stable across iterations (structural hashing), so
  // the elimination order is derived once and only the numeric pass
  // reruns.
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  double p = 0;
  LineageStats stats;
  for (auto _ : state) {
    GateId lineage =
        session.ReachabilityLineage(0, 0, 2 * length - 2, &stats);
    EngineResult estimate = session.Probability(lineage);
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["rungs"] = length;
  state.counters["instance_width"] = stats.decomposition_width;
  state.counters["max_states"] =
      static_cast<double>(stats.max_states_per_node);
  state.counters["P_connected"] = p;
  state.SetComplexityN(length);
}
BENCHMARK(BM_ReachabilityLadder)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

// Baseline: the pre-session shape — every query rebuilds the
// pcc-instance and re-derives the decomposition from scratch.
void BM_ReachabilityLadderFresh(benchmark::State& state) {
  const uint32_t length = static_cast<uint32_t>(state.range(0));
  Rng rng(8);
  TidInstance tid = LadderTid(rng, length);
  CInstance pc = tid.ToPcInstance();
  double p = 0;
  LineageStats stats;
  for (auto _ : state) {
    PccInstance pcc = PccInstance::FromCInstance(pc);
    GateId lineage =
        ComputeReachabilityLineage(pcc, 0, 0, 2 * length - 2, &stats);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["rungs"] = length;
  state.counters["instance_width"] = stats.decomposition_width;
  state.counters["P_connected"] = p;
  state.SetComplexityN(length);
}
BENCHMARK(BM_ReachabilityLadderFresh)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

// Batched evaluation: a whole target battery — "which of these 32
// vertices does the source reach?" — compiled through the
// target-indexed connectivity DP (ReachabilityLineageBatch), so each
// chunk's 16 lineages share one cone, then evaluated sequentially (one
// plan-cached message pass per root) vs one ProbabilityBatch call. On
// the path-shaped instance the shared cone stays as narrow as a single
// lineage's, so the batch cost model routes the battery through shared
// calibrating passes; the batch_path counter records the decision it
// took (1 = shared, 2 = grouped, 3 = per-root).
void BM_ReachabilityBatch32(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Schema schema;
  schema.AddRelation("E", 2);
  Rng rng(8);
  TidInstance tid(schema);
  for (Value v = 0; v + 1 < n; ++v) {
    tid.AddFact(0, {v, v + 1}, 0.5 + 0.45 * rng.UniformDouble());
  }
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  // 32 targets spread over the path's n vertices.
  std::vector<Value> targets;
  for (uint32_t k = 1; k <= 32; ++k) {
    targets.push_back(static_cast<Value>((k * (n - 1)) / 32));
  }
  std::vector<GateId> roots = session.ReachabilityLineageBatch(0, 0, targets);
  double checksum = 0;
  size_t bags_visited = 0;
  double batch_path = 0;
  for (auto _ : state) {
    checksum = 0;
    bags_visited = 0;
    if (batched) {
      std::vector<EngineResult> results = session.ProbabilityBatch(roots);
      for (const EngineResult& r : results) checksum += r.value;
      bags_visited = results[0].stats.bags_visited;
      batch_path = static_cast<double>(results[0].stats.batch_path);
    } else {
      for (GateId g : roots) {
        EngineResult r = session.Probability(g);
        checksum += r.value;
        bags_visited += r.stats.bags_visited;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["n"] = n;
  state.counters["batch_size"] = static_cast<double>(roots.size());
  state.counters["bags_visited"] = static_cast<double>(bags_visited);
  state.counters["batch_path"] = batch_path;
  state.counters["P_sum"] = checksum;
}
BENCHMARK(BM_ReachabilityBatch32)
    ->ArgsProduct({{48, 96, 192}, {0, 1}})
    ->ArgNames({"n", "batched"});

void BM_ReachabilityKTree(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  Rng rng(99 + k);
  TidInstance tid = KTreeEdgeTid(rng, n, k);
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  double p = 0;
  LineageStats stats;
  for (auto _ : state) {
    GateId lineage = session.ReachabilityLineage(0, 0, n - 1, &stats);
    EngineResult estimate = session.Probability(lineage);
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["n"] = n;
  state.counters["k"] = k;
  state.counters["instance_width"] = stats.decomposition_width;
  state.counters["P_connected"] = p;
}
BENCHMARK(BM_ReachabilityKTree)
    ->ArgsProduct({{64, 128, 256}, {1, 2}});

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Experiment X2 (Theorem 2): pcc-instances — annotations correlated
// through a shared Boolean circuit. Sweeps the correlation window w:
// the *instance* treewidth stays 1 throughout, but the width of the
// joint instance+circuit decomposition grows with w, and so does the
// inference cost — the paper's point that the joint width, not the
// separate widths, is the right parameter.

#include <benchmark/benchmark.h>

#include "inference/junction_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "treedec/elimination.h"
#include "uncertain/pcc_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

void BM_Theorem2Window(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t window = static_cast<uint32_t>(state.range(1));
  Rng rng(42);
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  double p = 0;
  EngineStats jt_stats;
  for (auto _ : state) {
    state.PauseTiming();
    Rng fresh_rng(42);
    PccInstance pcc = workloads::MakeCorrelatedPcc(fresh_rng, n, window);
    state.ResumeTiming();
    GateId lineage = ComputeCqLineage(q, pcc);
    EngineResult result =
        JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(result);
    p = result.value;
    jt_stats = result.stats;
  }
  // Width of the joint instance+circuit graph (min-fill estimate).
  Rng measure_rng(42);
  PccInstance pcc = workloads::MakeCorrelatedPcc(measure_rng, n, window);
  Graph joint = pcc.JointPrimalGraph();
  uint32_t joint_width = MinFillOrder(joint).width;
  state.counters["n"] = n;
  state.counters["window"] = window;
  state.counters["joint_width"] = joint_width;
  state.counters["lineage_jt_width"] = jt_stats.width;
  state.counters["P"] = p;
}
BENCHMARK(BM_Theorem2Window)
    ->ArgsProduct({{128, 256}, {1, 2, 3, 4, 6, 8}});

// Linear scaling in n at fixed window.
void BM_Theorem2Scaling(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  double p = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    PccInstance pcc = workloads::MakeCorrelatedPcc(rng, n, 3);
    state.ResumeTiming();
    GateId lineage = ComputeCqLineage(q, pcc);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["n"] = n;
  state.counters["P"] = p;
  state.SetComplexityN(n);
}
BENCHMARK(BM_Theorem2Scaling)->RangeMultiplier(2)->Range(32, 1024)
    ->Complexity();

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Experiment X1 (Theorem 1): evaluating the fixed #P-hard query
// q = ∃xy R(x) S(x,y) T(y) on TID instances of bounded treewidth.
//
// Claim shapes to observe:
//  - at fixed k, lineage + message passing scales ~linearly in n;
//  - the generic baseline (possible-world enumeration) blows up
//    exponentially and is only runnable for tiny instances;
//  - the constant grows with k (that's allowed: data complexity).

#include <benchmark/benchmark.h>

#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

// Lineage + message passing on a partial-k-tree TID of n vertices.
void BM_Theorem1Pipeline(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  Rng rng(1000 + k);
  TidInstance tid = workloads::MakeKTreeTid(rng, n, k);
  CInstance pc = tid.ToPcInstance();
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  double p = 0;
  LineageStats stats;
  EngineStats jt_stats;
  for (auto _ : state) {
    PccInstance pcc = PccInstance::FromCInstance(pc);
    GateId lineage = ComputeCqLineage(q, pcc, &stats);
    EngineResult result =
        JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(result);
    p = result.value;
    jt_stats = result.stats;
  }
  state.counters["n"] = n;
  state.counters["k"] = k;
  state.counters["facts"] = static_cast<double>(tid.NumFacts());
  state.counters["instance_width"] = stats.decomposition_width;
  state.counters["lineage_jt_width"] = jt_stats.width;
  state.counters["P"] = p;
  state.SetComplexityN(n);
}
BENCHMARK(BM_Theorem1Pipeline)
    ->ArgsProduct({benchmark::CreateRange(64, 2048, 2), {1, 2, 3}})
    ->Complexity();

// The naive baseline: enumerate all 2^m possible worlds. Only feasible
// for ~20 facts; the time doubles per added fact, which is the paper's
// motivation for structural tractability.
void BM_NaiveEnumerationBaseline(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(7);
  TidInstance tid = workloads::MakeDensePathTid(rng, n);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);
  if (pcc.events().size() > 22) {
    state.SkipWithError("too many events for enumeration");
    return;
  }
  double p = 0;
  for (auto _ : state) {
    EngineResult estimate =
        ExhaustiveEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["facts"] = static_cast<double>(tid.NumFacts());
  state.counters["P"] = p;
}
BENCHMARK(BM_NaiveEnumerationBaseline)->DenseRange(4, 10, 1);

// Cross-check at small scale: message passing equals enumeration.
void BM_Theorem1Agreement(benchmark::State& state) {
  Rng rng(99);
  TidInstance tid = workloads::MakeKTreeTid(rng, 7, 2);
  PccInstance pcc = PccInstance::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  GateId lineage = ComputeCqLineage(q, pcc);
  double mp = 0, exact = 0;
  for (auto _ : state) {
    EngineResult passed =
        JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    EngineResult enumerated =
        ExhaustiveEngine().Estimate(pcc.circuit(), lineage, pcc.events());
    benchmark::DoNotOptimize(passed);
    benchmark::DoNotOptimize(enumerated);
    mp = passed.value;
    exact = enumerated.value;
  }
  state.counters["message_passing"] = mp;
  state.counters["enumeration"] = exact;
  state.counters["abs_error"] = std::abs(mp - exact);
}
BENCHMARK(BM_Theorem1Agreement);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

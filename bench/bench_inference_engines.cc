// Experiment X5: inference-engine comparison on the same lineage
// circuits (from the Theorem-1 workload), now through the unified
// ProbabilityEngine interface: message passing (the paper's method) vs
// BDD compilation (ProvSQL-style knowledge compilation) vs Monte-Carlo
// sampling vs exhaustive enumeration (tiny only), plus the AutoEngine
// planner that picks among them per cone. Counters report probabilities
// so agreement is visible in the output.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

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

struct Workload {
  PccInstance pcc;
  GateId lineage;
};

Workload MakeWorkload(uint32_t n) {
  Rng rng(314);
  TidInstance tid = workloads::MakeKTreeTid(rng, n, 2);
  Workload w{PccInstance::FromCInstance(tid.ToPcInstance()), kInvalidGate};
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(0, 1, 2);
  w.lineage = ComputeCqLineage(q, w.pcc);
  return w;
}

void RunEngine(benchmark::State& state, ProbabilityEngine& engine,
               const Workload& w) {
  EngineResult result;
  for (auto _ : state) {
    result = engine.Estimate(w.pcc.circuit(), w.lineage, w.pcc.events());
    benchmark::DoNotOptimize(result.value);
  }
  state.counters["P"] = result.value;
  if (result.stats.bdd_nodes > 0) {
    state.counters["bdd_nodes"] = static_cast<double>(result.stats.bdd_nodes);
  }
}

void BM_EngineMessagePassing(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  JunctionTreeEngine engine;
  RunEngine(state, engine, w);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineMessagePassing)->RangeMultiplier(2)->Range(16, 512)
    ->Complexity();

void BM_EngineBddCompilation(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  BddEngine engine;
  RunEngine(state, engine, w);
  state.SetComplexityN(state.range(0));
}
// Capped at 32: on the k-tree lineages the OBDD size explodes (1.6M
// nodes at n=32, 20M at n=64 — minutes of compilation), which is the
// knowledge-compilation failure mode the message-passing pipeline
// avoids. See EXPERIMENTS.md X5.
BENCHMARK(BM_EngineBddCompilation)->RangeMultiplier(2)->Range(16, 32);

void BM_EngineSampling(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  double exact =
      JunctionTreeProbability(w.pcc.circuit(), w.lineage, w.pcc.events());
  SamplingEngine engine(10000, 1);
  EngineResult result;
  for (auto _ : state) {
    result = engine.Estimate(w.pcc.circuit(), w.lineage, w.pcc.events());
    benchmark::DoNotOptimize(result.value);
  }
  state.counters["P_estimate"] = result.value;
  state.counters["abs_error"] = std::abs(result.value - exact);
  state.counters["error_bound"] = result.error_bound;
}
BENCHMARK(BM_EngineSampling)->RangeMultiplier(2)->Range(16, 512);

void BM_EngineExhaustive(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  if (w.pcc.events().size() > 22) {
    state.SkipWithError("too many events");
    return;
  }
  ExhaustiveEngine engine;
  RunEngine(state, engine, w);
}
BENCHMARK(BM_EngineExhaustive)->DenseRange(4, 8, 2);

// Batched junction-tree evaluation via EstimateBatch: the marginals of
// 16 sub-lineage roots of one CQ lineage in one shared calibrating pass
// (batched=1) vs the default per-root loop every engine inherits
// (batched=0). Counters report the batch stats the shared pass fills —
// batch_size, bags_visited (upward + pruned downward sweep), max_table
// — which the per-root loop leaves at per-plan values.
void BM_EngineBatch(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  const bool batched = state.range(1) != 0;
  std::vector<GateId> cone = w.pcc.circuit().ReachableFrom(w.lineage);
  std::vector<GateId> roots;
  for (size_t i = 0; i < cone.size() && roots.size() < 15;
       i += cone.size() / 15) {
    roots.push_back(cone[i]);
  }
  roots.push_back(w.lineage);
  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> results;
  for (auto _ : state) {
    // batched=0 calls the base-class default (one Estimate per root,
    // here with per-root plan caching) explicitly — the baseline every
    // engine without a native batch path gets.
    results = batched
                  ? engine.EstimateBatch(w.pcc.circuit(), roots,
                                         w.pcc.events())
                  : engine.ProbabilityEngine::EstimateBatch(
                        w.pcc.circuit(), roots, w.pcc.events());
    benchmark::DoNotOptimize(results.data());
  }
  double checksum = 0;
  for (const EngineResult& r : results) checksum += r.value;
  state.counters["P_sum"] = checksum;
  state.counters["batch_size"] =
      static_cast<double>(results[0].stats.batch_size);
  state.counters["bags_visited"] =
      static_cast<double>(results[0].stats.bags_visited);
  state.counters["max_table"] =
      static_cast<double>(results[0].stats.max_table);
}
BENCHMARK(BM_EngineBatch)
    ->ArgsProduct({{16, 32}, {0, 1}})
    ->ArgNames({"n", "batched"});

// The planner end to end: cone inspection + the engine it picks. The
// chosen engine's name is reported via the counters (0 = exhaustive,
// 1 = bdd, 2 = junction_tree, 3 = hybrid, 4 = sampling).
void BM_EngineAuto(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<uint32_t>(state.range(0)));
  AutoEngine engine;
  EngineResult result;
  for (auto _ : state) {
    result = engine.Estimate(w.pcc.circuit(), w.lineage, w.pcc.events());
    benchmark::DoNotOptimize(result.value);
  }
  state.counters["P"] = result.value;
  double choice = -1;
  const std::string name = result.engine;
  if (name == "exhaustive") choice = 0;
  else if (name == "bdd") choice = 1;
  else if (name == "junction_tree") choice = 2;
  else if (name == "hybrid") choice = 3;
  else if (name == "sampling") choice = 4;
  state.counters["chosen_engine"] = choice;
}
BENCHMARK(BM_EngineAuto)->RangeMultiplier(2)->Range(16, 512);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

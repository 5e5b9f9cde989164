// Experiment X6 (§2.2 end, partial tree decompositions / ProbTree):
// circuits shaped as a high-treewidth core plus low-treewidth
// tentacles. The hybrid engine samples only the core events and runs
// exact message passing on the rest; at an equal sample budget its
// error is lower than pure Monte-Carlo (Rao-Blackwellisation), and the
// restricted width collapses once the core is conditioned.

#include <benchmark/benchmark.h>

#include <cmath>

#include "inference/engine.h"
#include "inference/hybrid.h"
#include "inference/junction_tree.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

void BM_HybridCoreTentacles(benchmark::State& state) {
  const uint32_t core = static_cast<uint32_t>(state.range(0));
  const uint32_t tentacles = static_cast<uint32_t>(state.range(1));
  const uint32_t samples = 400;
  Rng gen_rng(55);
  EventRegistry registry;
  GateId root;
  BoolCircuit circuit = workloads::MakeCoreTentacleCircuit(
      gen_rng, core, tentacles, registry, &root);
  std::vector<EventId> core_events =
      SelectCoreEvents(circuit, root, /*target_width=*/3, core);
  double exact = registry.size() <= 22
                     ? ExhaustiveEngine().Estimate(circuit, root,
                                                   registry).value
                     : -1;
  HybridEngine hybrid(/*target_width=*/3, /*max_core=*/core, samples,
                      /*seed=*/9);
  for (auto _ : state) {
    EngineResult timed =
        hybrid.EstimateWithCore(circuit, root, registry, core_events);
    benchmark::DoNotOptimize(timed);
  }
  // The counters come from one estimate on a fresh engine with the same
  // seed, so they do not depend on how many iterations were timed.
  const EngineResult result =
      HybridEngine(/*target_width=*/3, /*max_core=*/core, samples,
                   /*seed=*/9)
          .EstimateWithCore(circuit, root, registry, core_events);
  state.counters["core_events_chosen"] =
      static_cast<double>(core_events.size());
  state.counters["restricted_width"] = result.stats.width;
  state.counters["estimate"] = result.value;
  if (exact >= 0) {
    state.counters["abs_error"] = std::abs(result.value - exact);
  }
}
BENCHMARK(BM_HybridCoreTentacles)
    ->ArgsProduct({{6, 8, 10}, {4, 8}});

void BM_PureSamplingSameBudget(benchmark::State& state) {
  const uint32_t core = static_cast<uint32_t>(state.range(0));
  const uint32_t tentacles = static_cast<uint32_t>(state.range(1));
  const uint32_t samples = 400;
  Rng gen_rng(55);
  EventRegistry registry;
  GateId root;
  BoolCircuit circuit = workloads::MakeCoreTentacleCircuit(
      gen_rng, core, tentacles, registry, &root);
  double exact = registry.size() <= 22
                     ? ExhaustiveEngine().Estimate(circuit, root,
                                                   registry).value
                     : -1;
  SamplingEngine sampler(samples, /*seed=*/9);
  for (auto _ : state) {
    EngineResult estimate = sampler.Estimate(circuit, root, registry);
    benchmark::DoNotOptimize(estimate);
  }
  // As above: one estimate on a fresh engine with the same seed.
  const double p =
      SamplingEngine(samples, /*seed=*/9).Estimate(circuit, root, registry)
          .value;
  state.counters["estimate"] = p;
  if (exact >= 0) state.counters["abs_error"] = std::abs(p - exact);
}
BENCHMARK(BM_PureSamplingSameBudget)
    ->ArgsProduct({{6, 8, 10}, {4, 8}});

// Error comparison at matched sample counts, averaged over repetitions
// (reported as RMSE counters; run with --benchmark_repetitions for
// variance).
void BM_HybridVsSamplingRmse(benchmark::State& state) {
  const uint32_t samples = static_cast<uint32_t>(state.range(0));
  Rng gen_rng(55);
  EventRegistry registry;
  GateId root;
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(gen_rng, 8, 6, registry, &root);
  std::vector<EventId> core_events =
      SelectCoreEvents(circuit, root, 3, 6);
  double exact = ExhaustiveEngine().Estimate(circuit, root, registry).value;
  const int kTrials = 20;
  double hybrid_se = 0, mc_se = 0;
  for (auto _ : state) {
    hybrid_se = mc_se = 0;
    for (int t = 0; t < kTrials; ++t) {
      double h = HybridEngine(3, 6, samples, /*seed=*/100 + t)
                     .EstimateWithCore(circuit, root, registry, core_events)
                     .value;
      double m = SamplingEngine(samples, /*seed=*/100 + t)
                     .Estimate(circuit, root, registry)
                     .value;
      hybrid_se += (h - exact) * (h - exact);
      mc_se += (m - exact) * (m - exact);
    }
    benchmark::DoNotOptimize(hybrid_se);
  }
  state.counters["hybrid_rmse"] = std::sqrt(hybrid_se / kTrials);
  state.counters["mc_rmse"] = std::sqrt(mc_se / kTrials);
}
BENCHMARK(BM_HybridVsSamplingRmse)->Arg(50)->Arg(200)->Arg(800);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

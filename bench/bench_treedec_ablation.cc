// Experiment X10 (ablation): decomposition heuristics. Compares
// min-fill and min-degree elimination orders against exact treewidth on
// small random partial k-trees (quality), their cost on larger graphs,
// and the downstream effect: junction-tree inference time on the same
// lineage circuit under each heuristic's decomposition width.

#include <benchmark/benchmark.h>

#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

Graph MakeGraph(Rng& rng, uint32_t n, uint32_t k) {
  return Graph::FromEdges(n, workloads::PartialKTreeEdges(rng, n, k, 0.9));
}

void BM_MinFillOrder(benchmark::State& state) {
  Rng rng(1);
  Graph g = MakeGraph(rng, static_cast<uint32_t>(state.range(0)), 3);
  uint32_t width = 0;
  for (auto _ : state) {
    width = MinFillOrder(g).width;
    benchmark::DoNotOptimize(width);
  }
  state.counters["width"] = width;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinFillOrder)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_MinDegreeOrder(benchmark::State& state) {
  Rng rng(1);
  Graph g = MakeGraph(rng, static_cast<uint32_t>(state.range(0)), 3);
  uint32_t width = 0;
  for (auto _ : state) {
    width = MinDegreeOrder(g).width;
    benchmark::DoNotOptimize(width);
  }
  state.counters["width"] = width;
  state.SetComplexityN(state.range(0));
}
// 20000 vertices, past 2^14: one graph representation serves every
// size, so the time should stay near-linear in n with no step.
BENCHMARK(BM_MinDegreeOrder)->RangeMultiplier(2)->Range(16, 512)->Arg(20000)
    ->Complexity();

// The junction-tree pipeline's min-fill fallback, on partial 8-trees:
// few vertices of degree <= 2 to peel, so nearly every elimination goes
// through the fill heap.
void BM_PeeledMinFillOrder(benchmark::State& state) {
  Rng rng(1);
  Graph g = MakeGraph(rng, static_cast<uint32_t>(state.range(0)), 8);
  uint32_t width = 0;
  for (auto _ : state) {
    width = PeeledMinFillOrder(g).width;
    benchmark::DoNotOptimize(width);
  }
  state.counters["width"] = width;
}
BENCHMARK(BM_PeeledMinFillOrder)->Arg(512)->Arg(2048);

// Quality versus exact treewidth (small graphs): reports the average
// width achieved by each method over random graphs.
void BM_HeuristicQualityVsExact(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const int kGraphs = 10;
  double fill_total = 0, degree_total = 0, exact_total = 0;
  for (auto _ : state) {
    fill_total = degree_total = exact_total = 0;
    for (int i = 0; i < kGraphs; ++i) {
      Rng rng(100 + i);
      Graph g = MakeGraph(rng, n, 3);
      fill_total += MinFillOrder(g).width;
      degree_total += MinDegreeOrder(g).width;
      exact_total += static_cast<double>(*ExactTreewidth(g, n));
    }
    benchmark::DoNotOptimize(exact_total);
  }
  state.counters["avg_minfill_width"] = fill_total / kGraphs;
  state.counters["avg_mindegree_width"] = degree_total / kGraphs;
  state.counters["avg_exact_width"] = exact_total / kGraphs;
}
BENCHMARK(BM_HeuristicQualityVsExact)->Arg(10)->Arg(13)->Arg(16);

void BM_ExactTreewidthCost(benchmark::State& state) {
  Rng rng(5);
  Graph g = MakeGraph(rng, static_cast<uint32_t>(state.range(0)), 3);
  uint32_t width = 0;
  for (auto _ : state) {
    width = *ExactTreewidth(g, 24);
    benchmark::DoNotOptimize(width);
  }
  state.counters["width"] = width;
}
BENCHMARK(BM_ExactTreewidthCost)->DenseRange(10, 18, 2);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

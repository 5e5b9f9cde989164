// Experiment X4 (§2.1, local models): ind/mux documents. Compares the
// Cohen-Kimelfeld-Sagiv bottom-up DP (the [17] fast path) against the
// generic lineage + message-passing pipeline and, at small scale,
// possible-world enumeration. All three agree; the fast path wins by a
// constant factor, enumeration explodes.

#include <benchmark/benchmark.h>

#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "uncertain/worlds.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

TreePattern Pattern() {
  return TreePattern::AncestorDescendant("entity", "musician");
}

void BM_LocalFastPath(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 0);
  TreePattern pattern = Pattern();
  double p = 0;
  for (auto _ : state) {
    p = LocalPatternProbability(pattern, doc);
    benchmark::DoNotOptimize(p);
  }
  state.counters["entities"] = entities;
  state.counters["P"] = p;
  state.SetComplexityN(entities);
}
BENCHMARK(BM_LocalFastPath)->RangeMultiplier(2)->Range(16, 1024)
    ->Complexity();

void BM_LocalGenericPipeline(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 0);
  TreePattern pattern = Pattern();
  double p = 0;
  for (auto _ : state) {
    GateId lineage = PatternLineage(pattern, doc);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(doc.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = entities;
  state.counters["P"] = p;
  state.SetComplexityN(entities);
}
BENCHMARK(BM_LocalGenericPipeline)->RangeMultiplier(2)->Range(16, 1024)
    ->Complexity();

void BM_LocalEnumerationBaseline(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 0);
  if (doc.events().size() > 20) {
    state.SkipWithError("too many events for enumeration");
    return;
  }
  TreePattern pattern = TreePattern::LabelExists("occupation");
  double p = 0;
  for (auto _ : state) {
    p = ProbabilityByEnumeration(doc.events(), [&](const Valuation& v) {
      return pattern.Matches(doc.World(v));
    });
    benchmark::DoNotOptimize(p);
  }
  state.counters["entities"] = entities;
  state.counters["events"] = static_cast<double>(doc.events().size());
  state.counters["P"] = p;
}
BENCHMARK(BM_LocalEnumerationBaseline)->DenseRange(1, 6, 1);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

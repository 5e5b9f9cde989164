// Experiment X3 (§2.1, bounded event scopes): synthetic Wikidata-style
// PrXML with `scope` contributor events reused across all entities.
//
// Shapes: time is ~linear in the number of entities at fixed scope, and
// grows exponentially with the scope parameter (which is exactly what
// the bounded-scope condition permits: the blow-up is confined to the
// scope constant, never to the document size).

#include <benchmark/benchmark.h>

#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

void BM_ScopeSweep(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  const uint32_t scope = static_cast<uint32_t>(state.range(1));
  Rng rng(11 + scope);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, scope);
  TreePattern pattern = TreePattern::LabelExists("statement");
  if (scope == 0) pattern = TreePattern::LabelExists("musician");
  double p = 0;
  for (auto _ : state) {
    GateId lineage = PatternLineage(pattern, doc);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(doc.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = entities;
  state.counters["scope_param"] = scope;
  state.counters["max_scope"] = static_cast<double>(doc.MaxScopeSize());
  state.counters["P"] = p;
}
BENCHMARK(BM_ScopeSweep)
    ->ArgsProduct({{32, 64}, {0, 1, 2, 3, 4}})
    ->Args({32, 5});  // The blow-up in the scope constant is visible
                      // already at 5; larger scopes explode (as the
                      // theory says they may — the bound is on the
                      // constant, not the document).

void BM_ScopeFixedGrowDocument(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(23);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 2);
  TreePattern pattern = TreePattern::LabelExists("statement");
  for (auto _ : state) {
    GateId lineage = PatternLineage(pattern, doc);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(doc.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
  }
  state.counters["entities"] = entities;
  state.SetComplexityN(entities);
}
BENCHMARK(BM_ScopeFixedGrowDocument)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Experiment E1 (paper Figure 1): query evaluation on the Chelsea
// Manning PrXML document, and scaling on forests of Figure-1-style
// entities. Correctness counters report the exact marginals the paper's
// figure implies (0.4 / 0.6 / 0.9 / correlated 0.9).

#include <benchmark/benchmark.h>

#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

PrXmlDocument MakeFigure1() {
  PrXmlDocument doc;
  EventId e_jane = doc.events().Register("eJane", 0.9);
  PNodeId root = doc.AddRoot("Q298423");
  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId occ = doc.AddChild(ind, PNodeKind::kOrdinary, "occupation");
  doc.SetEdgeProbability(occ, 0.4);
  doc.AddChild(occ, PNodeKind::kOrdinary, "musician");
  PNodeId cie1 = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId pob = doc.AddChild(cie1, PNodeKind::kOrdinary, "place of birth");
  doc.SetEdgeLiterals(pob, {{e_jane, true}});
  doc.AddChild(pob, PNodeKind::kOrdinary, "Crescent");
  PNodeId cie2 = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId surname = doc.AddChild(cie2, PNodeKind::kOrdinary, "surname");
  doc.SetEdgeLiterals(surname, {{e_jane, true}});
  doc.AddChild(surname, PNodeKind::kOrdinary, "Manning");
  PNodeId given = doc.AddChild(root, PNodeKind::kOrdinary, "given name");
  PNodeId mux = doc.AddChild(given, PNodeKind::kMux, "");
  PNodeId bradley = doc.AddChild(mux, PNodeKind::kOrdinary, "Bradley");
  doc.SetEdgeProbability(bradley, 0.4);
  PNodeId chelsea = doc.AddChild(mux, PNodeKind::kOrdinary, "Chelsea");
  doc.SetEdgeProbability(chelsea, 0.6);
  doc.Finalize();
  return doc;
}

// Exact Figure-1 marginals, reported as counters so the harness output
// documents the reproduction (expected: 0.4, 0.6, 0.9, 0.9).
void BM_Figure1Marginals(benchmark::State& state) {
  double p_musician = 0, p_chelsea = 0, p_manning = 0, p_both = 0;
  for (auto _ : state) {
    PrXmlDocument doc = MakeFigure1();
    auto prob = [&doc](const TreePattern& pattern) {
      GateId lineage = PatternLineage(pattern, doc);
      return JunctionTreeEngine().Estimate(doc.circuit(), lineage,
                                           doc.events());
    };
    p_musician = prob(TreePattern::LabelExists("musician")).value;
    p_chelsea = prob(TreePattern::LabelExists("Chelsea")).value;
    p_manning = prob(TreePattern::LabelExists("Manning")).value;
    TreePattern both;
    PatternNodeId r = both.AddRoot("Q298423");
    both.AddChild(r, "surname", PatternAxis::kChild);
    both.AddChild(r, "place of birth", PatternAxis::kChild);
    EngineResult estimate = prob(both);
    benchmark::DoNotOptimize(estimate);
    p_both = estimate.value;
  }
  state.counters["P_musician"] = p_musician;
  state.counters["P_Chelsea"] = p_chelsea;
  state.counters["P_Manning"] = p_manning;
  state.counters["P_surname_and_pob"] = p_both;
}
BENCHMARK(BM_Figure1Marginals);

// Scaling: a forest of n Figure-1-style entities (local + one shared
// contributor event); time grows linearly in n at fixed scope.
void BM_Figure1Forest(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(17);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, n, 1);
  TreePattern pattern = TreePattern::LabelExists("musician");
  double p = 0;
  for (auto _ : state) {
    GateId lineage = PatternLineage(pattern, doc);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(doc.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = n;
  state.counters["P"] = p;
  state.SetComplexityN(n);
}
BENCHMARK(BM_Figure1Forest)->RangeMultiplier(2)->Range(8, 256)->Complexity();

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Experiment X12 (§2.1→§2.2 reduction): evaluating automaton-defined
// queries on PrXML via the translation to uncertain trees and the
// provenance-run construction, versus the direct pattern-lineage DP.
// Both are exact and agree; the automaton route additionally supports
// Boolean combinations (product/complement) for free.

#include <benchmark/benchmark.h>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "automata/provenance_run.h"
#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/to_uncertain_tree.h"
#include "prxml/tree_pattern.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

void BM_AutomatonPipeline(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(6);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 1);
  double p = 0;
  size_t gates = 0;
  for (auto _ : state) {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
    TreeAutomaton automaton =
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician"));
    GateId lineage = ProvenanceRun(automaton, tree);
    gates = tree.circuit().NumGates();
    EngineResult estimate =
        JunctionTreeEngine().Estimate(tree.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = entities;
  state.counters["gates"] = static_cast<double>(gates);
  state.counters["P"] = p;
  state.SetComplexityN(entities);
}
BENCHMARK(BM_AutomatonPipeline)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

void BM_PatternLineageReference(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(6);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 1);
  TreePattern pattern = TreePattern::LabelExists("musician");
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
BENCHMARK(BM_PatternLineageReference)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

// Boolean combination (conjunction of two properties with one negated)
// evaluated in a single automaton run: the closure operations the
// pattern DP cannot express directly.
void BM_AutomatonBooleanCombination(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(6);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 1);
  double p = 0;
  for (auto _ : state) {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
    TreeAutomaton has_musician =
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician"));
    TreeAutomaton has_statement =
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("statement"));
    TreeAutomaton combo = TreeAutomaton::Product(
        has_musician, has_statement.Complement(), /*conjunction=*/true);
    GateId lineage = ProvenanceRun(combo, tree);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(tree.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = entities;
  state.counters["P_musician_and_no_statement"] = p;
}
BENCHMARK(BM_AutomatonBooleanCombination)->Arg(32)->Arg(128);

// The same combination through the compiled-first AutomatonExpr API:
// product and complement compose CompiledAutomaton-to-CompiledAutomaton
// and the provenance run consumes the compiled result directly — no
// std::map TreeAutomaton is rebuilt between closure steps.
void BM_AutomatonBooleanCombinationExpr(benchmark::State& state) {
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  Rng rng(6);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(rng, entities, 1);
  double p = 0;
  for (auto _ : state) {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
    AutomatonExpr combo =
        AutomatonExpr::Atom(
            MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician"))) &&
        !AutomatonExpr::Atom(MakeExistsLabel(tree.AlphabetSize(),
                                             labels.Find("statement")));
    GateId lineage = ProvenanceRun(combo.Compile(), tree);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(tree.circuit(), lineage, doc.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["entities"] = entities;
  state.counters["P_musician_and_no_statement"] = p;
}
BENCHMARK(BM_AutomatonBooleanCombinationExpr)->Arg(32)->Arg(128);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

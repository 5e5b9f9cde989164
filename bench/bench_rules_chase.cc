// Experiment X9 (§2.3, probabilistic rules): the truncated chase on
// synthetic KBs. Sweeps chase depth (rounds) for a recursive soft rule
// ("located-in is transitively likely"): derived-fact count and lineage
// size grow with depth, and the probability of a fixed distant fact
// converges as the truncation error shrinks — the paper's "truncate it
// and control the error" mitigation.

#include <benchmark/benchmark.h>

#include "inference/junction_tree.h"
#include "rules/chase.h"
#include "uncertain/c_instance.h"

namespace tud {
namespace {

// A chain KB: In(x0, x1), In(x1, x2), ..., plus the recursive soft rule
// In(x, y) & In(y, z) -> In(x, z) @ 0.9.
CInstance MakeChainKb(uint32_t length, Dictionary& dict) {
  Schema schema;
  schema.AddRelation("In", 2);
  CInstance kb(schema);
  for (uint32_t i = 0; i < length; ++i) {
    Value a = dict.Intern("x" + std::to_string(i));
    Value b = dict.Intern("x" + std::to_string(i + 1));
    kb.AddFact(0, {a, b}, BoolFormula::True());
  }
  return kb;
}

void BM_ChaseDepthSweep(benchmark::State& state) {
  const uint32_t depth = static_cast<uint32_t>(state.range(0));
  const uint32_t length = 6;
  Rule transitive = MakeRule(
      "trans",
      {{0, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{0, {Term::V(0), Term::V(2)}}}, 0.9);
  ChaseOptions options;
  options.max_rounds = depth;
  ChaseResult result{CInstance(Schema()), 0, 0, false};
  double p_far = 0;
  for (auto _ : state) {
    Dictionary dict;
    CInstance kb = MakeChainKb(length, dict);
    result = ProbabilisticChase(kb, {transitive}, dict, options);
    // Probability that the two chain endpoints are connected.
    Value x0 = *dict.Find("x0");
    Value xn = *dict.Find("x" + std::to_string(length));
    p_far = 0;
    for (FactId f = 0; f < result.instance.NumFacts(); ++f) {
      const Fact& fact = result.instance.instance().fact(f);
      if (fact.args == std::vector<Value>{x0, xn}) {
        BoolCircuit c;
        GateId g = c.AddFormula(result.instance.annotation(f));
        EngineResult estimate =
            JunctionTreeEngine().Estimate(c, g, result.instance.events());
        benchmark::DoNotOptimize(estimate);
        p_far = estimate.value;
      }
    }
  }
  state.counters["rounds"] = result.rounds_run;
  state.counters["firings"] = static_cast<double>(result.num_firings);
  state.counters["facts"] =
      static_cast<double>(result.instance.NumFacts());
  state.counters["P_endpoints_connected"] = p_far;
}
BENCHMARK(BM_ChaseDepthSweep)->DenseRange(1, 4, 1);

// Scaling in KB size at fixed depth.
void BM_ChaseKbSizeSweep(benchmark::State& state) {
  const uint32_t length = static_cast<uint32_t>(state.range(0));
  Rule transitive = MakeRule(
      "trans",
      {{0, {Term::V(0), Term::V(1)}}, {0, {Term::V(1), Term::V(2)}}},
      {{0, {Term::V(0), Term::V(2)}}}, 0.9);
  ChaseOptions options;
  options.max_rounds = 2;
  size_t facts = 0;
  for (auto _ : state) {
    Dictionary dict;
    CInstance kb = MakeChainKb(length, dict);
    ChaseResult result = ProbabilisticChase(kb, {transitive}, dict, options);
    facts = result.instance.NumFacts();
    benchmark::DoNotOptimize(facts);
  }
  state.counters["base_facts"] = length;
  state.counters["derived_total"] = static_cast<double>(facts);
}
BENCHMARK(BM_ChaseKbSizeSweep)->DenseRange(4, 16, 4);

// Existential rule: null invention rate under the fact cap.
void BM_ChaseExistentialNulls(benchmark::State& state) {
  Schema schema;
  schema.AddRelation("Advises", 2);
  schema.AddRelation("CoAuthored", 3);
  // Advises(x, y) -> ∃p CoAuthored(x, y, p) @ 0.7.
  Rule coauthor = MakeRule(
      "coauthor", {{0, {Term::V(0), Term::V(1)}}},
      {{1, {Term::V(0), Term::V(1), Term::V(2)}}}, 0.7);
  size_t facts = 0;
  for (auto _ : state) {
    Dictionary dict;
    CInstance kb(schema);
    for (int i = 0; i < 32; ++i) {
      kb.AddFact(0,
                 {dict.Intern("s" + std::to_string(i)),
                  dict.Intern("a" + std::to_string(i % 8))},
                 BoolFormula::True());
    }
    ChaseResult result = ProbabilisticChase(kb, {coauthor}, dict);
    facts = result.instance.NumFacts();
    benchmark::DoNotOptimize(facts);
  }
  state.counters["facts_with_nulls"] = static_cast<double>(facts);
}
BENCHMARK(BM_ChaseExistentialNulls);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

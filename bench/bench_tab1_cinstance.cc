// Experiment E2 (paper Table 1): the trip-booking c-instance —
// possibility/certainty checks, query probability, conditioning — plus
// scaling on synthetic multi-conference trip networks (chain-shaped,
// treewidth 1).

#include <benchmark/benchmark.h>

#include "inference/conditioning.h"
#include "inference/junction_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "util/rng.h"

namespace tud {
namespace {

Schema TripSchema() {
  Schema schema;
  schema.AddRelation("Trip", 2);
  return schema;
}

CInstance MakeTable1() {
  CInstance ci(TripSchema());
  ci.events().Register("pods", 0.7);
  ci.events().Register("stoc", 0.4);
  auto annot = [&ci](const char* text) {
    return *BoolFormula::Parse(text, ci.events());
  };
  ci.AddFact(0, {0, 1}, annot("pods"));
  ci.AddFact(0, {1, 0}, annot("pods & !stoc"));
  ci.AddFact(0, {1, 2}, annot("pods & stoc"));
  ci.AddFact(0, {0, 2}, annot("!pods & stoc"));
  ci.AddFact(0, {2, 0}, annot("stoc"));
  return ci;
}

void BM_Table1FullWorkflow(benchmark::State& state) {
  double p_pdx = 0, p_pdx_given_pods = 0;
  int possible = 0, certain = 0;
  for (auto _ : state) {
    CInstance ci = MakeTable1();
    possible = certain = 0;
    for (FactId f = 0; f < ci.NumFacts(); ++f) {
      if (ci.IsPossible(f)) ++possible;
      if (ci.IsCertain(f)) ++certain;
    }
    PccInstance pcc = PccInstance::FromCInstance(ci);
    ConjunctiveQuery q;
    q.AddAtom(0, {Term::V(0), Term::C(2)});  // Some leg into Portland.
    GateId lineage = ComputeCqLineage(q, pcc);
    p_pdx = JunctionTreeEngine().Estimate(pcc.circuit(), lineage,
                                          pcc.events()).value;
    CInstance cond = ConditionOnEventLiteral(ci, 0, true);
    PccInstance pcc2 = PccInstance::FromCInstance(cond);
    GateId lineage2 = ComputeCqLineage(q, pcc2);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(pcc2.circuit(), lineage2, pcc2.events());
    benchmark::DoNotOptimize(estimate);
    p_pdx_given_pods = estimate.value;
  }
  state.counters["possible_facts"] = possible;
  state.counters["certain_facts"] = certain;
  state.counters["P_reach_PDX"] = p_pdx;
  state.counters["P_reach_PDX_given_pods"] = p_pdx_given_pods;
}
BENCHMARK(BM_Table1FullWorkflow);

// Scaling: a chain of n conferences; leg i exists iff conference i is
// attended (one event per conference). Treewidth-1 instance; query asks
// for two consecutive booked legs.
void BM_TripChain(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(5);
  CInstance ci(TripSchema());
  for (uint32_t i = 0; i < n; ++i) {
    EventId conf = ci.events().Register("conf" + std::to_string(i),
                                        0.3 + 0.4 * rng.UniformDouble());
    ci.AddFact(0, {i, i + 1}, BoolFormula::Var(conf));
  }
  PccInstance pcc = PccInstance::FromCInstance(ci);
  ConjunctiveQuery q;
  q.AddAtom(0, {Term::V(0), Term::V(1)});
  q.AddAtom(0, {Term::V(1), Term::V(2)});
  double p = 0;
  for (auto _ : state) {
    PccInstance fresh = PccInstance::FromCInstance(ci);
    GateId lineage = ComputeCqLineage(q, fresh);
    EngineResult estimate =
        JunctionTreeEngine().Estimate(fresh.circuit(), lineage, fresh.events());
    benchmark::DoNotOptimize(estimate);
    p = estimate.value;
  }
  state.counters["legs"] = n;
  state.counters["P_two_consecutive"] = p;
  state.SetComplexityN(n);
}
BENCHMARK(BM_TripChain)->RangeMultiplier(2)->Range(8, 512)->Complexity();

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Experiment X5: inference-engine comparison on the same lineage
// circuits (from the Theorem-1 workload), now through the unified
// ProbabilityEngine interface: message passing (the paper's method) vs
// BDD compilation (ProvSQL-style knowledge compilation) vs Monte-Carlo
// sampling vs exhaustive enumeration (tiny only), plus the AutoEngine
// planner that picks among them per cone. Counters report probabilities
// so agreement is visible in the output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "prxml/to_uncertain_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "queries/query_session.h"
#include "queries/reachability.h"
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
      JunctionTreeEngine().Estimate(w.pcc.circuit(), w.lineage,
                                    w.pcc.events()).value;
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

// Plan construction alone (JunctionTreeAnalysis + Build, no Execute) on
// the lineages of the cold-query workloads: 8 seeded s-t reachability
// lineages on ladder:48, built in turn, and one two-atom tree-automaton
// lineage over a scoped-cie document whose min-degree order is wide
// enough that Build takes the min-fill fallback.
struct PlanBuildInput {
  std::unique_ptr<PccInstance> pcc;
  std::unique_ptr<TreeQuerySession> session;
  const BoolCircuit* circuit = nullptr;
  std::vector<GateId> roots;
};

PlanBuildInput LadderLineages() {
  PlanBuildInput in;
  in.pcc = std::make_unique<PccInstance>(PccInstance::FromCInstance(
      workloads::MakeInstance(*workloads::ParseInstanceSpec("ladder:48"))
          .ToPcInstance()));
  const auto domain = static_cast<uint32_t>(in.pcc->instance().DomainSize());
  Rng rng(19);
  while (in.roots.size() < 8) {
    const auto s = static_cast<Value>(rng.UniformInt(domain));
    const auto t = static_cast<Value>(rng.UniformInt(domain));
    const GateId root = ComputeReachabilityLineage(*in.pcc, 0, s, t);
    if (in.pcc->circuit().kind(root) != GateKind::kConst) {
      in.roots.push_back(root);
    }
  }
  in.circuit = &in.pcc->circuit();
  return in;
}

PlanBuildInput TreeAutomatonLineage() {
  PlanBuildInput in;
  Rng doc_rng(6);
  const PrXmlDocument doc = workloads::MakeWikidataPrxml(doc_rng, 48, 1);
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  const Label alphabet = tree.AlphabetSize();
  const Label occupation = labels.Find("occupation");
  in.session = std::make_unique<TreeQuerySession>(
      std::move(tree), doc.events(), std::make_unique<JunctionTreeEngine>());
  in.roots.push_back(in.session->Lineage(
      AutomatonExpr::Atom(MakeExistsLabel(alphabet, occupation)) ||
      AutomatonExpr::Atom(MakeEveryBUnderA(alphabet, occupation,
                                           labels.Find("musician")))));
  in.circuit = &in.session->tree().circuit();
  return in;
}

void BM_PlanBuild(benchmark::State& state, PlanBuildInput (*make)()) {
  const PlanBuildInput in = make();
  size_t next = 0, bags = 0;
  int width = 0;
  for (auto _ : state) {
    const JunctionTreePlan plan =
        JunctionTreePlan::Build(*in.circuit, in.roots[next]);
    next = (next + 1) % in.roots.size();
    width = std::max(width, plan.width());
    bags += plan.num_bags();
    benchmark::DoNotOptimize(plan.total_cells());
  }
  state.counters["width"] = width;
  state.counters["avg_bags"] = static_cast<double>(bags) /
                               static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_PlanBuild, ladder48, &LadderLineages);
BENCHMARK_CAPTURE(BM_PlanBuild, tree_automaton, &TreeAutomatonLineage);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

// Perf-trajectory benchmark for the §2.2 automaton pipeline: times the
// legacy std::set/std::map engine against the compiled bitset engine on
// determinisation, product, provenance-run and end-to-end workloads,
// and writes BENCH_automata.json (see bench/harness.h).
//
// Usage: bench_automata_json [min_ms_per_workload] [output.json]

#include <cstdlib>
#include <memory>
#include <string>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "automata/compiled_automaton.h"
#include "automata/provenance_run.h"
#include "automata/tree_automaton.h"
#include "harness.h"
#include "inference/junction_tree.h"
#include "prxml/to_uncertain_tree.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

// A dense random NTA sized so that subset construction does real work.
TreeAutomaton RandomNta(uint64_t seed, uint32_t num_states,
                        Label alphabet) {
  Rng rng(seed);
  TreeAutomaton a(num_states, alphabet);
  for (Label l = 0; l < alphabet; ++l) {
    for (State q = 0; q < num_states; ++q) {
      if (rng.Bernoulli(0.4)) a.AddLeafTransition(l, q);
    }
    for (State ql = 0; ql < num_states; ++ql) {
      for (State qr = 0; qr < num_states; ++qr) {
        uint64_t count = rng.UniformInt(2);
        for (uint64_t i = 0; i < count; ++i) {
          a.AddTransition(l, ql, qr,
                          static_cast<State>(rng.UniformInt(num_states)));
        }
      }
    }
  }
  a.SetAccepting(num_states - 1);
  return a;
}

int Main(int argc, char** argv) {
  const double min_ms = argc > 1 ? std::atof(argv[1]) : 200.0;
  const std::string out = argc > 2 ? argv[2] : "BENCH_automata.json";
  bench::Harness harness;

  // --- Determinisation (subset construction). The NTA is sized so the
  // subset automaton lands in the hundreds of states: big enough that
  // successor computation dominates, small enough that one legacy
  // iteration stays under a second.
  TreeAutomaton nta = RandomNta(11, 9, 2);
  harness.Register("determinize/legacy_set_map",
                   [&] { nta.DeterminizeLegacy(); });
  harness.Register("determinize/compiled_bitset", [&] {
    CompiledAutomaton::Compile(nta).Determinize();
  });

  // --- Product (conjunction of two NTAs). -----------------------------
  TreeAutomaton lhs = RandomNta(21, 12, 4);
  TreeAutomaton rhs = RandomNta(22, 12, 4);
  harness.Register("product/legacy_set_map", [&] {
    TreeAutomaton::ProductLegacy(lhs, rhs, /*conjunction=*/true);
  });
  harness.Register("product/compiled_bitset", [&] {
    CompiledAutomaton::Product(CompiledAutomaton::Compile(lhs),
                               CompiledAutomaton::Compile(rhs),
                               /*conjunction=*/true);
  });

  // --- Provenance run over a PrXML-derived uncertain tree. ------------
  // The uncertain tree must be rebuilt per iteration (the run grows its
  // circuit); both arms pay the identical rebuild, and the tree-only
  // workload records that shared cost.
  Rng doc_rng(6);
  PrXmlDocument doc = workloads::MakeWikidataPrxml(doc_rng, 128, 1);
  auto build_tree = [&](XmlLabelMap& labels, Label& dead) {
    return PrXmlToUncertainTree(doc, labels, &dead);
  };
  harness.Register("provenance/tree_build_only", [&] {
    XmlLabelMap labels;
    Label dead;
    build_tree(labels, dead);
  });
  harness.Register("provenance/legacy", [&] {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = build_tree(labels, dead);
    TreeAutomaton combo = TreeAutomaton::Product(
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician")),
        MakeCountAtLeast(tree.AlphabetSize(), labels.Find("entity"), 2),
        /*conjunction=*/true);
    ProvenanceRunLegacy(combo, tree);
  });
  harness.Register("provenance/compiled", [&] {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = build_tree(labels, dead);
    TreeAutomaton combo = TreeAutomaton::Product(
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician")),
        MakeCountAtLeast(tree.AlphabetSize(), labels.Find("entity"), 2),
        /*conjunction=*/true);
    ProvenanceRun(combo, tree);
  });

  // --- Boolean closure: the TreeAutomaton chain (which round-trips
  // through the std::map representation between steps) vs the same
  // combination compiled end to end by AutomatonExpr.
  TreeAutomaton closure_lhs = RandomNta(31, 8, 2);
  TreeAutomaton closure_rhs = RandomNta(32, 6, 2);
  harness.Register("closure/tree_api_round_trip", [&] {
    TreeAutomaton::Product(closure_lhs, closure_rhs.Complement(),
                           /*conjunction=*/true);
  });
  harness.Register("closure/automaton_expr_compiled", [&] {
    (AutomatonExpr::Atom(closure_lhs) && !AutomatonExpr::Atom(closure_rhs))
        .Compile();
  });

  // --- End-to-end §2.2 pipeline (tree + automaton + provenance + JT).
  harness.Register("pipeline_e2e/boolean_combination", [&] {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = build_tree(labels, dead);
    TreeAutomaton has_musician =
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician"));
    TreeAutomaton has_statement =
        MakeExistsLabel(tree.AlphabetSize(), labels.Find("statement"));
    TreeAutomaton combo = TreeAutomaton::Product(
        has_musician, has_statement.Complement(), /*conjunction=*/true);
    GateId lineage = ProvenanceRun(combo, tree);
    JunctionTreeEngine().Estimate(tree.circuit(), lineage, doc.events());
  });
  harness.Register("pipeline_e2e/boolean_combination_expr", [&] {
    XmlLabelMap labels;
    Label dead;
    UncertainBinaryTree tree = build_tree(labels, dead);
    AutomatonExpr combo =
        AutomatonExpr::Atom(
            MakeExistsLabel(tree.AlphabetSize(), labels.Find("musician"))) &&
        !AutomatonExpr::Atom(MakeExistsLabel(tree.AlphabetSize(),
                                             labels.Find("statement")));
    GateId lineage = ProvenanceRun(combo.Compile(), tree);
    JunctionTreeEngine().Estimate(tree.circuit(), lineage, doc.events());
  });

  // --- MSO reachability, per-query derivation vs session reuse: one
  // iteration = one s-t reachability query (lineage + probability) on a
  // width-2 uncertain ladder.
  Schema edge_schema;
  edge_schema.AddRelation("E", 2);
  Rng ladder_rng(8);
  TidInstance ladder(edge_schema);
  const uint32_t rungs = 48;
  for (uint32_t i = 0; i + 2 < 2 * rungs; i += 2) {
    ladder.AddFact(0, {i, i + 2}, 0.5 + 0.4 * ladder_rng.UniformDouble());
    ladder.AddFact(0, {i + 1, i + 3},
                   0.5 + 0.4 * ladder_rng.UniformDouble());
    ladder.AddFact(0, {i, i + 1}, 0.3 + 0.4 * ladder_rng.UniformDouble());
  }
  CInstance ladder_pc = ladder.ToPcInstance();
  harness.Register("mso_reachability/fresh_per_query", [&] {
    PccInstance pcc = PccInstance::FromCInstance(ladder_pc);
    GateId lineage = ComputeReachabilityLineage(pcc, 0, 0, 2 * rungs - 2);
    JunctionTreeEngine().Estimate(pcc.circuit(), lineage, pcc.events());
  });
  QuerySession ladder_session = QuerySession::FromCInstance(
      ladder_pc, std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  harness.Register("mso_reachability/session_reuse", [&] {
    GateId lineage = ladder_session.ReachabilityLineage(0, 0, 2 * rungs - 2);
    ladder_session.Probability(lineage);
  });

  // --- The numeric junction-tree pass alone (the pass the flat arenas
  // target), on the ladder lineage's prebuilt plan, under the default
  // unlimited budget.
  PccInstance jt_pcc = PccInstance::FromCInstance(ladder_pc);
  GateId jt_lineage = ComputeReachabilityLineage(jt_pcc, 0, 0, 2 * rungs - 2);
  JunctionTreePlan jt_plan =
      JunctionTreePlan::Build(jt_pcc.circuit(), jt_lineage);
  harness.Register("jt_execute/ladder48", [&] {
    jt_plan.Execute(jt_pcc.events());
  });

  // --- The same pass under a (generous) budget: it pays a real
  // BudgetMeter::Charge per bag — amortised clock reads, cell
  // accounting — where the unlimited budget takes one early return, and
  // the budget/overhead row below pins that cost against the row
  // above. The budget carries a real deadline and
  // cell cap so the meter takes the same branches a production-governed
  // query takes; it is sized to never trip.
  QueryBudget jt_budget = QueryBudget::WithDeadlineMs(3600.0 * 1000.0);
  jt_budget.max_table_cells = uint64_t{1} << 40;
  harness.Register("jt_execute/ladder48_governed", [&] {
    double governed_value = 0.0;
    jt_plan.ExecuteGoverned(jt_pcc.events(), {}, nullptr, jt_budget,
                            &governed_value);
  });

  // --- Batched evaluation: a 32-query battery over one lineage's
  // sub-gates (the question-selection workload: the marginal of every
  // internal hypothesis of one reachability lineage), sequentially vs
  // one ProbabilityBatch call. The cones coincide, so the batch runs as
  // a single calibrating pass over the shared decomposition.
  GateId battery_lineage =
      ladder_session.ReachabilityLineage(0, 0, 2 * rungs - 2);
  std::vector<GateId> battery_cone =
      ladder_session.pcc().circuit().ReachableFrom(battery_lineage);
  std::vector<GateId> battery;
  for (size_t i = 0; i < battery_cone.size() && battery.size() < 31;
       i += battery_cone.size() / 31) {
    battery.push_back(battery_cone[i]);
  }
  battery.push_back(battery_lineage);
  harness.Register("batch/sequential_32_queries", [&] {
    for (GateId g : battery) ladder_session.Probability(g);
  });
  harness.Register("batch/probability_batch_32", [&] {
    ladder_session.ProbabilityBatch(battery);
  });

  // --- A 32-target reachability battery ("which of these vertices
  // does the source reach?") on a path instance, compiled through the
  // target-indexed connectivity DP so each chunk's lineages share one
  // narrow cone: sequentially (one plan-cached pass per root) vs one
  // ProbabilityBatch call, which the batch cost model routes through
  // shared calibrating passes.
  const uint32_t path_n = 96;
  Rng path_rng(8);
  TidInstance path_tid(edge_schema);
  for (Value v = 0; v + 1 < path_n; ++v) {
    path_tid.AddFact(0, {v, v + 1}, 0.5 + 0.45 * path_rng.UniformDouble());
  }
  QuerySession path_session = QuerySession::FromCInstance(
      path_tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  std::vector<Value> path_targets;
  for (uint32_t k = 1; k <= 32; ++k) {
    path_targets.push_back(static_cast<Value>((k * (path_n - 1)) / 32));
  }
  std::vector<GateId> path_battery =
      path_session.ReachabilityLineageBatch(0, 0, path_targets);
  harness.Register("batch/reachability32_sequential", [&] {
    for (GateId g : path_battery) path_session.Probability(g);
  });
  harness.Register("batch/reachability32", [&] {
    path_session.ProbabilityBatch(path_battery);
  });

  std::vector<bench::BenchResult> results = harness.RunAll(min_ms);

  // Synthesize the budget/overhead row: bag-granularity governance cost
  // as a percentage of the unlimited-budget pass (the acceptance pin
  // is < 2% on this workload).
  {
    const bench::BenchResult* ungoverned = nullptr;
    const bench::BenchResult* governed = nullptr;
    for (const bench::BenchResult& r : results) {
      if (r.name == "jt_execute/ladder48") ungoverned = &r;
      if (r.name == "jt_execute/ladder48_governed") governed = &r;
    }
    if (ungoverned != nullptr && governed != nullptr &&
        ungoverned->ns_per_iter > 0) {
      bench::BenchResult overhead;
      overhead.name = "budget/overhead";
      overhead.ns_per_iter = governed->ns_per_iter - ungoverned->ns_per_iter;
      overhead.iters = governed->iters;
      overhead.counters = {
          {"governed_ns", governed->ns_per_iter},
          {"ungoverned_ns", ungoverned->ns_per_iter},
          {"overhead_pct", 100.0 *
                               (governed->ns_per_iter -
                                ungoverned->ns_per_iter) /
                               ungoverned->ns_per_iter}};
      results.push_back(std::move(overhead));
    }
  }
  if (!bench::Harness::WriteJson(results, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace tud

int main(int argc, char** argv) { return tud::Main(argc, argv); }

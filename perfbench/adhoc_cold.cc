// adhoc-cold: the ad-hoc analyst. One closed-loop client opens a
// session on ladder:48 and asks a seeded stream of distinct s-t
// reachability queries, none asked twice in a run. One operation is
// lineage construction, plan build and execution through the session's
// junction-tree engine (no plan cache: nothing repeats). Plan
// construction dominates, the numeric pass is small.
//
// Rounds of kQueriesPerRound queries, each on a freshly opened session,
// so the cost of a query and the memory a run holds do not depend on how
// many queries earlier rounds completed.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

constexpr char kSpec[] = "ladder:48";
constexpr size_t kQueriesPerRound = 64;
constexpr size_t kWarmupQueries = 16;
constexpr size_t kChecksPerRound = 2;
constexpr int kMinRounds = 3;
constexpr double kTolerance = 1e-12;

std::unique_ptr<tud::QuerySession> OpenSession(
    const tud::workloads::InstanceSpec& spec, Tracer* tracer) {
  const auto t0 = Clock::now();
  tud::TidInstance tid = tud::workloads::MakeInstance(spec);
  auto session = std::make_unique<tud::QuerySession>(
      tud::QuerySession::FromCInstance(
          tid.ToPcInstance(), std::make_unique<tud::JunctionTreeEngine>()));
  const auto t1 = Clock::now();
  const int width = session->Decomposition().width;
  const auto t2 = Clock::now();
  if (tracer != nullptr) {
    tracer->Sample("relational.open_us", MicrosBetween(t0, t1));
    tracer->Sample("treedec.decompose_us", MicrosBetween(t1, t2));
    tracer->Sample("treedec.width", width);
  }
  return session;
}

/// One query through the layers' public calls, each timed as a span.
/// Returns the answer; `*ok` is false if the plan could not be built.
double TracedQuery(tud::QuerySession& session, uint32_t source,
                   uint32_t target, tud::PlanScratch& scratch,
                   Tracer& tracer, double* op_us, bool* ok) {
  const tud::BoolCircuit& circuit = session.pcc().circuit();
  tracer.BeginOp();
  const size_t gates_before = circuit.NumGates();
  const auto t0 = Clock::now();
  const tud::GateId root = session.ReachabilityLineage(0, source, target);
  const auto t1 = Clock::now();
  tud::JunctionTreeAnalysis analysis =
      tud::JunctionTreeAnalysis::Analyze(circuit, root);
  const auto t2 = Clock::now();
  if (!analysis.trivial()) analysis.MinDegreeWidth();
  const auto t3 = Clock::now();
  const tud::JunctionTreePlan plan =
      tud::JunctionTreePlan::Build(std::move(analysis));
  const auto t4 = Clock::now();
  *ok = plan.build_status() == tud::EngineStatus::kOk;
  const double value = *ok ? plan.Execute(session.pcc().events(), {}, &scratch)
                           : 0.0;
  const auto t5 = Clock::now();
  tracer.Span("queries.lineage_us", MicrosBetween(t0, t1));
  tracer.Span("inference.analyze_us", MicrosBetween(t1, t2));
  tracer.Span("inference.order_us", MicrosBetween(t2, t3));
  tracer.Span("inference.lower_us", MicrosBetween(t3, t4));
  tracer.Span("inference.execute_us", MicrosBetween(t4, t5));
  tracer.EndOp();
  *op_us = MicrosBetween(t0, t5);

  tracer.Sample("queries.lineage_gates",
                static_cast<double>(circuit.NumGates() - gates_before));
  tracer.Sample("inference.cells", plan.total_cells());
  tracer.Sample("inference.plan_width", plan.width());
  tracer.Sample("inference.plan_bags", static_cast<double>(plan.num_bags()));
  if (plan.total_cells() > 0) {
    tracer.Sample("inference.ns_per_cell",
                  MicrosBetween(t4, t5) * 1000.0 / plan.total_cells());
  }
  // Off the operation path: asking the same lineage again (the
  // hash-consed rerun a repeated query pays today).
  const auto r0 = Clock::now();
  session.ReachabilityLineage(0, source, target);
  tracer.Sample("queries.lineage_rerun_us", MicrosBetween(r0, Clock::now()));
  return value;
}

struct Answer {
  uint32_t source;
  uint32_t target;
  double value;
};

}  // namespace

void RunAdhocCold(const Options& options, Report& report) {
  // The instance is the named spec (its library default seed); the run
  // seed drives which questions are asked.
  const tud::workloads::InstanceSpec spec =
      *tud::workloads::ParseInstanceSpec(kSpec);
  const auto pairs = ShuffledLadderPairs(spec.n, DeriveSeed(options.seed, 2));
  tud::Rng pick(DeriveSeed(options.seed, 3));

  report.Param("spec", kSpec);
  report.Param("client", "closed loop, 1 client");
  report.Param("engine", "JunctionTreeEngine, no plan cache");
  report.Param("queries_per_round", kQueriesPerRound);
  report.Param("checks_per_round", kChecksPerRound);
  report.Param("distinct_pairs", static_cast<double>(pairs.size()));

  std::vector<double> setup_s, op_us, traced_op_us;
  double busy_us = 0;  // Time spent in timed untraced operations.
  std::vector<Answer> checked;
  Tracer tracer;
  tud::PlanScratch scratch;
  size_t next_pair = 0;
  size_t first_timed_pair = 0;
  bool replayed = false;

  RoundClock clock(options, kMinRounds);
  while (clock.Next()) {
    const bool warmup = clock.warmup();
    const bool traced = clock.traced();
    if (!warmup && first_timed_pair == 0) first_timed_pair = next_pair;
    if (traced && !replayed) {
      // The traced half replays the untraced half's queries, so the two
      // medians differ only by the tracing.
      next_pair = first_timed_pair;
      replayed = true;
    }
    const size_t heap_before = HeapBytes();
    const auto t0 = Clock::now();
    std::unique_ptr<tud::QuerySession> session =
        OpenSession(spec, traced ? &tracer : nullptr);
    if (!warmup) setup_s.push_back(SecondsSince(t0));

    const size_t n = warmup ? kWarmupQueries : kQueriesPerRound;
    const size_t check_a = pick.UniformInt(n);
    const size_t check_b = (check_a + 1 + pick.UniformInt(n - 1)) % n;
    std::vector<double> round_us;
    round_us.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Wraps only if a run outlasts every distinct pair.
      const auto [source, target] = pairs[next_pair++ % pairs.size()];
      double value = 0, us = 0;
      bool ok = false;
      if (traced) {
        value = TracedQuery(*session, source, target, scratch, tracer, &us,
                            &ok);
      } else {
        const auto a = Clock::now();
        const tud::EngineResult result = session->Probability(
            session->ReachabilityLineage(0, source, target));
        us = MicrosBetween(a, Clock::now());
        ok = result.ok();
        value = result.value;
      }
      report.Attempt(ok);
      round_us.push_back(us);
      if (ok && (i == check_a || i == check_b))
        checked.push_back({source, target, value});
    }
    if (warmup) continue;
    report.SampleHeap(heap_before);
    auto& all_us = traced ? traced_op_us : op_us;
    all_us.insert(all_us.end(), round_us.begin(), round_us.end());
    if (!traced) busy_us += Sum(round_us);
  }

  // Correctness gate: the seeded subset again, each from scratch in a
  // fresh session over a freshly generated instance.
  for (size_t i = 0; i < checked.size(); ++i) {
    const Answer& a = checked[i];
    tud::TidInstance tid = tud::workloads::MakeInstance(spec);
    tud::QuerySession fresh = tud::QuerySession::FromCInstance(
        tid.ToPcInstance(), std::make_unique<tud::JunctionTreeEngine>());
    const tud::EngineResult ref =
        fresh.Probability(fresh.ReachabilityLineage(0, a.source, a.target));
    double expected = ref.value;
    if (options.corrupt_reference && i == 0) expected += 1e-6;
    if (!ref.ok() || !(std::fabs(expected - a.value) <= kTolerance)) {
      report.Miss("adhoc-cold " + std::to_string(a.source) + "->" +
                  std::to_string(a.target) + ": " + std::to_string(a.value) +
                  " vs reference " + std::to_string(expected));
    }
  }
  report.Param("answers_checked", static_cast<double>(checked.size()));

  if (!options.trace) {
    report.Metric("ops_per_s",
                  static_cast<double>(op_us.size()) * 1e6 / busy_us);
    report.Metric("p50_us", Quantile(op_us, 0.5));
    report.Metric("p90_us", Quantile(op_us, 0.9));
    report.Metric("setup_s", Median(setup_s));
    return;
  }
  for (const char* name :
       {"relational.open_us", "treedec.decompose_us", "treedec.width",
        "queries.lineage_us", "queries.lineage_gates",
        "queries.lineage_rerun_us", "inference.analyze_us",
        "inference.order_us", "inference.lower_us", "inference.execute_us",
        "inference.cells", "inference.ns_per_cell", "inference.plan_width",
        "inference.plan_bags"}) {
    report.Metric(name, tracer.Median(name));
  }
  // Every query builds its own plan; there is no cache to hit.
  report.Metric("inference.plan_builds", kQueriesPerRound);
  report.Metric("inference.plan_hit_ratio", 0);
  ReportTraceSummary(op_us, traced_op_us, tracer, report);
}

}  // namespace perfbench

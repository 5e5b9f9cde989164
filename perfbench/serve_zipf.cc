// serve-zipf: the dashboard fleet. On ladder:48, 64 prewarmed
// reachability lineages are asked in a zipf(0.99) mix through a
// ServingSession. Lineage and plan construction happen in set-up only,
// so the serving path is Execute plus the scheduler.
//
// Two phases on one session with kWorkers workers:
//  - closed loop (the untraced run): one submitter keeps kWindow
//    requests outstanding; gives ops_per_s and the request latencies
//    p50/p90 (submission to result), each the median over kSlices
//    slices of the slice's value;
//  - open loop (the traced run): Poisson arrivals at a fixed kOpenRate,
//    40% of the closed-loop capacity, each request timed from the
//    moment it was due; gives the serving.* layer metrics. If the
//    backlog at the end of the phase exceeds kMaxBacklog the rate is
//    above capacity and the phase fails instead of reporting a number.
// Open-loop latencies are not end-to-end metrics: on the virtual
// machine this was tuned on, the guest's threads stall for milliseconds
// at a time, and the open-loop p50 moved 1.5x and the p90 8x between
// runs of the same code, at every rate tried.
// One worker: with two, the closed-loop throughput of the same code on
// the machine this was tuned on fell into two clusters 30% apart from
// run to run (spread 27% over ten runs, against 15% with one worker).
// The serving path (submission, coalescing, scheduler, plan cache,
// futures) is the same; contention between workers is not measured.

#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/budget.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

constexpr char kSpec[] = "ladder:48";
constexpr uint32_t kLineages = 64;
constexpr uint32_t kEndLevels = 6;
constexpr double kTheta = 0.99;
constexpr unsigned kWorkers = 1;
constexpr size_t kWindow = 48;
constexpr double kOpenRate = 1700;  // Requests per second.
constexpr size_t kMaxBacklog = 1700;  // One second of arrivals.
constexpr int kSlices = 10;
constexpr int kSetupRepeats = 5;
constexpr double kClosedWarmupS = 0.5;
constexpr double kOpenWarmupS = 0.3;
constexpr int kIsolatedExecutes = 15;
constexpr int kGovernedPairs = 2000;

/// Everything set-up builds. Members are destroyed in reverse order, so
/// the serving session stops before the circuit it reads goes away.
struct ServeState {
  std::unique_ptr<tud::QuerySession> session;
  std::vector<tud::GateId> lineages;
  std::unique_ptr<tud::serving::ServingSession> serving;
};

ServeState SetUp(const tud::workloads::InstanceSpec& spec,
                 const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                 Tracer* tracer) {
  ServeState state;
  const auto t0 = Clock::now();
  tud::TidInstance tid = tud::workloads::MakeInstance(spec);
  state.session = std::make_unique<tud::QuerySession>(
      tud::QuerySession::FromCInstance(tid.ToPcInstance()));
  const auto t1 = Clock::now();
  const int width = state.session->Decomposition().width;
  const auto t2 = Clock::now();
  if (tracer != nullptr) {
    tracer->Sample("relational.open_us", MicrosBetween(t0, t1));
    tracer->Sample("treedec.decompose_us", MicrosBetween(t1, t2));
    tracer->Sample("treedec.width", width);
  }
  const tud::BoolCircuit& circuit = state.session->pcc().circuit();
  for (uint32_t i = 0; i < kLineages; ++i) {
    const auto [source, target] = pairs[i];
    const size_t gates_before = circuit.NumGates();
    const auto a = Clock::now();
    state.lineages.push_back(
        state.session->ReachabilityLineage(0, source, target));
    const auto b = Clock::now();
    if (tracer != nullptr) {
      tracer->Sample("queries.lineage_us", MicrosBetween(a, b));
      tracer->Sample("queries.lineage_gates",
                     static_cast<double>(circuit.NumGates() - gates_before));
      state.session->ReachabilityLineage(0, source, target);
      tracer->Sample("queries.lineage_rerun_us",
                     MicrosBetween(b, Clock::now()));
    }
  }
  tud::serving::ServingOptions serving_options;
  serving_options.num_threads = kWorkers;
  state.serving = std::make_unique<tud::serving::ServingSession>(
      circuit, state.session->pcc().events(), serving_options);
  for (tud::GateId lineage : state.lineages) state.serving->Prewarm(lineage);
  return state;
}

/// kLineages long-range reachable pairs, from the lowest kEndLevels
/// levels of the ladder to the highest ones, chosen by `seed`: the
/// dashboard asks end-to-end questions of similar size, as the
/// canonical s-t query.
std::vector<std::pair<uint32_t, uint32_t>> LongRangePairs(uint32_t rungs,
                                                          uint64_t seed) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& [source, target] : ShuffledLadderPairs(rungs, seed)) {
    if (source < 2 * kEndLevels && target >= 2 * (rungs - kEndLevels))
      pairs.emplace_back(source, target);
  }
  pairs.resize(kLineages);
  return pairs;
}

/// The zipf request mix; popularity ranks are mapped to lineages through
/// a seeded permutation, so the hot set is not the construction order.
class RequestMix {
 public:
  explicit RequestMix(uint64_t seed)
      : zipf_(kLineages, kTheta), rng_(seed), perm_(kLineages) {
    for (uint32_t i = 0; i < kLineages; ++i) perm_[i] = i;
    for (uint32_t i = kLineages; i > 1; --i)
      std::swap(perm_[i - 1], perm_[rng_.UniformInt(i)]);
  }
  uint32_t Next() { return perm_[zipf_.Next(rng_)]; }
  uint32_t hottest() const { return perm_[0]; }

 private:
  tud::workloads::ZipfianGenerator zipf_;
  tud::Rng rng_;
  std::vector<uint32_t> perm_;
};

/// Checks one answer bit for bit against the sequential reference.
void CheckAnswer(const tud::EngineResult& result, uint32_t index,
                 const std::vector<double>& reference, Report& report,
                 uint64_t* shed) {
  report.Attempt(result.ok());
  if (result.status == tud::EngineStatus::kRejected) ++*shed;
  if (result.ok() && result.value != reference[index]) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "serve-zipf lineage %u: %.17g vs %.17g",
                  index, result.value, reference[index]);
    report.Miss(buf);
  }
}

/// Per-slice completion rates and latency percentiles of a closed loop.
struct ClosedLoopResult {
  std::vector<double> rate, p50_us, p90_us;
};

/// Closed loop for `seconds` in `slices` slices.
ClosedLoopResult ClosedLoop(ServeState& state, RequestMix& mix,
                            const std::vector<double>& reference,
                            double seconds, int slices, Report& report,
                            uint64_t* shed) {
  struct Pending {
    std::future<tud::EngineResult> future;
    uint32_t index;
    Clock::time_point submitted;
  };
  std::deque<Pending> window;
  std::vector<double> latency_us;
  auto submit = [&] {
    const uint32_t index = mix.Next();
    const auto now = Clock::now();
    window.push_back(
        {state.serving->Submit(state.lineages[index]), index, now});
  };
  auto complete = [&] {
    Pending& front = window.front();
    CheckAnswer(front.future.get(), front.index, reference, report, shed);
    latency_us.push_back(MicrosBetween(front.submitted, Clock::now()));
    window.pop_front();
  };
  ClosedLoopResult out;
  while (window.size() < kWindow) submit();
  for (int s = 0; s < slices; ++s) {
    const auto start = Clock::now();
    latency_us.clear();
    double elapsed = 0;
    while ((elapsed = SecondsSince(start)) < seconds / slices) {
      complete();
      submit();
    }
    out.rate.push_back(static_cast<double>(latency_us.size()) / elapsed);
    out.p50_us.push_back(Quantile(latency_us, 0.5));
    out.p90_us.push_back(Quantile(latency_us, 0.9));
  }
  while (!window.empty()) complete();
  return out;
}

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< Completion minus due time.
  std::vector<int> slice;           ///< Slice of the due time.
  std::vector<double> sojourn_us;  ///< Completion minus submission.
  std::vector<double> gen_late_us;  ///< Submission minus due time.
  std::vector<uint32_t> index;
  size_t max_backlog = 0;
  size_t final_backlog = 0;
};

/// Median over the phase's slices of the q-quantile of the latencies
/// due in each slice: a transient stall moves one slice, not the result.
double SlicedQuantile(const OpenLoopResult& phase, double q) {
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t k = 0; k < phase.latency_us.size(); ++k)
    slices[phase.slice[k]].push_back(phase.latency_us[k]);
  std::vector<double> per_slice;
  for (auto& slice : slices)
    if (!slice.empty()) per_slice.push_back(Quantile(std::move(slice), q));
  return Median(per_slice);
}

/// Open loop at kOpenRate for `seconds`, Poisson arrivals. A single
/// client thread submits on schedule and polls the outstanding futures
/// between submissions.
OpenLoopResult OpenLoop(ServeState& state, RequestMix& mix,
                        const std::vector<double>& reference, double seconds,
                        uint64_t seed, Report& report, uint64_t* shed) {
  struct Request {
    Clock::time_point due, submitted;
    uint32_t index;
    std::future<tud::EngineResult> future;
  };
  std::vector<Request> requests;
  requests.reserve(static_cast<size_t>(kOpenRate * seconds * 1.5) + 64);
  std::vector<size_t> outstanding;
  OpenLoopResult out;
  tud::Rng arrivals(seed);
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            -std::log(1.0 - arrivals.UniformDouble()) / kOpenRate));
  };

  const auto start = Clock::now();
  auto poll = [&] {
    for (size_t k = 0; k < outstanding.size();) {
      Request& r = requests[outstanding[k]];
      if (r.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const auto done = Clock::now();
      CheckAnswer(r.future.get(), r.index, reference, report, shed);
      out.latency_us.push_back(MicrosBetween(r.due, done));
      out.slice.push_back(std::min(
          kSlices - 1, static_cast<int>(kSlices * MicrosBetween(start, r.due) *
                                        1e-6 / seconds)));
      out.sojourn_us.push_back(MicrosBetween(r.submitted, done));
      out.gen_late_us.push_back(MicrosBetween(r.due, r.submitted));
      out.index.push_back(r.index);
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
  };

  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto next_due = start + gap();
  for (auto now = Clock::now(); now < end; now = Clock::now()) {
    while (next_due <= now) {
      const uint32_t index = mix.Next();
      requests.push_back({next_due, Clock::now(), index,
                          state.serving->Submit(state.lineages[index])});
      outstanding.push_back(requests.size() - 1);
      next_due += gap();
    }
    poll();
    out.max_backlog = std::max(out.max_backlog, outstanding.size());
  }
  out.final_backlog = outstanding.size();
  while (!outstanding.empty()) poll();
  return out;
}

}  // namespace

void RunServeZipf(const Options& options, Report& report) {
  // The instance is the named spec (its library default seed); the run
  // seed drives which questions are asked.
  const tud::workloads::InstanceSpec spec =
      *tud::workloads::ParseInstanceSpec(kSpec);
  const auto pairs = LongRangePairs(spec.n, DeriveSeed(options.seed, 2));
  RequestMix mix(DeriveSeed(options.seed, 3));

  report.Param("spec", kSpec);
  report.Param("lineages", kLineages);
  report.Param("zipf_theta", kTheta);
  report.Param("workers", kWorkers);
  report.Param("closed_window", static_cast<double>(kWindow));
  report.Param("open_rate_per_s", kOpenRate);
  report.Param("open_arrivals", "poisson");
  report.Param("max_backlog", static_cast<double>(kMaxBacklog));
  report.Param("setup_repeats", kSetupRepeats);

  // Set-up several times (each a complete state); keep the last.
  Tracer tracer;
  std::vector<double> setup_s;
  ServeState state;
  size_t heap_before = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.serving.reset();  // Stop serving before its circuit goes.
    state.session.reset();
    heap_before = HeapBytes();
    const auto t0 = Clock::now();
    state = SetUp(spec, pairs,
                  options.trace && i + 1 == kSetupRepeats ? &tracer : nullptr);
    setup_s.push_back(SecondsSince(t0));
  }
  const size_t builds_after_prewarm = state.serving->plan_cache().builds();

  // The reference: an untimed sequential Execute of each lineage.
  const tud::BoolCircuit& circuit = state.session->pcc().circuit();
  const tud::EventRegistry& events = state.session->pcc().events();
  tud::PlanScratch scratch;
  std::vector<double> reference;
  for (tud::GateId lineage : state.lineages)
    reference.push_back(
        tud::JunctionTreePlan::Build(circuit, lineage).Execute(events, {},
                                                               &scratch));
  if (options.corrupt_reference) reference[mix.hottest()] += 1e-9;

  uint64_t shed = 0;
  if (!options.trace) {
    ClosedLoop(state, mix, reference, kClosedWarmupS, 1, report, &shed);
    const ClosedLoopResult closed = ClosedLoop(
        state, mix, reference, 0.9 * options.seconds, kSlices, report, &shed);
    report.SampleHeap(heap_before);
    report.Metric("ops_per_s", Median(closed.rate));
    report.Metric("p50_us", Median(closed.p50_us));
    report.Metric("p90_us", Median(closed.p90_us));
    report.Metric("setup_s", Median(setup_s));
    return;
  }

  // Traced run: the open loop, untraced and then traced.
  const double phase_s = 0.45 * options.seconds;
  OpenLoop(state, mix, reference, kOpenWarmupS, DeriveSeed(options.seed, 4),
           report, &shed);
  const OpenLoopResult open = OpenLoop(state, mix, reference, phase_s,
                                       DeriveSeed(options.seed, 5), report,
                                       &shed);
  auto guard_backlog = [&](const OpenLoopResult& phase) {
    if (phase.final_backlog > kMaxBacklog) {
      report.Miss("serve-zipf open loop: backlog " +
                  std::to_string(phase.final_backlog) +
                  " at the end of the phase; the rate is above capacity");
    }
  };
  guard_backlog(open);

  // Each lineage's isolated Execute on its cached plan.
  std::vector<double> isolated_us(kLineages), cells(kLineages);
  std::vector<const tud::JunctionTreePlan*> plans(kLineages);
  for (uint32_t i = 0; i < kLineages; ++i) {
    plans[i] = state.serving->plan_cache().Lookup(state.lineages[i]);
    if (plans[i] == nullptr) {
      report.Miss("serve-zipf: prewarmed plan missing from the cache");
      return;
    }
    std::vector<double> runs;
    for (int r = 0; r < kIsolatedExecutes + 2; ++r) {
      const auto a = Clock::now();
      plans[i]->Execute(events, {}, &scratch);
      if (r >= 2) runs.push_back(MicrosBetween(a, Clock::now()));
    }
    isolated_us[i] = Median(runs);
    cells[i] = plans[i]->total_cells();
  }

  // The traced open-loop phase: the request's path split into
  // generator lateness, queue wait and its lineage's isolated Execute.
  const OpenLoopResult traced = OpenLoop(state, mix, reference, phase_s,
                                         DeriveSeed(options.seed, 6), report,
                                         &shed);
  guard_backlog(traced);
  for (size_t k = 0; k < traced.index.size(); ++k) {
    const uint32_t i = traced.index[k];
    tracer.BeginOp();
    tracer.Span("serving.gen_late_us", traced.gen_late_us[k]);
    tracer.Span("serving.queue_wait_us",
                traced.sojourn_us[k] - isolated_us[i]);
    tracer.Span("inference.execute_us", isolated_us[i]);
    tracer.EndOp();
    tracer.Sample("serving.sojourn_us", traced.sojourn_us[k]);
    tracer.Sample("inference.cells", cells[i]);
    tracer.Sample("inference.ns_per_cell", isolated_us[i] * 1000.0 / cells[i]);
    tracer.Sample("inference.plan_width", plans[i]->width());
    tracer.Sample("inference.plan_bags",
                  static_cast<double>(plans[i]->num_bags()));
  }

  // Governed vs ungoverned Execute as interleaved A/B pairs on the same
  // plan, alternating which goes first; the median per-pair ratio.
  std::vector<double> ratios;
  const tud::QueryBudget budget = tud::QueryBudget::WithDeadlineMs(600000);
  for (int p = 0; p < kGovernedPairs; ++p) {
    const tud::JunctionTreePlan& plan = *plans[mix.Next()];
    double governed_us = 0, plain_us = 0, value = 0;
    for (int side = 0; side < 2; ++side) {
      const bool governed = (side == 0) == (p % 2 == 0);
      const auto a = Clock::now();
      if (governed) {
        const tud::EngineStatus status =
            plan.ExecuteGoverned(events, {}, &scratch, budget, &value);
        governed_us = MicrosBetween(a, Clock::now());
        report.Attempt(status == tud::EngineStatus::kOk);
      } else {
        plan.Execute(events, {}, &scratch);
        plain_us = MicrosBetween(a, Clock::now());
      }
    }
    ratios.push_back(governed_us / plain_us);
  }

  for (const char* name :
       {"relational.open_us", "treedec.decompose_us", "treedec.width",
        "queries.lineage_us", "queries.lineage_gates",
        "queries.lineage_rerun_us", "inference.execute_us", "inference.cells",
        "inference.ns_per_cell", "inference.plan_width", "inference.plan_bags",
        "serving.sojourn_us", "serving.queue_wait_us",
        "serving.gen_late_us"}) {
    report.Metric(name, tracer.Median(name));
  }
  const size_t builds = state.serving->plan_cache().builds();
  report.Metric("inference.plan_builds", static_cast<double>(builds));
  report.Metric("inference.plan_hit_ratio",
                1.0 - static_cast<double>(builds - builds_after_prewarm) /
                          static_cast<double>(report.attempted()));
  report.Metric("inference.governed_overhead_pct",
                (Median(ratios) - 1.0) * 100.0);
  report.Metric("serving.open_p50_us", SlicedQuantile(open, 0.5));
  report.Metric("serving.open_p90_us", SlicedQuantile(open, 0.9));
  report.Metric("serving.max_backlog",
                static_cast<double>(std::max(open.max_backlog,
                                             traced.max_backlog)));
  report.Metric("serving.shed", static_cast<double>(shed));
  report.Metric("serving.failed_tasks",
                static_cast<double>(state.serving->failed_tasks()));
  ReportTraceSummary(open.latency_us, traced.latency_us, tracer, report);
}

}  // namespace perfbench

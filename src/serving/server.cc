#include "serving/server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "automata/uncertain_tree.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/pcc_instance.h"
#include "util/check.h"

namespace tud {
namespace serving {

namespace {

/// Every answer the session computes comes from a junction-tree plan;
/// admission rejections are the serving layer's own.
constexpr const char* kEngineName = "junction_tree";
constexpr const char* kServingName = "serving";

TaskScheduler::Options SchedulerOptions(const ServingOptions& options) {
  TaskScheduler::Options so;
  so.num_threads = options.num_threads;
  so.queue_capacity = options.queue_capacity;
  return so;
}

/// The arena a query executes on: the worker's own, or — for Evaluate
/// on a caller thread — one reused per thread, so neither path
/// allocates an arena per call.
PlanScratch* QueryScratch() {
  if (PlanScratch* worker = TaskScheduler::CurrentScratch()) return worker;
  static thread_local PlanScratch caller;
  return &caller;
}

/// EWMA step with alpha = 1/8, seeded by the first sample.
uint64_t EwmaStep(uint64_t old_value, uint64_t sample) {
  return old_value == 0 ? sample : old_value - old_value / 8 + sample / 8;
}

}  // namespace

ServingSession::ServingSession(const BoolCircuit& circuit,
                               const EventRegistry& registry,
                               const ServingOptions& options)
    : options_(options), scheduler_(SchedulerOptions(options)) {
  // A fixed snapshot that borrows the caller's circuit and registry
  // (aliasing shared_ptrs with no owner) and owns its plan cache.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->circuit = std::shared_ptr<const BoolCircuit>(
      std::shared_ptr<const BoolCircuit>(), &circuit);
  snapshot->registry = std::shared_ptr<const EventRegistry>(
      std::shared_ptr<const EventRegistry>(), &registry);
  snapshot->plans = std::make_shared<ConcurrentPlanCache>();
  fixed_ = std::move(snapshot);
}

ServingSession::ServingSession(const incremental::EpochManager& epochs,
                               const ServingOptions& options)
    : epochs_(&epochs), options_(options),
      scheduler_(SchedulerOptions(options)) {}

ServingSession ServingSession::Over(QuerySession& session,
                                    const ServingOptions& options) {
  return ServingSession(session.pcc().circuit(), session.pcc().events(),
                        options);
}

ServingSession ServingSession::Over(TreeQuerySession& session,
                                    const ServingOptions& options) {
  return ServingSession(session.tree().circuit(), session.events(), options);
}

std::shared_ptr<const ServingSession::Snapshot> ServingSession::Pin() const {
  return epochs_ == nullptr ? fixed_ : epochs_->Current();
}

GateId ServingSession::RootOf(const Snapshot& snapshot, QueryKey key) const {
  if (epochs_ == nullptr) {
    return key < snapshot.circuit->NumGates() ? static_cast<GateId>(key)
                                              : kInvalidGate;
  }
  return key < snapshot.query_roots.size() ? snapshot.query_roots[key]
                                           : kInvalidGate;
}

QueryBudget ServingSession::MakeBudget(const QueryOptions& query) const {
  QueryBudget budget;
  if (query.deadline_ms > 0)
    budget = QueryBudget::WithDeadlineMs(query.deadline_ms);
  budget.max_table_cells = query.max_table_cells;
  budget.max_samples = query.max_samples;
  budget.cancel = query.cancel.get();
  return budget;
}

EngineResult ServingSession::Run(QueryKey key, const Evidence& evidence,
                                 const QueryBudget& budget,
                                 uint64_t* plan_cells) const {
  // One pin per query: circuit, registry, plans and root are all read
  // through `snapshot`, which stays alive even if an epoch writer
  // supersedes it mid-evaluation.
  const std::shared_ptr<const Snapshot> snapshot = Pin();
  if (snapshot == nullptr) {
    return MakeStatusResult(kEngineName, EngineStatus::kInvalidArgument);
  }
  const GateId root = RootOf(*snapshot, key);
  if (!ValidRequest(*snapshot->circuit, root, *snapshot->registry,
                    evidence)) {
    return MakeStatusResult(kEngineName, EngineStatus::kInvalidArgument);
  }
  if (budget.cancelled()) {
    return MakeStatusResult(kEngineName, EngineStatus::kCancelled);
  }
  if (budget.past_deadline()) {
    return MakeStatusResult(kEngineName, EngineStatus::kDeadlineExceeded);
  }
  const JunctionTreePlan* plan =
      snapshot->plans->GetOrBuild(*snapshot->circuit, root, budget);
  if (plan_cells != nullptr && plan->build_status() == EngineStatus::kOk) {
    *plan_cells = static_cast<uint64_t>(plan->total_cells());
  }
  return EstimateWithPlan(*plan, kEngineName, *snapshot->registry, evidence,
                          QueryScratch(), budget);
}

bool ServingSession::ShouldShed(uint64_t backlog_cells,
                                uint64_t ns_per_kilocell, unsigned workers,
                                int64_t headroom_ns) {
  if (ns_per_kilocell == 0 || backlog_cells == 0) return false;
  if (headroom_ns <= 0) return true;
  const double est_wait_ns = static_cast<double>(backlog_cells) /
                             static_cast<double>(std::max(1u, workers)) *
                             static_cast<double>(ns_per_kilocell) / 1024.0;
  return est_wait_ns > static_cast<double>(headroom_ns);
}

void ServingSession::Fulfil(const std::shared_ptr<Request>& request) {
  unstarted_.fetch_sub(1, std::memory_order_relaxed);
  // Per-task exception containment: an engine throw (injected
  // bad_alloc, a builder failure) fails this query's own future; the
  // worker thread — and every other queued future — is unaffected.
  try {
    const auto start = std::chrono::steady_clock::now();
    uint64_t cells = 0;
    EngineResult result =
        Run(request->key, request->evidence, request->budget, &cells);
    // Calibrate the cost model: the plan's cell count converts the
    // service-time sample into a rate — nanoseconds per 1024 cells —
    // that transfers across plans of different sizes, unlike a flat
    // per-query mean.
    if (cells > 0) {
      const uint64_t sample_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      ewma_ns_per_kilocell_.store(
          EwmaStep(ewma_ns_per_kilocell_.load(std::memory_order_relaxed),
                   sample_ns * 1024 / cells),
          std::memory_order_relaxed);
      ewma_cells_.store(
          EwmaStep(ewma_cells_.load(std::memory_order_relaxed), cells),
          std::memory_order_relaxed);
    }
    request->promise.set_value(std::move(result));
  } catch (...) {
    failed_queries_.fetch_add(1, std::memory_order_relaxed);
    request->promise.set_exception(std::current_exception());
  }
  backlog_cells_.fetch_sub(request->charged_cells, std::memory_order_relaxed);
}

std::future<EngineResult> ServingSession::Submit(QueryKey key,
                                                 Evidence evidence,
                                                 const QueryOptions& query) {
  auto request = std::make_shared<Request>();
  request->key = key;
  request->evidence = std::move(evidence);
  request->budget = MakeBudget(query);
  request->cancel = query.cancel;
  std::future<EngineResult> result = request->promise.get_future();

  // Price the request in table cells: a cached plan gives the exact
  // count; a cold root is charged the EWMA of observed plan sizes (0 on
  // a cold session — the query is then invisible to admission, which
  // errs on the admit side by design).
  {
    const std::shared_ptr<const Snapshot> snapshot = Pin();
    const JunctionTreePlan* plan =
        snapshot == nullptr ? nullptr
                            : snapshot->plans->Lookup(RootOf(*snapshot, key));
    request->charged_cells =
        plan == nullptr ? ewma_cells_.load(std::memory_order_relaxed)
                        : static_cast<uint64_t>(plan->total_cells());
  }

  // Queue-time-aware admission: if draining the cell backlog already
  // queued will, by the calibrated ns-per-kilocell rate, outlast this
  // query's deadline, shed it now with a typed rejection — O(1) at the
  // door beats a guaranteed kDeadlineExceeded after minutes in line.
  // Only sheds on a warm model and only for governed queries with a
  // deadline (ShouldShed's contract).
  if (request->budget.has_deadline()) {
    const int64_t headroom_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            request->budget.deadline - std::chrono::steady_clock::now())
            .count();
    if (ShouldShed(backlog_cells_.load(std::memory_order_relaxed),
                   ewma_ns_per_kilocell_.load(std::memory_order_relaxed),
                   scheduler_.num_threads(), headroom_ns)) {
      request->promise.set_value(
          MakeStatusResult(kServingName, EngineStatus::kRejected));
      return result;
    }
  }

  // Capacity shedding bounds the admitted queries that have not
  // started; the increment claims this request's place among them.
  const size_t ahead = unstarted_.fetch_add(1, std::memory_order_relaxed);
  if (options_.shed_capacity > 0 && ahead >= options_.shed_capacity) {
    unstarted_.fetch_sub(1, std::memory_order_relaxed);
    request->promise.set_value(
        MakeStatusResult(kServingName, EngineStatus::kRejected));
    return result;
  }
  backlog_cells_.fetch_add(request->charged_cells, std::memory_order_relaxed);
  // One task per query. The scheduler's queue is the backpressure
  // bound: this blocks while it is full, except on a worker thread.
  if (!scheduler_.Submit([this, request] { Fulfil(request); }))
    FailRequest(request);
  return result;
}

void ServingSession::FailRequest(const std::shared_ptr<Request>& request) {
  unstarted_.fetch_sub(1, std::memory_order_relaxed);
  backlog_cells_.fetch_sub(request->charged_cells, std::memory_order_relaxed);
  request->promise.set_exception(std::make_exception_ptr(
      std::runtime_error("ServingSession: shutdown began before the query "
                         "could be scheduled")));
}

EngineResult ServingSession::Evaluate(QueryKey key, const Evidence& evidence,
                                      const QueryOptions& query) {
  return Run(key, evidence, MakeBudget(query), nullptr);
}

EngineStatus ServingSession::Prewarm(QueryKey key) {
  const std::shared_ptr<const Snapshot> snapshot = Pin();
  if (snapshot == nullptr) return EngineStatus::kInvalidArgument;
  const GateId root = RootOf(*snapshot, key);
  if (root == kInvalidGate) return EngineStatus::kInvalidArgument;
  return snapshot->plans->GetOrBuild(*snapshot->circuit, root)->build_status();
}

void ServingSession::Drain() { scheduler_.Drain(); }

const ConcurrentPlanCache& ServingSession::plan_cache() const {
  TUD_CHECK(fixed_ != nullptr)
      << "plan_cache() is the static source's cache";
  return *fixed_->plans;
}

}  // namespace serving
}  // namespace tud

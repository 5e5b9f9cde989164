#ifndef TUD_SERVING_SERVER_H_
#define TUD_SERVING_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "incremental/epoch.h"
#include "inference/engine.h"
#include "serving/scheduler.h"
#include "util/budget.h"

namespace tud {

class QuerySession;
class TreeQuerySession;
class ConcurrentPlanCache;

namespace serving {

struct ServingOptions {
  /// Scheduler workers; 0 means hardware concurrency.
  unsigned num_threads = 0;
  /// Backpressure bound: with coalesce=false it caps the scheduler's
  /// intake queue (see TaskScheduler::Options); with coalesce=true it
  /// caps the pending coalescing buffer. Either way, Submit blocks
  /// once this many queries are queued and unclaimed.
  size_t queue_capacity = 4096;
  /// Batch the intake: submissions arriving while a drain task is
  /// pending are picked up together, grouped by evidence, and fanned
  /// out from inside the pool (deque pushes instead of per-query
  /// intake-queue round trips).
  bool coalesce = true;
  /// Most requests one drain task takes (the rest reschedule).
  size_t max_coalesce = 64;
  /// Route each coalesced same-evidence group through one
  /// JunctionTreeEngine::EstimateBatch — a single shared message pass
  /// when the roots' union cone stays narrow. Off by default: the
  /// shared pass sums in a different association order, so results are
  /// equal only to rounding (the default per-root path is bit-identical
  /// to sequential evaluation).
  bool shared_pass = false;
  /// Default per-query deadline in milliseconds, applied to queries
  /// whose QueryOptions carry none. 0 = no default deadline.
  double default_deadline_ms = 0;
  /// Admission control: with a nonzero shed capacity, a submission that
  /// finds this many queries already queued is *shed* — its future
  /// resolves immediately to a kRejected EngineResult — instead of
  /// blocking the submitter (the overload answer a serving process
  /// wants: typed rejection, bounded latency). 0 keeps the legacy
  /// blocking backpressure.
  size_t shed_capacity = 0;
};

/// Per-query resource governance for Submit/Evaluate. Default
/// constructed = an unlimited budget (beyond the session's default
/// deadline).
struct QueryOptions {
  /// Wall-clock deadline in ms from submission; 0 = the session's
  /// default_deadline_ms (which may itself be "none").
  double deadline_ms = 0;
  /// Table-cell cap (junction-tree message cells); 0 = no cap. A query
  /// whose plan would exceed it returns kResourceExhausted before any
  /// arena is allocated.
  uint64_t max_table_cells = 0;
  /// Sample cap for sampling-based engines; 0 = no cap.
  uint32_t max_samples = 0;
  /// Cooperative cancellation: the caller keeps (a copy of) the token
  /// and may Cancel() at any time — queued work resolves kCancelled
  /// when claimed, in-flight work at its next bag-granularity check.
  /// The shared_ptr keeps the token alive until the query resolves.
  std::shared_ptr<const CancelToken> cancel;
};

/// The concurrent serving front-end of the evaluation pipeline: one
/// session answers P(lineage | evidence) queries submitted from any
/// number of threads against one prepared circuit.
///
///   ServingSession serving = ServingSession::Over(session);
///   std::future<EngineResult> f = serving.Submit(lineage);
///   ... f.get().value ...
///
/// Internally: a work-stealing TaskScheduler executes the queries, a
/// ConcurrentPlanCache (inside a thread-safe JunctionTreeEngine with
/// plan caching) compiles each distinct lineage exactly once across all
/// threads, and per-worker scratch arenas make the steady-state numeric
/// pass allocation-free. A coalescing intake groups submissions that
/// arrive together, optionally answering same-evidence groups in one
/// shared batched message pass.
///
/// Phase contract (the compile-once / evaluate-many split, applied to
/// threading): *growing* the circuit — lineage construction via
/// QuerySession::CqLineage and friends — is single-threaded and must be
/// quiescent before serving starts; Submit takes already-built lineage
/// gates. Estimation itself never mutates the circuit, which is what
/// makes the serving phase embarrassingly shareable. The circuit and
/// registry must outlive the session.
class ServingSession {
 public:
  ServingSession(const BoolCircuit& circuit, const EventRegistry& registry,
                 const ServingOptions& options = {});
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;
  /// Drains in-flight queries, then stops the workers.
  ~ServingSession() = default;

  /// Serves the session's instance circuit. Build all lineages first;
  /// the session keeps references into `session`.
  static ServingSession Over(QuerySession& session,
                             const ServingOptions& options = {});
  /// Serves the tree session's guard circuit (run Lineage(expr) for
  /// every query expression first).
  static ServingSession Over(TreeQuerySession& session,
                             const ServingOptions& options = {});

  /// Enqueues one query; the future resolves to the same EngineResult a
  /// direct JunctionTreeEngine::Estimate would return. Thread-safe;
  /// blocks only under backpressure (more than queue_capacity queries
  /// queued and unclaimed — never when called from a worker thread,
  /// where blocking could live-lock the pool). If the session is
  /// shutting down the future resolves to a std::runtime_error.
  std::future<EngineResult> Submit(GateId lineage, Evidence evidence = {});

  /// As above with per-query governance: the deadline covers queue time
  /// plus execution (a query claimed after its deadline resolves
  /// kDeadlineExceeded without running), caps and cancellation are
  /// checked at bag granularity inside the engine, and admission
  /// control may shed the query up front with kRejected — when the
  /// queue is at shed_capacity, or when the cost model says the backlog
  /// already ahead of it will outlast its deadline (queue-time-aware
  /// admission: reject in O(1) rather than time out in O(queue)). The
  /// backlog is priced in junction-tree table cells, each queued query
  /// charged its own cached plan's total_cells() (the EWMA of observed
  /// plan sizes for a root not compiled yet), against a calibrated
  /// ns-per-cell rate — so one queued 2^20-cell monster counts for what
  /// it costs, not for one "average query". A governed future therefore
  /// always resolves within the deadline plus one bag's slack.
  std::future<EngineResult> Submit(GateId lineage, Evidence evidence,
                                   const QueryOptions& query);

  /// Synchronous evaluation on the calling thread, through the same
  /// plan cache (the single-thread baseline, and an escape hatch for
  /// callers that want no queueing).
  EngineResult Evaluate(GateId lineage, const Evidence& evidence = {});

  /// Synchronous governed evaluation (no queue, so no admission
  /// control: the budget's caps/deadline/token apply directly).
  EngineResult Evaluate(GateId lineage, const Evidence& evidence,
                        const QueryOptions& query);

  /// Compiles the plan for `lineage` now, so serving traffic never pays
  /// its cold Build.
  void Prewarm(GateId lineage);

  /// Blocks until every submitted query has resolved.
  void Drain();

  /// The shared plan cache (builds()/size(): build-once diagnostics).
  const ConcurrentPlanCache& plan_cache() const;

  TaskScheduler& scheduler() { return scheduler_; }
  unsigned num_threads() const { return scheduler_.num_threads(); }

  /// Queries that threw out of the engine (each failed only its own
  /// future; the worker survived). Counts both throws contained at the
  /// serving layer (Fulfil's catch) and tasks that threw out of the
  /// scheduler's own per-task containment.
  uint64_t failed_tasks() const {
    return failed_queries_.load(std::memory_order_relaxed) +
           scheduler_.stats().failed;
  }

  /// The pure admission decision, exposed for unit tests: with a
  /// calibrated rate of `ns_per_kilocell` (EWMA nanoseconds per 1024
  /// table cells), sheds when draining `backlog_cells` across `workers`
  /// workers is estimated to outlast `headroom_ns` (time left until the
  /// candidate's deadline). Never sheds on a cold rate or an empty
  /// backlog; always sheds on a spent deadline with a warm backlog.
  static bool ShouldShed(uint64_t backlog_cells, uint64_t ns_per_kilocell,
                         unsigned workers, int64_t headroom_ns);

 private:
  struct Request {
    GateId root;
    Evidence evidence;
    std::promise<EngineResult> promise;
    QueryBudget budget;  ///< Unlimited unless submitted with options.
    std::shared_ptr<const CancelToken> cancel;  ///< Keeps budget.cancel alive.
    /// Table cells this request was priced at on admission; subtracted
    /// from the backlog when the request resolves (must match what was
    /// added, so it is stored rather than recomputed — the plan cache
    /// may have warmed in between).
    uint64_t charged_cells = 0;
  };

  EngineResult RunGoverned(const Request& request);
  /// Resolves (QueryOptions, session defaults) into a concrete budget,
  /// stamping the deadline now — queue time counts against it.
  QueryBudget MakeBudget(const QueryOptions& query) const;
  /// Executes one request on a worker, with per-task exception
  /// containment (a throw fails this future only).
  void Fulfil(const std::shared_ptr<Request>& request);
  /// The drain task: moves out pending requests, groups them by
  /// evidence, and fans the groups out across the pool.
  void DrainPending();
  /// Resolves the request's future to a shutdown error (the scheduler
  /// rejected the work because shutdown has begun) and releases its
  /// in-flight slot.
  void FailRequest(const std::shared_ptr<Request>& request);
  /// Fails every queued request and clears drain_scheduled_ — the
  /// recovery path when scheduling a drain task is rejected.
  void FailAllPending();

  const BoolCircuit* circuit_;
  const EventRegistry* registry_;
  ServingOptions options_;
  /// Thread-safe cached-plan estimator shared by all workers.
  JunctionTreeEngine engine_;

  std::mutex pending_mu_;
  std::condition_variable pending_not_full_;
  std::vector<std::shared_ptr<Request>> pending_;
  bool drain_scheduled_ = false;
  /// Admission cost model (relaxed atomics: the estimate tolerates
  /// staleness; all three are seeded at 0 so an idle session never
  /// sheds on a cold model). The rate is measured in nanoseconds per
  /// 1024 table cells — per-plan sizing: a query is charged its own
  /// plan's total_cells(), not a fleet-average service time.
  std::atomic<uint64_t> ewma_ns_per_kilocell_{0};
  /// EWMA of observed per-query plan size in cells: the admission
  /// charge for a root whose plan is not cached yet.
  std::atomic<uint64_t> ewma_cells_{0};
  /// Σ charged_cells of queries queued or in flight.
  std::atomic<uint64_t> backlog_cells_{0};
  /// Queries queued or in flight (shed_capacity's depth input; the
  /// scheduler's own outstanding count also covers drain bookkeeping
  /// tasks, which would inflate the estimate).
  std::atomic<uint64_t> in_flight_{0};
  /// Engine throws contained by Fulfil (see failed_tasks()).
  std::atomic<uint64_t> failed_queries_{0};

  /// Last member: destroyed (drained + joined) first, while the engine
  /// and circuit its tasks use are still alive.
  TaskScheduler scheduler_;
};

/// The serving front-end for *maintained* instances: answers queries
/// against whatever epoch an IncrementalSession writer has most
/// recently published, while the writer keeps applying updates and
/// publishing new epochs concurrently.
///
/// Each query grabs the current SessionSnapshot exactly once (one
/// acquire load) and evaluates entirely inside it — circuit, registry,
/// plan cache, and query roots all come from the same snapshot, so a
/// reader can never observe a half-updated state, no matter how many
/// epochs the writer publishes mid-query. The snapshot's shared_ptr
/// keeps a superseded epoch alive until its last in-flight reader
/// drains (see incremental/epoch.h).
///
/// Queries are addressed by *registered query index* (the order of
/// Register* calls on the IncrementalSession), not by gate id: gate ids
/// are epoch-relative — a structural update can move a query to a new
/// root — while the query index is stable across epochs.
///
/// At least one epoch must be published before the first query; the
/// manager must outlive the session.
class EpochedServingSession {
 public:
  explicit EpochedServingSession(const incremental::EpochManager& epochs,
                                 const ServingOptions& options = {});
  EpochedServingSession(const EpochedServingSession&) = delete;
  EpochedServingSession& operator=(const EpochedServingSession&) = delete;
  /// Drains in-flight queries, then stops the workers.
  ~EpochedServingSession() = default;

  /// Enqueues one query against the then-current epoch (the snapshot is
  /// grabbed by the worker when the query runs). Thread-safe; blocks
  /// only under backpressure. If the session is shutting down the
  /// future resolves to a std::runtime_error. A query index not
  /// registered in the epoch it runs against (or no epoch published
  /// yet) resolves to a kInvalidArgument result, not an exception — a
  /// racing deregistration is a normal answer, not a crash.
  std::future<EngineResult> Submit(size_t query_index, Evidence evidence = {});

  /// As above with per-query governance (deadline stamped at submit, so
  /// queue time counts; caps and cancellation checked at bag
  /// granularity inside the governed plan execution).
  std::future<EngineResult> Submit(size_t query_index, Evidence evidence,
                                   const QueryOptions& query);

  /// Synchronous evaluation on the calling thread against the current
  /// epoch.
  EngineResult Evaluate(size_t query_index, const Evidence& evidence = {});
  EngineResult Evaluate(size_t query_index, const Evidence& evidence,
                        const QueryOptions& query);

  /// Blocks until every submitted query has resolved.
  void Drain();

  TaskScheduler& scheduler() { return scheduler_; }
  unsigned num_threads() const { return scheduler_.num_threads(); }

 private:
  EngineResult RunOne(size_t query_index, const Evidence& evidence,
                      const QueryBudget& budget) const;
  QueryBudget MakeBudget(const QueryOptions& query) const;
  std::future<EngineResult> SubmitImpl(
      size_t query_index, Evidence evidence, QueryBudget budget,
      std::shared_ptr<const CancelToken> cancel);

  const incremental::EpochManager* epochs_;
  double default_deadline_ms_;
  /// Last member: destroyed (drained + joined) first.
  TaskScheduler scheduler_;
};

}  // namespace serving
}  // namespace tud

#endif  // TUD_SERVING_SERVER_H_

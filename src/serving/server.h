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

namespace serving {

struct ServingOptions {
  /// Scheduler workers; 0 means hardware concurrency.
  unsigned num_threads = 0;
  /// Backpressure bound on the coalescing buffer: Submit blocks once
  /// this many queries are queued and unclaimed.
  size_t queue_capacity = 4096;
  /// Default per-query deadline in milliseconds, applied to queries
  /// whose QueryOptions carry none. 0 = no default deadline.
  double default_deadline_ms = 0;
  /// Admission control: with a nonzero shed capacity, a submission that
  /// finds this many queries already queued is *shed* — its future
  /// resolves immediately to a kRejected EngineResult — instead of
  /// blocking the submitter (the overload answer a serving process
  /// wants: typed rejection, bounded latency). 0 keeps the blocking
  /// backpressure.
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

/// How a query names what it asks for: a gate id of the circuit on a
/// static source, a registered query index on an epoch source.
using QueryKey = size_t;

/// The concurrent serving front-end of the evaluation pipeline: one
/// session answers P(lineage | evidence) queries submitted from any
/// number of threads, reading from one *snapshot source*:
///
/// - a **static source** — one prepared circuit and registry, with a
///   plan cache the session owns. Keys are lineage gate ids:
///
///     ServingSession serving = ServingSession::Over(session);
///     std::future<EngineResult> f = serving.Submit(lineage);
///
/// - an **epoch source** — the SessionSnapshots an IncrementalSession
///   writer publishes through an EpochManager while it keeps applying
///   updates. Keys are registered query indices (the order of Register*
///   calls), which stay stable across epochs while a structural update
///   may move a query to a new root gate.
///
/// A static source is the epoch case with one epoch that never
/// advances, so both run one path: Submit prices the query and admits
/// or sheds it, a coalescing drain fans the queued queries out across a
/// work-stealing TaskScheduler, and the worker that claims a query pins
/// the source's snapshot once, resolves the key to a root in it,
/// validates the request, checks cancellation and deadline, fetches
/// the plan from the snapshot's ConcurrentPlanCache (each distinct root
/// compiles exactly once across all threads) and runs it on its own
/// scratch arena, so the steady-state numeric pass is allocation-free.
/// Answers are bit-identical to sequential evaluation.
///
/// Epoch visibility: circuit, registry, plans and query roots are all
/// read through the one pinned snapshot, so a query never observes a
/// half-updated state however many epochs the writer publishes
/// mid-query; the snapshot's shared_ptr keeps a superseded epoch alive
/// until its last in-flight reader drains (see incremental/epoch.h).
///
/// Phase contract for a static source (the compile-once / evaluate-many
/// split, applied to threading): *growing* the circuit — lineage
/// construction via QuerySession::CqLineage and friends — is
/// single-threaded and must be quiescent before serving starts; Submit
/// takes already-built lineage gates. Estimation never mutates the
/// circuit, which is what makes the serving phase shareable. The
/// circuit and registry (or the epoch manager) must outlive the session.
class ServingSession {
 public:
  /// Most queued requests one drain task takes; the rest go to a
  /// rescheduled drain.
  static constexpr size_t kMaxCoalesce = 64;

  /// Static source over `circuit` and `registry`.
  ServingSession(const BoolCircuit& circuit, const EventRegistry& registry,
                 const ServingOptions& options = {});
  /// Epoch source: every query reads the epoch current when a worker
  /// claims it. A query before the first Publish, or with an index the
  /// epoch does not carry (a racing deregistration, a stale handle),
  /// resolves to kInvalidArgument — an answer, not a crash.
  explicit ServingSession(const incremental::EpochManager& epochs,
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

  /// Enqueues one query. Thread-safe; blocks only under backpressure
  /// (more than queue_capacity queries queued and unclaimed — never
  /// when called from a worker thread, where blocking could live-lock
  /// the pool). A malformed request (a key the source does not carry,
  /// an evidence event unknown to the registry) resolves to
  /// kInvalidArgument. If the session is shutting down the future
  /// resolves to a std::runtime_error.
  std::future<EngineResult> Submit(QueryKey key, Evidence evidence = {});

  /// As above with per-query governance: the deadline covers queue time
  /// plus execution (a query claimed after its deadline resolves
  /// kDeadlineExceeded without running), caps and cancellation are
  /// checked at bag granularity inside the plan's pass, and admission
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
  std::future<EngineResult> Submit(QueryKey key, Evidence evidence,
                                   const QueryOptions& query);

  /// Synchronous evaluation on the calling thread, through the same
  /// plan cache and validation (no queue, so no admission control: the
  /// budget's caps/deadline/token apply directly). A caller thread
  /// reuses one scratch arena across calls.
  EngineResult Evaluate(QueryKey key, const Evidence& evidence = {});
  EngineResult Evaluate(QueryKey key, const Evidence& evidence,
                        const QueryOptions& query);

  /// Compiles the plan for `key` in the current snapshot now, so
  /// serving traffic never pays its cold Build (an epoch source's
  /// published snapshots come prewarmed already).
  void Prewarm(QueryKey key);

  /// Blocks until every submitted query has resolved.
  void Drain();

  /// The static source's plan cache (builds()/size(): build-once
  /// diagnostics). An epoch source has one cache per snapshot instead;
  /// calling this on it is a checked error.
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
  using Snapshot = incremental::SessionSnapshot;

  struct Request {
    QueryKey key;
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

  /// The snapshot a query reads: the fixed one of a static source, or
  /// the epoch current now (null before the first Publish).
  std::shared_ptr<const Snapshot> Pin() const;
  /// The root `key` names in `snapshot`, or kInvalidGate when the
  /// source does not carry it.
  GateId RootOf(const Snapshot& snapshot, QueryKey key) const;
  /// The one query path: pin, resolve, validate, check budget, fetch
  /// the plan, execute on this thread's scratch arena. When the plan
  /// built, `plan_cells` (if non-null) receives its total_cells().
  EngineResult Run(QueryKey key, const Evidence& evidence,
                   const QueryBudget& budget, uint64_t* plan_cells) const;
  /// Resolves (QueryOptions, session defaults) into a concrete budget,
  /// stamping the deadline now — queue time counts against it.
  QueryBudget MakeBudget(const QueryOptions& query) const;
  /// Executes one request on a worker, with per-task exception
  /// containment (a throw fails this future only), and calibrates the
  /// admission cost model from its service time.
  void Fulfil(const std::shared_ptr<Request>& request);
  /// The drain task: moves out up to kMaxCoalesce pending requests and
  /// fans them out across the pool.
  void DrainPending();
  /// Resolves the request's future to a shutdown error (the scheduler
  /// rejected the work because shutdown has begun) and releases its
  /// backlog charge.
  void FailRequest(const std::shared_ptr<Request>& request);
  /// Fails every queued request and clears drain_scheduled_ — the
  /// recovery path when scheduling a drain task is rejected.
  void FailAllPending();

  /// Epoch source (null for a static source).
  const incremental::EpochManager* epochs_ = nullptr;
  /// Static source: a fixed snapshot over the caller's circuit and
  /// registry, owning its plan cache (null for an epoch source).
  std::shared_ptr<const Snapshot> fixed_;
  ServingOptions options_;

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
  /// Engine throws contained by Fulfil (see failed_tasks()).
  std::atomic<uint64_t> failed_queries_{0};

  /// Last member: destroyed (drained + joined) first, while the
  /// snapshot its tasks use is still alive.
  TaskScheduler scheduler_;
};

}  // namespace serving
}  // namespace tud

#endif  // TUD_SERVING_SERVER_H_

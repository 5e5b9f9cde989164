#ifndef TUD_INFERENCE_ENGINE_H_
#define TUD_INFERENCE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "util/budget.h"
#include "util/rng.h"

namespace tud {

class JunctionTreePlan;
class ConcurrentPlanCache;

/// Pinned event literals: the result of an Estimate is the conditional
/// probability P(root = true | pinned values), with pinned events
/// contributing no probability weight.
using Evidence = std::vector<std::pair<EventId, bool>>;

/// How JunctionTreeEngine::EstimateBatch served a battery (the cost
/// model's decision; see EstimateBatch).
enum class BatchPath : uint8_t {
  kNone = 0,     ///< Not a batched run (or a non-JT engine).
  kShared = 1,   ///< One shared calibrating pass over the union cone.
  kGrouped = 2,  ///< Cone-overlap groups, each shared or per-root.
  kPerRoot = 3,  ///< Per-root cached plans (the sequential cost).
};

/// Diagnostics shared by every inference engine. One struct instead of
/// the former JunctionTreeStats / HybridResult / ad-hoc sampling
/// counters: each engine fills the fields that apply to it and leaves
/// the rest at their defaults.
struct EngineStats {
  int width = -1;          ///< Decomposition width actually used (message
                           ///< passing; for hybrid, the widest restricted
                           ///< decomposition over samples).
  size_t num_bags = 0;     ///< Bags in the decomposition.
  size_t num_gates = 0;    ///< Gates of the (binarised) cone processed.
  size_t num_samples = 0;  ///< Monte-Carlo samples drawn (0 for exact).
  size_t bdd_nodes = 0;    ///< Nodes of the compiled BDD (BDD engine).
  size_t cone_events = 0;  ///< Distinct events under the root.
  size_t batch_size = 0;   ///< Roots answered by the run that produced
                           ///< this result (1 for single-root runs).
  size_t bags_visited = 0;  ///< Bags processed by the message pass(es):
                            ///< one upward sweep for single roots, the
                            ///< upward plus the pruned downward sweep
                            ///< for batched runs.
  size_t max_table = 0;    ///< Largest bag table (entries) touched.
  uint32_t degradations = 0;  ///< AutoEngine: rungs abandoned mid-flight
                              ///< because the budget tripped (0 = the
                              ///< first-choice engine answered).

  // Batch cost-model diagnostics (JunctionTreeEngine::EstimateBatch;
  // identical on every result of one batched call).
  BatchPath batch_path = BatchPath::kNone;  ///< Decision actually taken.
  double batch_shared_cost = 0;    ///< 2 x Σ 2^|bag| of the whole-set
                                   ///< union plan (up + pruned down
                                   ///< sweep); infinity when the union
                                   ///< is too wide for exact passing.
  double batch_per_root_cost = 0;  ///< Σ over roots of the per-root
                                   ///< Σ 2^|bag| (one upward sweep each).
  size_t batch_groups = 0;  ///< Executed groups: 1 for kShared; otherwise
                            ///< the size of the cone-overlap partition
                            ///< (whether each group batched or fell back
                            ///< per root).
};

/// The uniform answer shape of every engine.
struct EngineResult {
  double value = 0.0;        ///< The (estimated) probability.
  double error_bound = 0.0;  ///< 0 for exact engines; for sampling-based
                             ///< ones, a 95% normal-approximation
                             ///< half-width of the estimate. 1.0 when
                             ///< status != kOk (the value carries no
                             ///< information).
  const char* engine = "";   ///< Name of the engine that produced it
                             ///< (the delegate's name under AutoEngine).
  EngineStatus status = EngineStatus::kOk;  ///< kOk, or why `value` is
                                            ///< not an answer (budget
                                            ///< trip, bad request,
                                            ///< serving-layer shed).
  EngineStats stats;

  bool ok() const { return status == EngineStatus::kOk; }
};

/// The uniform "request failed" result: error_bound 1.0, value 0.
inline EngineResult MakeStatusResult(const char* engine,
                                     EngineStatus status) {
  EngineResult result;
  result.engine = engine;
  result.status = status;
  result.error_bound = 1.0;
  return result;
}

/// Request validation shared by every entry point that answers a
/// (root, evidence) request — the engines' non-virtual Estimate and
/// EstimateBatch and the serving layer: a malformed request (root out
/// of range, evidence event unknown to the registry) is the caller's
/// bug, reported as kInvalidArgument instead of tripping a TUD_CHECK
/// abort deep inside an engine.
bool ValidRequest(const BoolCircuit& circuit, GateId root,
                  const EventRegistry& registry, const Evidence& evidence);

/// The unified inference interface of the evaluation pipeline (§2.2:
/// "the probability that I satisfies q can be computed from C"): every
/// engine estimates P(root = true | evidence) over the independent
/// events of `registry`. Implementations are the five adapters below
/// plus the AutoEngine planner; QuerySession calls whichever it is
/// handed, so callers pick a policy once instead of hand-dispatching
/// per query.
class ProbabilityEngine {
 public:
  virtual ~ProbabilityEngine() = default;

  /// Estimates P(root = true | evidence). The non-virtual entry points
  /// validate the request (root in range, evidence EventIds known to
  /// the registry — a malformed request returns kInvalidArgument
  /// instead of aborting) and check the budget before dispatching to
  /// the engine's EstimateImpl; engines then check the budget at
  /// bag/iteration granularity and report trips through
  /// EngineResult::status. The budgetless overload runs the same path
  /// under an unlimited budget: a query the engine cannot answer (a
  /// plan too wide for exact message passing, say) is a status there
  /// too, never an abort.
  EngineResult Estimate(const BoolCircuit& circuit, GateId root,
                        const EventRegistry& registry,
                        const Evidence& evidence = {});
  EngineResult Estimate(const BoolCircuit& circuit, GateId root,
                        const EventRegistry& registry,
                        const Evidence& evidence, const QueryBudget& budget);

  /// Estimates every root of a batch under one shared evidence set and
  /// one shared budget. The deadline and cancel token cover the whole
  /// batch (a trip short-circuits the remaining roots); the cell cap is
  /// enforced per executed unit — per root in the base loop, per shared
  /// plan in a native batch path. Any out-of-range root or unknown
  /// evidence event fails the *whole* batch with kInvalidArgument.
  std::vector<EngineResult> EstimateBatch(const BoolCircuit& circuit,
                                          const std::vector<GateId>& roots,
                                          const EventRegistry& registry,
                                          const Evidence& evidence = {});
  std::vector<EngineResult> EstimateBatch(const BoolCircuit& circuit,
                                          const std::vector<GateId>& roots,
                                          const EventRegistry& registry,
                                          const Evidence& evidence,
                                          const QueryBudget& budget);

  virtual const char* name() const = 0;

 protected:
  /// The engine body. `budget` is always valid (unlimited when the
  /// caller never asked for governance); implementations honour its
  /// caps/deadline/token cooperatively and return a status result
  /// rather than throwing or aborting on a trip.
  virtual EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                                    const EventRegistry& registry,
                                    const Evidence& evidence,
                                    const QueryBudget& budget) = 0;

  /// The batch body. The base implementation loops EstimateImpl (one
  /// shared BudgetMeter would be better still, but per-root budgets
  /// compose: the first trip short-circuits the remaining roots);
  /// engines with a native batch path (JunctionTreeEngine: one shared
  /// decomposition of the union cone, a single calibrating message
  /// pass for all roots) override it.
  virtual std::vector<EngineResult> EstimateBatchImpl(
      const BoolCircuit& circuit, const std::vector<GateId>& roots,
      const EventRegistry& registry, const Evidence& evidence,
      const QueryBudget& budget);
};

/// Exact, by enumerating the valuations of the events in the cone (at
/// most 30). Evidence is applied by restriction.
class ExhaustiveEngine : public ProbabilityEngine {
 public:
  const char* name() const override { return "exhaustive"; }

 protected:
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;
};

/// Exact, by message passing over a tree decomposition of the cone (the
/// paper's method; see JunctionTreePlan in junction_tree.h). Every call
/// runs one path — Build (or the cached plan), then the budgeted pass —
/// whether or not the caller set a budget; a plan that cannot be built
/// (too wide, or pools too large for 32-bit offsets) comes back as
/// kResourceExhausted.
///
/// With `cache_plans`, the compiled message-passing plan of each root
/// gate is memoised, so re-estimating the same lineage (repeated
/// queries of a QuerySession, evidence sweeps, question selection)
/// reruns only the numeric pass. The cache relies on circuits being
/// append-only: it is only sound while the engine is used against one
/// circuit object, which the first Estimate() call pins (checked).
///
/// EstimateBatch answers a set of roots adaptively, on a *cost model*
/// rather than a width threshold: the union plan's table-entry count
/// (2 x Σ 2^|bag| of its min-degree decomposition — one calibrating up
/// + pruned down pass) is compared against the summed per-root counts
/// (one upward sweep each), and the shared pass runs only when it wins.
/// Roots that share structure — sub-lineages of one query, combinations
/// over common bases, a target-indexed reachability battery — win; when
/// the whole set loses (multi-track unions: cones coupled only through
/// their event variables, whose widths add up), a cone-overlap grouping
/// pass partitions the roots into subsets whose cones share gates and
/// applies the same cost comparison per group, so a battery of several
/// internally-shared clusters still amortises; roots left alone execute
/// their cached per-root plans at exactly the sequential cost. Both
/// cost numbers, the decision, and the executed group count land in
/// every result's EngineStats. The decision (with its built plans) is
/// memoised per *canonical* root set — sorted and deduped, so permuted
/// or duplicated batteries hit the same entry, with results mapped back
/// to caller order — and evicted FIFO past kMaxBatchPlans. With
/// `batch_threads > 1` it always executes per-root cached plans across
/// that many threads instead.
///
/// Thread safety: `Estimate` and `EstimateBatch` may be called from any
/// number of threads concurrently. The per-root memo is a
/// ConcurrentPlanCache — lock-free snapshot lookup, build-once
/// publication — the circuit bind is an atomic CAS, and the
/// batch-decision memo publishes immutable snapshots under a mutex.
/// Plan execution itself is `const` over per-call (thread-local)
/// scratch arenas. Only the *circuit* must be quiescent: growing it
/// (lineage construction) while estimating against it is a data race —
/// see the QuerySession/ServingSession phase contract.
class JunctionTreeEngine : public ProbabilityEngine {
 public:
  explicit JunctionTreeEngine(bool cache_plans = false,
                              unsigned batch_threads = 1);
  ~JunctionTreeEngine() override;
  JunctionTreeEngine(const JunctionTreeEngine&) = delete;
  JunctionTreeEngine& operator=(const JunctionTreeEngine&) = delete;

  const char* name() const override { return "junction_tree"; }

  /// The per-root plan memo (cache_plans engines; nullptr otherwise).
  /// Exposes builds()/size() for the build-once tests and stats.
  const ConcurrentPlanCache* plan_cache() const { return cache_.get(); }

  /// Batch decisions actually built (= misses of the batch memo): the
  /// test hook pinning that permuted batteries hit the canonical entry
  /// and that hot batteries survive FIFO eviction.
  uint64_t batch_builds() const {
    return batch_builds_.load(std::memory_order_relaxed);
  }
  /// Entries currently published in the batch memo.
  size_t batch_cache_size() const;

 protected:
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;
  std::vector<EngineResult> EstimateBatchImpl(
      const BoolCircuit& circuit, const std::vector<GateId>& roots,
      const EventRegistry& registry, const Evidence& evidence,
      const QueryBudget& budget) override;

 private:
  /// Pins the engine to its first circuit (plan caching is only sound
  /// against one append-only circuit object). Thread-safe: an atomic
  /// CAS against nullptr.
  void BindCircuit(const BoolCircuit& circuit);

  bool cache_plans_;
  unsigned batch_threads_;
  std::atomic<const BoolCircuit*> bound_circuit_{nullptr};
  /// The concurrent per-root memo (constructed iff cache_plans; held by
  /// pointer because junction_tree.h includes this header).
  std::unique_ptr<ConcurrentPlanCache> cache_;
  /// One executed unit of a batch decision: a subset of the canonical
  /// root set, served by one shared BuildBatch plan (or per-root cached
  /// plans when `plan` is null).
  struct BatchGroup {
    std::vector<uint32_t> members;  ///< Indices into the canonical roots.
    std::shared_ptr<const JunctionTreePlan> plan;  ///< null = per-root.
  };
  /// A memoised batch decision: the cost-model numbers, the chosen path,
  /// and the group plans to execute.
  struct CachedBatchPlan {
    std::vector<BatchGroup> groups;
    std::vector<GateKind> root_kinds;  ///< Revalidated on every hit, like
                                       ///< the per-root cache's kinds
                                       ///< (canonical order).
    double shared_cost = 0;    ///< EngineStats::batch_shared_cost.
    double per_root_cost = 0;  ///< EngineStats::batch_per_root_cost.
    BatchPath path = BatchPath::kPerRoot;
    uint64_t seq = 0;  ///< Insertion order, for FIFO eviction.
  };
  /// Batch decisions memoised per *canonical* root set (sorted +
  /// deduped — permuted or duplicated batteries hit one entry; ordered
  /// map: root vectors are short and sessions reissue identical
  /// batches), as an immutable snapshot whose shared_ptr is copied out
  /// under batch_mu_ and replaced copy-on-write under the same mutex —
  /// a mutex rather than std::atomic<shared_ptr> for the reason
  /// EpochManager gives: ThreadSanitizer cannot model libstdc++'s
  /// lock-bit protocol and reports a race on the load path. Unlike the
  /// per-root cache there is no build-once latch — two threads missing
  /// the same new root set may both build it and one copy wins, which
  /// is benign (identical plans) and keeps the lookup short. Past
  /// kMaxBatchPlans the entry with the smallest insertion seq is
  /// evicted (FIFO), so varying batches cannot grow the memo without
  /// bound while hot batteries survive.
  using BatchMap = std::map<std::vector<GateId>, CachedBatchPlan>;
  static constexpr size_t kMaxBatchPlans = 64;

  /// Runs the cost model (and, when the whole set loses, the
  /// cone-overlap grouping pass) over the canonical root set and builds
  /// the group plans. Pure function of (circuit, roots); no memo access.
  CachedBatchPlan DecideBatch(const BoolCircuit& circuit,
                              const std::vector<GateId>& roots) const;

  /// The published batch memo (copied out under batch_mu_).
  std::shared_ptr<const BatchMap> BatchSnapshot() const;

  mutable std::mutex batch_mu_;
  std::shared_ptr<const BatchMap> batch_published_;  ///< Guarded by batch_mu_.
  uint64_t batch_seq_ = 0;  ///< Guarded by batch_mu_.
  std::atomic<uint64_t> batch_builds_{0};
};

/// Exact, by OBDD compilation + weighted model counting (the
/// knowledge-compilation baseline). Evidence is applied by restriction.
class BddEngine : public ProbabilityEngine {
 public:
  const char* name() const override { return "bdd"; }

 protected:
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;
};

/// Monte-Carlo estimate over `num_samples` valuations. Evidence is
/// applied by restriction (so the estimate is of the conditional).
class SamplingEngine : public ProbabilityEngine {
 public:
  explicit SamplingEngine(uint32_t num_samples = 10000, uint64_t seed = 1)
      : num_samples_(num_samples), rng_(seed) {}
  const char* name() const override { return "sampling"; }

 protected:
  /// Budget-aware: a sample cap lowers the sample count up front; a
  /// deadline or cancellation mid-loop returns the estimate over the
  /// samples actually drawn, with the error bound honest for that count
  /// — a degraded kOk answer, never an abort.
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;

 private:
  uint32_t num_samples_;
  Rng rng_;
};

/// The core/tentacle estimator: samples a heuristically-selected core
/// event set and runs exact message passing on each restricted circuit
/// (Rao-Blackwellised; §2.2 end). Falls back to a single exact run when
/// no core is needed.
class HybridEngine : public ProbabilityEngine {
 public:
  HybridEngine(int target_width = 8, size_t max_core = 16,
               uint32_t num_samples = 1000, uint64_t seed = 1)
      : target_width_(target_width),
        max_core_(max_core),
        num_samples_(num_samples),
        rng_(seed) {}
  /// As Estimate with the core event set already selected — the
  /// AutoEngine handoff: the planner runs SelectCoreEvents to decide
  /// whether hybrid inference is worthwhile, and hands the core over so
  /// the engine does not repeat the selection's restrict/min-fill loop.
  /// The budget is checked per per-sample exact run; a mid-loop trip
  /// returns the estimate over the completed samples with an honest
  /// error bound (degraded kOk), kResourceExhausted/... only when not a
  /// single sample finished.
  EngineResult EstimateWithCore(const BoolCircuit& circuit, GateId root,
                                const EventRegistry& registry,
                                const std::vector<EventId>& core,
                                const QueryBudget& budget = {});
  const char* name() const override { return "hybrid"; }

 protected:
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;

 private:
  int target_width_;
  size_t max_core_;
  uint32_t num_samples_;
  Rng rng_;
};

/// Exact, via the conditioning machinery of §4: evidence literals become
/// an observation gate and the result is P(root ∧ obs) / P(obs), each
/// computed by message passing. Numerically identical to pinning; kept
/// as an adapter because it exercises the revision pipeline.
class ConditioningEngine : public ProbabilityEngine {
 public:
  const char* name() const override { return "conditioning"; }

 protected:
  /// Conditioning on a zero-probability observation is a malformed
  /// request, reported as kInvalidArgument (the conditional does not
  /// exist) rather than an abort.
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;
};

/// The planner: inspects the cone (event count, then a cheap min-degree
/// width estimate of the binarised primal graph) and escalates
/// exhaustive → BDD → junction tree → hybrid → sampling, replacing the
/// hand-rolled dispatch that benches and examples used to copy-paste.
/// The returned EngineResult names the engine actually chosen.
///
/// The width estimate *is* a JunctionTreeAnalysis (cone, binarisation,
/// primal graph, min-degree order), and the planner hands it to the
/// junction-tree plan it builds instead of the engine recomputing the
/// decomposition — `auto` costs the same as a direct engine pick, and
/// the handed-off decomposition is bit-identical to the one
/// JunctionTreeEngine would derive itself (same code path). The hybrid
/// escalation likewise hands its selected core event set over.
class AutoEngine : public ProbabilityEngine {
 public:
  struct Limits {
    uint32_t exhaustive_max_events = 10;  ///< Cone events for 2^n sweep.
    uint32_t bdd_max_events = 18;         ///< Cone events for compilation.
    int jt_max_width = 16;                ///< Width estimate for exact MP.
    int hybrid_target_width = 8;          ///< Core selection target.
    size_t hybrid_max_core = 12;
    uint32_t hybrid_num_samples = 2000;
    uint32_t sampling_num_samples = 20000;
    uint64_t seed = 1;
  };

  AutoEngine() : AutoEngine(Limits{}) {}
  explicit AutoEngine(const Limits& limits);
  const char* name() const override { return "auto"; }

 protected:
  /// The ladder *degrades* instead of failing: a rung that trips
  /// kResourceExhausted (priced over the table-cell cap up front, or a
  /// plan that cannot be built at all) falls through to the next
  /// cheaper rung — junction
  /// tree → hybrid conditioning → budget-bounded sampling — and the
  /// result reports the engine that actually answered, an honest
  /// error_bound, and stats.degradations. Only kDeadlineExceeded /
  /// kCancelled surface directly (no cheaper rung can beat a clock that
  /// has already run out, and cancellation is the caller's own ask).
  EngineResult EstimateImpl(const BoolCircuit& circuit, GateId root,
                            const EventRegistry& registry,
                            const Evidence& evidence,
                            const QueryBudget& budget) override;

 private:
  EngineResult Plan(const BoolCircuit& circuit, GateId root,
                    const EventRegistry& registry, const QueryBudget& budget);

  Limits limits_;
  ExhaustiveEngine exhaustive_;
  BddEngine bdd_;
  HybridEngine hybrid_;
  SamplingEngine sampling_;
};

/// Convenience factory for the common default.
std::unique_ptr<ProbabilityEngine> MakeAutoEngine();

}  // namespace tud

#endif  // TUD_INFERENCE_ENGINE_H_

#ifndef TUD_INFERENCE_JUNCTION_TREE_H_
#define TUD_INFERENCE_JUNCTION_TREE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "inference/engine.h"
#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace tud {

/// A reusable Execute arena: one allocation that grows to the largest
/// plan it has served and is then reused, so steady-state Execute calls
/// are allocation-free. One PlanScratch per thread — the serving
/// scheduler keeps one per worker, JunctionTreeEngine one per calling
/// thread. Not thread-safe; plans do not retain it past the call.
class PlanScratch {
 public:
  /// A buffer of at least `size` doubles (contents unspecified). May
  /// throw std::bad_alloc — for real under memory pressure, or injected
  /// by the fault harness (fault::ShouldFailAllocation) in
  /// TUD_FAULT_INJECTION builds.
  double* Acquire(size_t size) {
    if (fault::ShouldFailAllocation()) throw std::bad_alloc();
    if (size > capacity_) {
      buf_.reset(new double[size]);
      capacity_ = size;
    }
    return buf_.get();
  }

  size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<double[]> buf_;
  size_t capacity_ = 0;
};

/// Persistent per-caller state for JunctionTreePlan::ExecuteDelta: the
/// message arena of the last pass (every bag's upward message plus the
/// resolved variable-factor values), the evidence that pass was computed
/// under, and the running result. One state per (plan, caller) pair —
/// the incremental session keeps one per registered query; it is not
/// shared across threads. The pass counters let callers pin how often
/// the delta path actually ran versus falling back to a full pass.
struct PlanDeltaState {
  bool valid = false;           ///< Arena holds a complete message pass.
  std::vector<double> arena;    ///< Persistent copy of the Execute arena.
  Evidence evidence;            ///< Evidence the arena was resolved under.
  double result = 0.0;          ///< Root marginal of the last pass.

  uint64_t full_passes = 0;     ///< Full repropagations (first run,
                                ///< evidence change, threshold fallback).
  uint64_t delta_passes = 0;    ///< Dirty-path repropagations.
  uint64_t bags_recomputed = 0; ///< Bags recomputed by delta passes.

  /// Scratch reused across delta calls (contents transient).
  std::vector<uint8_t> dirty_bags;
  std::vector<uint8_t> dirty_events;

  void Reset() { *this = PlanDeltaState{}; }
};

/// The query-shape analysis every junction-tree plan starts from: one
/// O(cone) pass over the roots' cone in the source circuit binarises it
/// into per-vertex arrays and builds the primal graph of the factor
/// scopes; the min-degree elimination order, with its bags and width,
/// is computed on demand. Split out of
/// JunctionTreePlan::Build so the AutoEngine planner, whose escalation
/// decision *is* the min-degree width estimate, can hand the analysis to
/// the engine it selects instead of the engine redoing the
/// cone/graph/order work — `auto` then costs the same as a direct
/// engine pick, and the handed-off decomposition is bit-identical to the
/// one the engine would compute (same code path).
class JunctionTreeAnalysis {
 public:
  /// Analyses the cone of a single root.
  static JunctionTreeAnalysis Analyze(const BoolCircuit& circuit,
                                      GateId root);

  /// Analyses the union of the cones of `roots` (for batched plans: one
  /// shared decomposition answering every root).
  static JunctionTreeAnalysis AnalyzeBatch(const BoolCircuit& circuit,
                                           const std::vector<GateId>& roots);

  /// Width of the min-degree elimination order of the binarised cone's
  /// primal graph. Computed on first call and cached; JunctionTreePlan
  /// reuses the cached order, so probing the width costs nothing extra
  /// when the plan is subsequently built from this analysis.
  int MinDegreeWidth();

  /// Σ 2^|bag| over the decomposition the min-degree order derives: the
  /// table-entry count of one message pass, the batch planner's cost
  /// unit (reported by the same elimination pass as MinDegreeWidth, so
  /// probing both costs one pass). An estimate: Build may fall back to
  /// min-fill when min-degree comes out wide, in which case the executed
  /// plan's profile differs — the cost model only needs relative
  /// magnitudes, where the min-degree profile is a faithful proxy. 0 for
  /// trivial analyses.
  double TableCost();

  /// True if every root folded to a constant (no message passing
  /// needed).
  bool trivial() const { return num_vertices() == 0; }

  /// Gates of the binarised cone (the vertices of the primal graph).
  size_t num_vertices() const { return gates_.size(); }

 private:
  friend class JunctionTreePlan;

  /// A gate of the binarised cone, i.e. a vertex of the primal graph.
  struct Gate {
    GateKind kind;        ///< kVar, kNot, kAnd or kOr.
    EventId event;        ///< kVar only.
    VertexId inputs[2];   ///< kNot: inputs[0]; kAnd/kOr: both.
  };
  /// What a root that folds to a constant is recorded as in roots_.
  static constexpr VertexId kFalseRoot = UINT32_MAX - 1;
  static constexpr VertexId kTrueRoot = UINT32_MAX;

  JunctionTreeAnalysis() = default;

  std::vector<VertexId> roots_;  ///< Root vertices (or kFalseRoot /
                                 ///< kTrueRoot), input order.
  std::vector<Gate> gates_;      ///< Vertex -> binarised gate.
  Graph graph_;                  ///< Primal graph of the factor scopes.
  std::optional<EliminationOrder> min_degree_;  ///< Cached on first probe.
};

/// A compiled message-passing plan for one lineage gate — the paper's
/// inference method ("the probability that I satisfies q can be
/// computed from C via standard message passing techniques [37]",
/// §2.2), split compile-once / evaluate-many:
///
/// Build() does everything query-shape-dependent exactly once: extract
/// the cone of `root`, binarise it, tree-decompose its primal graph
/// (min-degree with a min-fill fallback), and lower every bag to a flat
/// program: the constant gate factors (And/Or/Not/True) of a bag are
/// pre-fused into one static table, child-message and marginalisation
/// index maps are expanded into precomputed gather tables, and all
/// message storage is laid out in one contiguous arena sized at build
/// time. Lowering costs O(1) per table cell: every index map is swept
/// with the one-XOR-per-cell IndexSteps recurrence (index_steps.h), and
/// the static, gather and bit-position pools are sized exactly from the
/// bag sizes and child counts before any bag is lowered (pools that
/// would overflow their 32-bit offsets fail the plan with
/// kResourceExhausted). Bags wider than 16 keep no 2^k precomputation;
/// their loops run the same recurrence over the raw bit positions
/// instead. The numeric pass reruns only the bottom-up sum-product: a
/// single arena allocation, a memcpy of each bag's static table, and
/// multiplies of the variable (event) factors and child messages — one
/// kernel per step for every bag size.
///
/// Each mode has exactly one entry point, and every one of them takes a
/// QueryBudget (unlimited by default) and returns an EngineStatus:
/// ExecuteGoverned for one root, ExecuteBatch for the roots of a
/// BuildBatch plan (one calibrating upward + pruned downward pass over
/// the shared decomposition of the union cone), ExecuteDelta for the
/// dirty-bag repropagation of the incremental layer. The budget meters
/// the same pass; it is not a second algorithm.
///
/// Cost O(2^{w+1}) per bag: PTIME whenever the lineage has bounded
/// treewidth, which Theorems 1-2 guarantee for bounded-treewidth
/// instances. Bags are capped at 26 vertices — beyond that the plan is
/// built *failed* (build_status() = kResourceExhausted): every Execute
/// entry point reports it as a status, and callers (AutoEngine) fall
/// back to conditioning or sampling.
class JunctionTreePlan {
 public:
  /// Compiles the cone of `root`. Instead of aborting on a
  /// decomposition too wide for exact message passing, the returned
  /// plan carries a non-kOk build_status() (kResourceExhausted) and
  /// refuses to Execute. With a table-cell cap in `budget`, a
  /// decomposition whose Σ 2^|bag| would exceed the cap is likewise
  /// refused *before* any table is allocated — the OOM-prevention
  /// contract: one adversarial query never gets to reserve its arena.
  /// Budget-induced refusals are distinguishable from intrinsic ones via
  /// build_limited_by_budget().
  static JunctionTreePlan Build(const BoolCircuit& circuit, GateId root,
                                const QueryBudget& budget = {});

  /// As above from a precomputed analysis (the AutoEngine handoff: the
  /// planner's width estimate already did the cone/graph/order work).
  static JunctionTreePlan Build(JunctionTreeAnalysis analysis,
                                const QueryBudget& budget = {});

  /// Compiles one shared plan answering every root in `roots` (per-root
  /// marginals over the union cone's decomposition). The budget's cell
  /// cap is checked against 2 x Σ 2^|bag| (an upward and a downward
  /// pass).
  static JunctionTreePlan BuildBatch(const BoolCircuit& circuit,
                                     const std::vector<GateId>& roots,
                                     const QueryBudget& budget = {});
  static JunctionTreePlan BuildBatch(JunctionTreeAnalysis analysis,
                                     const QueryBudget& budget = {});

  /// kOk, or why the plan is unusable: kResourceExhausted (too wide for
  /// exact message passing, over the build budget's cell cap, or pools
  /// too large for 32-bit offsets), kDeadlineExceeded / kCancelled
  /// (budget tripped during Build). Every Execute entry point returns
  /// this status on a failed plan.
  EngineStatus build_status() const { return build_status_; }
  /// True when build_status() != kOk was caused by the caller's budget
  /// rather than the plan's intrinsic width — the cache must not
  /// publish such plans (another caller's budget may admit the root).
  bool build_limited_by_budget() const { return build_limited_by_budget_; }
  /// Σ 2^|bag| of the built decomposition: the table-entry count of one
  /// message pass, what a budget's max_table_cells is charged against.
  double total_cells() const { return total_cells_; }

  /// P(root = true | evidence) of a single-root plan: events listed in
  /// `evidence` are pinned to the given truth value and contribute no
  /// probability weight. The pass charges `budget` at bag granularity
  /// (one BudgetMeter::Charge of 2^k cells per bag, so deadline slack is
  /// bounded by one bag's work; an unlimited budget costs one predicted
  /// branch per bag). A table-cell cap is enforced *before* the arena is
  /// touched — total_cells() over the cap returns kResourceExhausted
  /// with zero allocation. On kOk, `*value` holds the root marginal; on
  /// any other status (a failed plan, a budget trip) `*value` is
  /// untouched.
  ///
  /// `scratch` is a caller-provided arena (grown on demand, reused
  /// across calls): the steady-state serving hot path, one pass with
  /// zero allocations. It must not be shared by concurrent calls;
  /// nullptr falls back to a per-call allocation. Thread-safe otherwise
  /// (all mutable state lives in the arena), so independent cached
  /// plans may execute in parallel.
  EngineStatus ExecuteGoverned(const EventRegistry& registry,
                               const Evidence& evidence, PlanScratch* scratch,
                               const QueryBudget& budget,
                               double* value) const;

  /// ExecuteGoverned under an unlimited budget, aborting on a failed
  /// plan: a convenience for tests and benchmarks, which build plans
  /// they know to be healthy. Library paths use ExecuteGoverned.
  double Execute(const EventRegistry& registry, const Evidence& evidence = {},
                 PlanScratch* scratch = nullptr) const {
    double value = 0.0;
    const EngineStatus st =
        ExecuteGoverned(registry, evidence, scratch, QueryBudget{}, &value);
    TUD_CHECK(st == EngineStatus::kOk)
        << "Execute on a failed plan (" << EngineStatusName(st)
        << "); use ExecuteGoverned for a recoverable status";
    return value;
  }

  /// P(root_i = true | evidence) for every root of a BuildBatch plan,
  /// in one calibrating up+down pass (the downward pass is pruned to
  /// the subtrees that contain query bags), charged per bag against
  /// `budget`. The pre-admission cap check uses 2 x total_cells(). On
  /// kOk, `*values` holds every root's marginal and, if `stats` is
  /// non-null, its batch fields (batch_size, bags_visited, max_table)
  /// receive the actual execution counts; on any other status both are
  /// untouched.
  EngineStatus ExecuteBatch(const EventRegistry& registry,
                            const Evidence& evidence,
                            std::vector<double>* values,
                            EngineStats* stats = nullptr,
                            PlanScratch* scratch = nullptr,
                            const QueryBudget& budget = {}) const;

  /// Incremental re-evaluation after probability updates — the dirty-bag
  /// repropagation path of the maintenance subsystem (incremental/).
  ///
  /// `dirty_events` lists events whose registry probability may have
  /// changed since `state` was last filled (duplicates and events
  /// outside the plan are fine). Only the bags owning a variable factor
  /// on a dirty event, plus the bags on their paths to the root (the
  /// per-plan bag -> parent index built at Build time), are recomputed;
  /// every other bag's upward message is reused from `state`. The
  /// recomputed bags run the exact same kernels as ExecuteGoverned, so
  /// the result is bit-identical to a full pass under the current
  /// registry. Falls back to one full pass when `state` is cold, the
  /// evidence differs from the state's, or the dirty frontier exceeds
  /// `full_fraction` of the bags (repropagating most of the tree
  /// piecemeal would cost more than one clean sweep).
  ///
  /// Every recomputed bag is charged against `budget`; the cap is
  /// checked against the full table count, since the state arena holds
  /// the whole pass either way. Any non-kOk return (a failed plan, a
  /// budget trip mid-repropagation) leaves `state` *invalid* — the
  /// arena may mix old and new messages, and the caller has usually
  /// consumed its dirty marks — so the next call runs a full pass;
  /// correctness is never traded for the partial work. On kOk, `*value`
  /// holds the root marginal.
  ///
  /// Single-root plans only. `state` is owned by the caller and must not
  /// be shared across threads; the plan itself stays const and may be
  /// shared. If `stats` is non-null, bags_visited receives the number of
  /// bags actually recomputed.
  EngineStatus ExecuteDelta(const EventRegistry& registry,
                            const Evidence& evidence,
                            const std::vector<EventId>& dirty_events,
                            PlanDeltaState& state, double* value,
                            EngineStats* stats = nullptr,
                            double full_fraction = 0.5,
                            const QueryBudget& budget = {}) const;

  int width() const { return width_; }
  size_t num_bags() const { return bags_.size(); }
  /// Gates of the binarised (union) cone the plan covers.
  size_t num_gates() const { return num_gates_; }
  /// Roots answered by ExecuteBatch (1 for single-root plans).
  size_t batch_size() const { return batch_ ? query_roots_.size() : 1; }

  void FillStats(EngineStats* stats) const;

  /// Test hook: drops the precomputed gather tables so the wide-bag
  /// IndexSteps loops run on every bag. Must stay bit-identical to the
  /// gather-table pass (junction_batch_test.cc).
  void ForceBitLoopsForTest();
  /// Test hook: caps below which static fusion / gather precomputation
  /// apply (defaults 16/16; pass negative values to leave unchanged).
  /// Affects subsequent Build calls; reset to defaults after use.
  static void SetKernelThresholdsForTest(int fuse_max_k, int gather_max_k);
  /// Test hook: pool size (static cells, gather cells or bit positions)
  /// at which Build refuses a plan with kResourceExhausted instead of
  /// wrapping its 32-bit offsets. 0 restores the default (UINT32_MAX).
  static void SetOffsetLimitForTest(size_t limit);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct VarFactor {
    EventId event;  ///< Resolved against the registry (or the pinned
                    ///< evidence) at Execute().
    uint32_t bit;   ///< Scope bit position in the owning bag's table.
  };
  /// Constant factor kept unfused (wide bags only, where a 2^k static
  /// table would not pay for itself).
  struct StaticFactor {
    const double* table;
    uint32_t bits_begin;  ///< Scope bit positions in bit_pool_.
    uint32_t bits_count;
  };
  struct ChildEdge {
    uint32_t child;       ///< Bag id of the child.
    uint32_t msg_off;     ///< Child's upward-message offset in the arena.
    uint32_t gather;      ///< Offset into gather_ (2^k entries mapping
                          ///< this bag's index -> message index), or
                          ///< kNone to sweep the separator bits.
    uint32_t bits_begin;  ///< Separator bit positions in bit_pool_.
    uint32_t bits_count;
  };
  struct Bag {
    uint8_t k = 0;        ///< Bag size; the local table has 2^k entries.
    bool is_root = false;
    bool subtree_has_query = false;  ///< Batch: downward-pass pruning.
    uint32_t static_off = kNone;   ///< Pre-fused table in static_.
    uint32_t sfac_begin = 0, sfac_end = 0;  ///< Unfused (static_off==kNone).
    uint32_t var_begin = 0, var_end = 0;    ///< Range in var_factors_.
    uint32_t child_begin = 0, child_end = 0;  ///< Range in children_.
    uint32_t up_off = kNone;       ///< Upward message (2^out_count) slot.
    uint32_t down_off = kNone;     ///< Batch: downward message slot.
    uint32_t table_off = kNone;    ///< Batch: kept upward table (query bags).
    uint32_t out_gather = kNone;   ///< Marginalisation gather (2^k entries).
    uint32_t out_bits_begin = 0;   ///< Marginalisation bits in bit_pool_.
    uint32_t out_count = 0;        ///< Parent-separator size.
  };
  struct QueryRoot {
    uint32_t bag = kNone;     ///< Bag whose belief holds the marginal.
    uint32_t bit = 0;         ///< Bit of the root vertex in that bag.
    int8_t trivial_value = -1;  ///< 0/1 when the root folded to a const.
  };

  JunctionTreePlan() = default;

  static JunctionTreePlan BuildImpl(JunctionTreeAnalysis analysis, bool batch,
                                    const QueryBudget& budget);

  /// Computes bag `b`'s table (static x variable factors x child
  /// messages) into `table`; `vals` holds the resolved per-var-factor
  /// value pairs, `arena` the message storage.
  void ComputeBagTable(const Bag& bag, const double* vals,
                       const double* arena, double* table) const;
  /// As above without the child messages (downward-pass base).
  void ComputeBagBase(const Bag& bag, const double* vals,
                      double* table) const;
  /// Marginalises `table` onto the parent separator.
  void MarginalizeOut(const Bag& bag, const double* table, double* out) const;
  /// Multiplies the parent's downward message into `table` (batch pass).
  void ApplyDown(const Bag& bag, const double* down, double* table) const;
  /// Multiplies one child's upward message into `table`.
  void MultiplyChild(const Bag& bag, const ChildEdge& edge,
                     const double* arena, double* table) const;
  /// Marginalises `table` onto one child's separator (downward message).
  void MarginalizeEdge(const Bag& bag, const ChildEdge& edge,
                       const double* table, double* out) const;
  /// Resolves the per-var-factor value pairs (registry probabilities,
  /// overridden by pinned evidence via a flat dense-EventId vector).
  void ResolveVarValues(const EventRegistry& registry,
                        const Evidence& evidence, double* vals) const;
  /// Pre-admission: the status a pass of `cells` table cells under
  /// `budget` is refused with before any arena is touched (cell cap,
  /// cancellation, deadline), or kOk.
  static EngineStatus Admit(const QueryBudget& budget, double cells);
  /// The caller's scratch arena of arena_size_ doubles, or (scratch ==
  /// nullptr) a per-call allocation owned by `owned`.
  double* AcquireArena(PlanScratch* scratch,
                       std::unique_ptr<double[]>* owned) const;
  /// The single-root upward pass over a caller-provided arena of
  /// arena_size_ doubles, charging `meter` per bag — the one body behind
  /// ExecuteGoverned and the full-pass leg of ExecuteDelta (the arena is
  /// left holding the complete message pass, which is what ExecuteDelta
  /// persists).
  EngineStatus UpwardPass(const EventRegistry& registry,
                          const Evidence& evidence, double* arena,
                          BudgetMeter& meter, double* value) const;
  /// One upward step of bag `b` on `arena` (the per-bag body shared by
  /// the full pass and the dirty-bag recomputation; `vals` points at the
  /// resolved var-factor pairs inside the same arena). Returns the root
  /// marginal when `b` is the root, 0 otherwise.
  double UpStep(const Bag& bag, const double* vals, double* arena) const;

  bool trivial_ = false;      ///< Cone folded to a constant.
  double trivial_value_ = 0;
  bool batch_ = false;
  EngineStatus build_status_ = EngineStatus::kOk;
  bool build_limited_by_budget_ = false;
  double total_cells_ = 0;    ///< Σ 2^|bag| of the decomposition.
  int width_ = 0;
  size_t num_gates_ = 0;
  uint32_t max_k_ = 0;
  size_t num_events_ = 0;     ///< Bound on EventIds read by var factors.
  size_t arena_size_ = 0;     ///< Doubles: var values + messages (+ batch
                              ///< down messages and kept tables) + scratch.
  size_t vals_off_ = 0;       ///< Var-factor value pairs (2 per factor).
  size_t scratch_off_ = 0;    ///< Scratch table region (2 x 2^max_k).
  std::vector<Bag> bags_;     ///< Descending id order is bottom-up.
  std::vector<uint32_t> parent_of_;       ///< Bag -> parent bag (kNone at
                                          ///< root): the rootward path
                                          ///< index ExecuteDelta walks.
  std::vector<uint32_t> var_factor_bag_;  ///< Var factor -> owning bag.
  std::vector<VarFactor> var_factors_;
  std::vector<StaticFactor> static_factors_;
  std::vector<ChildEdge> children_;
  // The three pools below are sized exactly at Build (no doubling
  // slack) and addressed by 32-bit offsets.
  std::vector<double> static_;    ///< Pre-fused constant-factor tables.
  std::vector<uint32_t> gather_;  ///< Precomputed index maps.
  std::vector<uint8_t> bit_pool_; ///< Bit positions of every index map.
  std::vector<QueryRoot> query_roots_;  ///< Batch plans only.
};

/// A concurrent, read-mostly cache of compiled single-root plans — the
/// serving layer's hot-path structure, shared by any number of threads
/// calling GetOrBuild on one append-only circuit.
///
/// Lookup is lock-free: each shard publishes an *immutable* hash map
/// through one atomic pointer, so a hit costs an acquire load plus a
/// hash probe — no reference counting, no reader registration, no
/// locks. Writers copy the shard's map, insert, and publish the copy
/// under the shard's write mutex; superseded snapshots are retired to
/// the shard (not freed) because lock-free readers may still be walking
/// them, and reclaimed when the cache is destroyed. The retained memory
/// is quadratic in the number of *distinct* plans per shard, which the
/// session bounds (one plan per prepared lineage gate) — the classic
/// read-copy-update tradeoff, chosen over epochs for zero read-side
/// cost.
///
/// Cold misses are build-once: the first thread to miss a root becomes
/// its builder (plans can take milliseconds — the expensive
/// decomposition work), every other thread requesting the same root
/// parks on a per-root latch and receives the published plan, so a
/// thundering herd of identical cold queries costs exactly one Build.
///
/// Like JunctionTreeEngine's per-engine memo, a cache instance is only
/// sound against one append-only circuit object; callers pin it
/// (checked via the root-kind revalidation on every hit).
class ConcurrentPlanCache {
 public:
  ConcurrentPlanCache() = default;
  ConcurrentPlanCache(const ConcurrentPlanCache&) = delete;
  ConcurrentPlanCache& operator=(const ConcurrentPlanCache&) = delete;
  ~ConcurrentPlanCache();

  /// The cached plan for `root`, building (exactly once across all
  /// threads) on a miss. The returned plan lives as long as the cache.
  ///
  /// Build runs under `budget`: a root whose decomposition is
  /// intrinsically too wide yields a published *failed* plan
  /// (build_status() != kOk — a negative cache entry, so the expensive
  /// width discovery also happens once), while a plan refused only by
  /// this caller's budget is returned without being published (another
  /// caller's larger budget may admit the same root; the returned
  /// pointer is then owned by the retire list and stays valid for the
  /// cache's lifetime).
  ///
  /// If the builder throws (e.g. an injected or real bad_alloc), every
  /// waiter on the in-flight latch receives the failure as a
  /// std::runtime_error instead of hanging, and the next GetOrBuild for
  /// the root retries the build.
  const JunctionTreePlan* GetOrBuild(const BoolCircuit& circuit, GateId root,
                                     const QueryBudget& budget = {});

  /// Lock-free probe: the cached plan, or nullptr without building.
  const JunctionTreePlan* Lookup(GateId root) const;

  /// Drops the cached plan for `root`, if any, by republishing the
  /// shard's map without it — the structural-update path: a patched
  /// circuit can reuse a root gate id for different logic, so the stale
  /// plan must not survive. The superseded snapshot is retired, not
  /// freed, and a previously returned plan pointer stays valid for
  /// in-flight readers (retire-not-free, as everywhere in this cache);
  /// only *new* GetOrBuild calls see the invalidation. Does not cancel
  /// an in-flight Build of the same root — the caller (the epoch
  /// writer) must not race Invalidate against GetOrBuild for the root
  /// being restructured.
  void Invalidate(GateId root);

  /// Invalidates every cached plan (all shards republish empty).
  void Clear();

  /// Plans actually built (the thundering-herd pin: equals the number
  /// of distinct roots ever requested).
  size_t builds() const { return builds_.load(std::memory_order_relaxed); }

  /// Published entries across all shards.
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const JunctionTreePlan> plan;
    GateKind root_kind;  ///< Revalidated on every hit, as in
                         ///< JunctionTreeEngine: catches a stale bind
                         ///< through a recycled circuit address.
  };
  using Map = std::unordered_map<GateId, Entry>;
  /// Latch a builder publishes through while other threads wait.
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;  ///< Builder threw; waiters raise, not hang.
    const JunctionTreePlan* plan = nullptr;
  };
  struct Shard {
    std::atomic<const Map*> published{nullptr};  ///< Immutable snapshot.
    std::mutex write_mu;  ///< Guards publication and inflight_.
    std::unordered_map<GateId, std::shared_ptr<Inflight>> inflight;
    std::vector<std::unique_ptr<const Map>> retired;  ///< Old snapshots;
                                                      ///< readers may
                                                      ///< still hold them.
    /// Budget-refused plans handed out but never published (the caller
    /// holds a raw pointer with cache lifetime).
    std::vector<std::shared_ptr<const JunctionTreePlan>> unpublished;
  };
  static constexpr size_t kNumShards = 8;

  Shard& ShardFor(GateId root) {
    // Multiplicative hash: consecutive gate ids spread across shards.
    return shards_[(root * 2654435761u) >> 29 & (kNumShards - 1)];
  }
  const Shard& ShardFor(GateId root) const {
    return const_cast<ConcurrentPlanCache*>(this)->ShardFor(root);
  }

  std::atomic<size_t> builds_{0};
  Shard shards_[kNumShards];
};

/// Runs a single-root `plan` under `budget` into the uniform EngineResult
/// shape named `engine`: the plan's stats and, on kOk, the root
/// marginal; a failed build or a budget trip becomes the result's status
/// (error_bound 1.0). The one execution step every junction-tree-backed
/// engine and serving path shares.
EngineResult EstimateWithPlan(const JunctionTreePlan& plan, const char* engine,
                              const EventRegistry& registry,
                              const Evidence& evidence, PlanScratch* scratch,
                              const QueryBudget& budget);

}  // namespace tud

#endif  // TUD_INFERENCE_JUNCTION_TREE_H_

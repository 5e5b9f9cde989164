#ifndef TUD_INCREMENTAL_INCREMENTAL_SESSION_H_
#define TUD_INCREMENTAL_INCREMENTAL_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/circuit_patch.h"
#include "incremental/dirty_log.h"
#include "incremental/epoch.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/conjunctive_query.h"
#include "queries/query_session.h"

namespace tud {
namespace incremental {

/// ExecuteDelta falls back to a full pass when more than this fraction
/// of a plan's bags is dirty.
inline constexpr double kDeltaFullFraction = 0.5;

struct IncrementalOptions {
  /// A repaired decomposition (patched elimination order, no order
  /// search) is accepted while its width stays within this many units
  /// of the last *search-derived* width — the width of the most recent
  /// full DecomposeInstance, not of the previous repair, so repeated
  /// repairs cannot ratchet the width upward one slack at a time.
  /// Beyond the bound the order is re-searched from scratch. Negative
  /// values force the rebuild path (test hook).
  int repair_width_slack = 2;
};

/// Maintenance counters: which path each update and query actually
/// took. Tests pin the contract through these (e.g. "a single covered
/// insert repairs, never rebuilds"); benches report them alongside
/// timings.
struct IncrementalStats {
  uint64_t probability_updates = 0;
  uint64_t delta_executes = 0;   ///< Queries answered by dirty-bag passes.
  uint64_t full_executes = 0;    ///< Queries that took a full pass.
  uint64_t bags_recomputed = 0;  ///< Bags recomputed across delta passes.
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t decomposition_repairs = 0;   ///< Covered or order-patched.
  uint64_t decomposition_rebuilds = 0;  ///< Full order re-search.
  uint64_t lineage_recomputes = 0;      ///< Query roots that changed.
  uint64_t patched_gates = 0;     ///< Gates appended by structural batches.
  uint64_t tombstoned_facts = 0;
  uint64_t plans_invalidated = 0;
  uint64_t epochs_published = 0;
};

/// Index of a registered query within an IncrementalSession.
using QueryId = size_t;

/// What InsertFact created: the fact, its annotation event, and the
/// annotation gate (a plain kVar over the event — which is what makes
/// the fact deletable, see DeleteFact).
struct InsertedFact {
  FactId fact = kInvalidFact;
  EventId event = kInvalidEvent;
  GateId annotation = kInvalidGate;
};

/// The update subsystem of the pipeline: first-class probability and
/// structural updates against a live QuerySession, with queries served
/// incrementally instead of by rebuild.
///
/// The three maintenance mechanisms, by update class:
///
/// - *Probability updates* are purely numeric: UpdateProbability marks
///   the event in the session's dirty log, and the next Probability
///   call repropagates only the dirty bags' paths to the root inside
///   the cached plan (JunctionTreePlan::ExecuteDelta) — bit-identical
///   to a fresh evaluation, at the cost of the touched path.
///
/// - *Inserts* patch rather than rebuild: the instance decomposition is
///   repaired (appending to a covering bag when one exists, otherwise
///   re-deriving mechanically from the patched elimination order; the
///   expensive order search reruns only if the repaired width degrades
///   past repair_width_slack), and the lineage DP reruns over the
///   hash-consed circuit, appending only delta gates (CircuitPatch
///   measures them). Queries whose root gate is unchanged keep their
///   compiled plan *and* their delta state; changed roots invalidate
///   the stale plan (ConcurrentPlanCache::Invalidate).
///
/// - *Deletes* are probability updates in disguise: the deleted fact's
///   annotation event is driven to probability 0 — for an independent
///   event mathematically identical to pinning it false — and recorded
///   as a CircuitPatch tombstone. Deletion therefore rides the hot
///   delta path; no structural work at all.
///
/// Registered queries (RegisterCq / RegisterReachability) are the
/// maintained set: structural updates recompute their lineage roots
/// eagerly, queries evaluate lazily through per-query delta state.
///
/// Threading: the session is single-writer — updates, registration and
/// Probability calls belong to one logical thread. Concurrent serving
/// reads go through PublishSnapshot/EpochManager (see epoch.h), which
/// hands immutable copies to any number of readers.
class IncrementalSession {
 public:
  explicit IncrementalSession(QuerySession& session,
                              const IncrementalOptions& options = {});
  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  /// Registers a query for maintenance; builds its lineage now.
  QueryId RegisterCq(const ConjunctiveQuery& query);
  QueryId RegisterReachability(RelationId edge_relation, Value source,
                               Value target);

  size_t num_queries() const { return queries_.size(); }
  /// Current lineage root of a registered query (changes across
  /// structural updates).
  GateId root(QueryId query) const { return queries_[query].root; }

  /// Probability update: delegates to QuerySession::UpdateProbability
  /// (registry overwrite + dirty-log mark). Returns false — with no
  /// state change — on an unknown EventId or out-of-range probability.
  bool UpdateProbability(EventId event, double probability);

  /// Inserts a fact annotated by a fresh independent event with the
  /// given probability, repairs the decomposition, and recomputes the
  /// registered queries' lineages (see class comment).
  InsertedFact InsertFact(RelationId relation, std::vector<Value> args,
                          double probability);

  /// Deletes a fact by driving its annotation event to probability 0
  /// and tombstoning it. Requires the fact's annotation gate to be a
  /// plain event variable (facts inserted through InsertFact, or
  /// TID-style instances where every annotation is its own event).
  void DeleteFact(FactId fact);

  /// P(query | evidence), served incrementally: dirty events since the
  /// query's last evaluation are collected from the session log and
  /// handed to ExecuteDelta on the cached plan. Results are
  /// bit-identical to a fresh full evaluation of the current state.
  ///
  /// The budget (unlimited by default) is checked at bag granularity
  /// inside the delta pass. A trip — or a plan that cannot be built —
  /// returns a structured non-kOk status; the query's delta state is
  /// reset so the next call takes a clean full pass (a partial
  /// repropagation is never persisted). The query's dirty-log cursor
  /// still advances (the marks were consumed), so a tripped query pays
  /// one full pass afterwards rather than replaying the marks. An
  /// unregistered `query` returns kInvalidArgument.
  EngineResult Probability(QueryId query, const Evidence& evidence = {},
                           const QueryBudget& budget = {});

  /// Persistence restore: re-records a deletion tombstone without
  /// re-driving the event (the restored registry already holds the
  /// probability-0 overwrite). Used only by checkpoint recovery.
  void RestoreTombstone(EventId event, bool value) {
    patch_.Tombstone(event, value);
    stats_.tombstoned_facts = patch_.num_tombstones();
  }

  /// Builds an immutable SessionSnapshot of the current state (deep
  /// copies of circuit and registry, a fresh per-epoch plan cache
  /// prewarmed with every registered root) and publishes it through
  /// `manager`. Returns the stamped epoch.
  uint64_t PublishSnapshot(EpochManager& manager);

  const IncrementalStats& stats() const { return stats_; }
  const CircuitPatch& patch() const { return patch_; }
  QuerySession& session() { return session_; }
  /// The repair-slack anchor (see IncrementalOptions). Persisted by the
  /// durability layer: replayed structural updates must take the same
  /// repair-vs-rebuild decisions as the live session did, or the
  /// recovered circuit diverges gate-for-gate from the logged one.
  int searched_width() const { return searched_width_; }
  void set_searched_width(int width) { searched_width_ = width; }
  /// The live-path plan cache (per-epoch snapshot caches are separate).
  ConcurrentPlanCache& plan_cache() { return plan_cache_; }

 private:
  struct RegisteredQuery {
    enum class Kind { kCq, kReachability };
    Kind kind = Kind::kCq;
    ConjunctiveQuery cq;       ///< kCq only.
    RelationId relation = 0;   ///< kReachability only.
    Value source = 0;
    Value target = 0;
    GateId root = kInvalidGate;
    PlanDeltaState delta;
    DirtyLog::Generation cursor = 0;
  };

  /// (Re)runs the lineage DP for `q` over the session's current
  /// decomposition.
  GateId ComputeRoot(const RegisteredQuery& q);
  /// Decomposition repair for fact `fact` over `args`, then lineage
  /// recomputation for every registered query.
  void ApplyStructuralUpdate(FactId fact, const std::vector<Value>& args);
  /// Drops dirty-log entries every query has consumed.
  void CompactDirtyLog();

  QuerySession& session_;
  IncrementalOptions options_;
  IncrementalStats stats_;
  /// Width of the last search-derived decomposition (-1 until one is
  /// seen): the anchor for the repair_width_slack bound.
  int searched_width_ = -1;
  CircuitPatch patch_;
  ConcurrentPlanCache plan_cache_;
  std::vector<RegisteredQuery> queries_;
  std::vector<EventId> dirty_scratch_;
};

}  // namespace incremental
}  // namespace tud

#endif  // TUD_INCREMENTAL_INCREMENTAL_SESSION_H_

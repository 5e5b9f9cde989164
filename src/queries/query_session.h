#ifndef TUD_QUERIES_QUERY_SESSION_H_
#define TUD_QUERIES_QUERY_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/automaton_expr.h"
#include "automata/uncertain_tree.h"
#include "incremental/dirty_log.h"
#include "inference/engine.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "queries/reachability.h"
#include "uncertain/pcc_instance.h"

namespace tud {

class CInstance;

/// The compile-once / evaluate-many entry point of the §2.2 pipeline
/// for relational instances: a session owns a pcc-instance, derives its
/// tree encoding (the min-fill nice decomposition of the Gaifman graph)
/// exactly once, and answers any number of lineage/probability queries
/// against it — instead of each query re-deriving the decomposition
/// generically, the pattern the update-maintenance literature (FO+MOD
/// under updates, CQs with free access patterns) builds on.
///
///   QuerySession session(PccInstance::FromCInstance(tid.ToPcInstance()));
///   EngineResult r = session.Query(ConjunctiveQuery::RstPath(r, s, t));
///
/// Probabilities go through the session's ProbabilityEngine (default:
/// the AutoEngine planner; hot loops typically pass
/// JunctionTreeEngine(cache_plans=true) so repeated lineages rerun only
/// the numeric message pass). Lineage gates share the instance's
/// annotation circuit, so repeated queries reuse gates via structural
/// hashing.
///
/// Thread safety is phased, mirroring the compile-once / evaluate-many
/// split: *lineage construction* (CqLineage / UcqLineage /
/// ReachabilityLineage, and the first Decomposition() call) grows the
/// shared circuit and must run single-threaded; once the lineages a
/// workload needs are built, the circuit is read-only and *estimation*
/// is freely concurrent — hand the built gates to a
/// serving::ServingSession (serving/server.h), which fans Probability
/// calls across a worker pool over one shared plan cache. Calling
/// Probability directly from multiple threads is likewise safe iff the
/// session's engine is (JunctionTreeEngine is; see engine.h).
class QuerySession {
 public:
  /// Takes ownership of the instance. `engine` defaults to AutoEngine.
  explicit QuerySession(PccInstance pcc,
                        std::unique_ptr<ProbabilityEngine> engine = nullptr);

  /// Convenience: compile a (p)c-instance and open a session on it.
  static QuerySession FromCInstance(
      const CInstance& ci, std::unique_ptr<ProbabilityEngine> engine = nullptr);

  PccInstance& pcc() { return pcc_; }
  const PccInstance& pcc() const { return pcc_; }
  ProbabilityEngine& engine() { return *engine_; }

  /// The shared tree encoding: built on first use, reused by every
  /// query of this session.
  const DecomposedInstance& Decomposition();

  /// Probability update: overwrites the event's probability and marks
  /// it in the session's dirty log, so incremental consumers
  /// (IncrementalSession / JunctionTreePlan::ExecuteDelta) repropagate
  /// only the affected messages on the next query. Existing lineage
  /// gates, the decomposition, and cached plans all stay valid — a
  /// probability change is purely numeric. Returns false — leaving the
  /// session untouched — for an unknown EventId or a probability
  /// outside [0, 1]: updates arrive from user input, so a malformed one
  /// is an answer, not an abort.
  bool UpdateProbability(EventId event, double probability);

  /// The update log UpdateProbability appends to (consumers keep
  /// generation cursors into it; see incremental/dirty_log.h).
  incremental::DirtyLog& dirty_log() { return dirty_; }

  /// True once Decomposition() (or ReplaceDecomposition) ran.
  bool has_decomposition() const { return decomposition_.has_value(); }

  /// Installs a repaired/rebuilt decomposition (the structural-update
  /// path: IncrementalSession patches the stored elimination order and
  /// swaps the result in; later lineage constructions use it).
  void ReplaceDecomposition(DecomposedInstance decomposition) {
    decomposition_ = std::move(decomposition);
  }

  /// Lineage construction over the shared decomposition. Reachability
  /// runs the target-indexed connectivity DP with one target.
  GateId CqLineage(const ConjunctiveQuery& query,
                   LineageStats* stats = nullptr);
  GateId UcqLineage(const UnionOfConjunctiveQueries& query,
                    LineageStats* stats = nullptr);
  GateId ReachabilityLineage(RelationId edge_relation, Value source,
                             Value target, LineageStats* stats = nullptr);

  /// Lineages for a whole battery of targets from one source, via the
  /// target-indexed connectivity DP: each chunk's lineages share one
  /// cone instead of per-target independent DP tracks, which is what
  /// lets ProbabilityBatch serve the battery in shared calibrating
  /// passes (see the batch cost model in inference/engine.h). The chunk
  /// size adapts to the instance decomposition's width — up to
  /// kMaxReachabilityTargetsPerDp targets per DP on path-like
  /// encodings, down to one target per DP on wide instances, where
  /// jointly-tracked targets would blow up the DP state count and
  /// with it the emitted circuit's treewidth. Returns one gate per
  /// target, in input order. `stats` accumulates over chunks
  /// (width/nodes from the last chunk).
  std::vector<GateId> ReachabilityLineageBatch(RelationId edge_relation,
                                               Value source,
                                               const std::vector<Value>& targets,
                                               LineageStats* stats = nullptr);

  /// P(lineage | evidence) via the session's engine.
  EngineResult Probability(GateId lineage, const Evidence& evidence = {});

  /// P(lineage_i | evidence) for a whole set of lineages in one engine
  /// call. Engines with a native batch path (JunctionTreeEngine) answer
  /// every lineage over one shared decomposition in a single calibrating
  /// message pass — the amortisation lever for dashboards / question
  /// batteries that issue many queries against one instance.
  std::vector<EngineResult> ProbabilityBatch(
      const std::vector<GateId>& lineages, const Evidence& evidence = {});

  /// Lineage + probability in one call.
  EngineResult Query(const ConjunctiveQuery& query,
                     const Evidence& evidence = {});

 private:
  PccInstance pcc_;
  std::unique_ptr<ProbabilityEngine> engine_;
  std::optional<DecomposedInstance> decomposition_;
  incremental::DirtyLog dirty_;
};

/// The tree-shaped counterpart for automaton-defined queries: owns an
/// uncertain tree, compiles AutomatonExprs (memoised per expression
/// identity), runs them symbolically over the tree — the provenance-run
/// construction, growing the tree's circuit, with gates shared across
/// queries via structural hashing — and estimates probabilities with
/// the session's engine. Together with AutomatonExpr this is the
/// compiled-first surface for the PrXML / uncertain-tree workloads.
///
/// The same phased thread-safety contract as QuerySession applies:
/// Compiled()/Lineage() grow the memo and the tree's circuit and are
/// single-threaded; once every query's lineage gate exists, concurrent
/// estimation against the (now read-only) circuit is safe — see
/// serving::ServingSession::Over(TreeQuerySession&).
class TreeQuerySession {
 public:
  /// `events` is the registry the tree's guard circuit reads (e.g. the
  /// owning PrXmlDocument's); it must outlive the session.
  TreeQuerySession(UncertainBinaryTree tree, const EventRegistry& events,
                   std::unique_ptr<ProbabilityEngine> engine = nullptr);

  UncertainBinaryTree& tree() { return tree_; }
  const UncertainBinaryTree& tree() const { return tree_; }
  const EventRegistry& events() const { return *events_; }
  ProbabilityEngine& engine() { return *engine_; }

  /// The compiled form of `expr` (compiled on first use per expression
  /// node; compiled-to-compiled, never through TreeAutomaton).
  const CompiledAutomaton& Compiled(const AutomatonExpr& expr);

  /// Lineage of "the automaton accepts this world" over the tree's
  /// circuit.
  GateId Lineage(const AutomatonExpr& expr);

  /// P(expr accepts | evidence) via the session's engine.
  EngineResult Probability(const AutomatonExpr& expr,
                           const Evidence& evidence = {});

  /// Batched counterpart: lineages for every expression first (all
  /// grown into the tree's shared circuit), then one batched engine
  /// call over the set of roots.
  std::vector<EngineResult> ProbabilityBatch(
      const std::vector<AutomatonExpr>& exprs, const Evidence& evidence = {});

 private:
  UncertainBinaryTree tree_;
  const EventRegistry* events_;
  std::unique_ptr<ProbabilityEngine> engine_;
  // Memoised compilations, keyed by expression-node identity. The kept
  // expression copies pin the nodes so a key cannot be recycled by a
  // later allocation while the cache entry is alive.
  std::unordered_map<uintptr_t, CompiledAutomaton> compiled_;
  std::vector<AutomatonExpr> exprs_kept_;
};

}  // namespace tud

#endif  // TUD_QUERIES_QUERY_SESSION_H_

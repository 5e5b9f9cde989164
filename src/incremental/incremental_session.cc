#include "incremental/incremental_session.h"

#include <algorithm>
#include <utility>

#include "queries/lineage.h"
#include "queries/reachability.h"
#include "util/check.h"

namespace tud {
namespace incremental {

IncrementalSession::IncrementalSession(QuerySession& session,
                                       const IncrementalOptions& options)
    : session_(session),
      options_(options) {}

QueryId IncrementalSession::RegisterCq(const ConjunctiveQuery& query) {
  RegisteredQuery q;
  q.kind = RegisteredQuery::Kind::kCq;
  q.cq = query;
  q.root = session_.CqLineage(query);
  q.cursor = session_.dirty_log().generation();
  queries_.push_back(std::move(q));
  return queries_.size() - 1;
}

QueryId IncrementalSession::RegisterReachability(RelationId edge_relation,
                                                 Value source, Value target) {
  RegisteredQuery q;
  q.kind = RegisteredQuery::Kind::kReachability;
  q.relation = edge_relation;
  q.source = source;
  q.target = target;
  q.root = session_.ReachabilityLineage(edge_relation, source, target);
  q.cursor = session_.dirty_log().generation();
  queries_.push_back(std::move(q));
  return queries_.size() - 1;
}

GateId IncrementalSession::ComputeRoot(const RegisteredQuery& q) {
  switch (q.kind) {
    case RegisteredQuery::Kind::kCq:
      return session_.CqLineage(q.cq);
    case RegisteredQuery::Kind::kReachability:
      return session_.ReachabilityLineage(q.relation, q.source, q.target);
  }
  TUD_CHECK(false) << "unreachable query kind";
  return kInvalidGate;
}

bool IncrementalSession::UpdateProbability(EventId event, double probability) {
  if (!session_.UpdateProbability(event, probability)) return false;
  ++stats_.probability_updates;
  return true;
}

InsertedFact IncrementalSession::InsertFact(RelationId relation,
                                            std::vector<Value> args,
                                            double probability) {
  PccInstance& pcc = session_.pcc();
  InsertedFact out;
  out.event = pcc.events().RegisterAnonymous(probability);
  out.annotation = pcc.circuit().AddVar(out.event);
  const std::vector<Value> args_kept = args;
  out.fact = pcc.AddFact(relation, std::move(args), out.annotation);
  ++stats_.inserts;
  ApplyStructuralUpdate(out.fact, args_kept);
  return out;
}

void IncrementalSession::DeleteFact(FactId fact) {
  PccInstance& pcc = session_.pcc();
  const GateId annotation = pcc.annotation(fact);
  TUD_CHECK(pcc.circuit().kind(annotation) == GateKind::kVar)
      << "DeleteFact requires a fact annotated by a plain event variable";
  const EventId event = pcc.circuit().var(annotation);
  // Probability 0 for an independent event is mathematically identical
  // to pinning it false, but keeps re-evaluation on the hot delta path
  // (an evidence change would force a full pass on every plan).
  session_.UpdateProbability(event, 0.0);
  patch_.Tombstone(event);
  ++stats_.deletes;
  stats_.tombstoned_facts = patch_.num_tombstones();
}

void IncrementalSession::ApplyStructuralUpdate(FactId fact,
                                               const std::vector<Value>& args) {
  // 1. Decomposition repair. Nothing to repair before the first
  // Decomposition() call — it will see the new fact when it runs.
  if (session_.has_decomposition()) {
    DecomposedInstance dec = session_.Decomposition();
    const size_t old_domain = dec.elimination_order.size();
    const Instance& instance = session_.pcc().instance();
    // The slack bound anchors at the last width an order *search*
    // produced, not at the previous repair's width: judging each repair
    // against its predecessor would let the width ratchet upward by one
    // slack per insert.
    if (searched_width_ < 0) searched_width_ = dec.width;

    // Covered path: every element of the fact already co-occurs in one
    // existing bag (the fact's Gaifman clique is covered), so the
    // decomposition is already a decomposition of the grown graph —
    // just attach the fact to the covering node.
    bool in_domain = true;
    for (Value v : args) in_domain = in_domain && v < old_domain;
    NiceNodeId covering = kInvalidNiceNode;
    if (in_domain) {
      covering = args.empty() ? dec.ntd.root()
                              : dec.ntd.FindNodeCovering(args);
    }
    if (covering != kInvalidNiceNode) {
      dec.facts_at_node[covering].push_back(fact);
      ++stats_.decomposition_repairs;
      session_.ReplaceDecomposition(std::move(dec));
    } else {
      // Order-patch path: prepend the affected vertices to the stored
      // elimination order (eliminated first, before anything they are
      // now attached to) and re-derive the decomposition mechanically —
      // FromEliminationOrder plus fact assignment, no order *search*,
      // which is where DecomposeInstance spends its time.
      std::vector<VertexId> order;
      order.reserve(instance.DomainSize());
      for (size_t v = old_domain; v < instance.DomainSize(); ++v) {
        order.push_back(static_cast<VertexId>(v));
      }
      if (order.empty()) {
        // All-old uncovered clique: the args themselves move to the
        // front, so early elimination localises the fact into one
        // fresh bag. When the fact brought new vertices this is
        // unnecessary — eliminating a new vertex first already yields
        // a bag of it plus its neighbours, i.e. the fact's old args —
        // and moving old vertices would only add fill around them.
        for (Value v : args) order.push_back(v);
      }
      std::sort(order.begin(), order.end());
      order.erase(std::unique(order.begin(), order.end()), order.end());
      std::vector<uint8_t> moved(instance.DomainSize(), 0);
      for (VertexId v : order) moved[v] = 1;
      for (VertexId v : dec.elimination_order) {
        if (!moved[v]) order.push_back(v);
      }
      DecomposedInstance repaired =
          DecomposeInstanceWithOrder(instance, std::move(order));
      if (repaired.width <= searched_width_ + options_.repair_width_slack) {
        ++stats_.decomposition_repairs;
        session_.ReplaceDecomposition(std::move(repaired));
      } else {
        // Repaired width degraded past the bound: pay for the full
        // order search after all.
        ++stats_.decomposition_rebuilds;
        DecomposedInstance searched = DecomposeInstance(instance);
        searched_width_ = searched.width;
        session_.ReplaceDecomposition(std::move(searched));
      }
    }
  }

  // 2. Lineage maintenance: rerun the DP for every registered query
  // over the repaired decomposition. Structural hashing makes this
  // append-only — unchanged sub-derivations hash-cons to their existing
  // gates, so the batch appends only delta gates, and a query whose
  // root comes back unchanged keeps its compiled plan and delta state.
  patch_.BeginBatch(session_.pcc().circuit());
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    RegisteredQuery& q = queries_[qi];
    const GateId fresh = ComputeRoot(q);
    if (fresh == q.root) continue;
    const GateId stale = q.root;
    q.root = fresh;
    q.delta.Reset();
    ++stats_.lineage_recomputes;
    bool shared = false;
    for (size_t qj = 0; qj < queries_.size() && !shared; ++qj) {
      shared = qj != qi && queries_[qj].root == stale;
    }
    if (!shared && stale != kInvalidGate) {
      // The stale plan is not *wrong* (gates are immutable), but no
      // registered query serves it any more; drop it so the cache does
      // not pin dead plans across a long update stream.
      plan_cache_.Invalidate(stale);
      ++stats_.plans_invalidated;
    }
  }
  stats_.patched_gates += patch_.SealBatch(session_.pcc().circuit());
}

EngineResult IncrementalSession::Probability(QueryId query,
                                             const Evidence& evidence,
                                             const QueryBudget& budget) {
  if (query >= queries_.size()) {
    return MakeStatusResult("incremental_jt", EngineStatus::kInvalidArgument);
  }
  RegisteredQuery& q = queries_[query];
  DirtyLog& log = session_.dirty_log();
  dirty_scratch_.clear();
  if (!log.CollectSince(q.cursor, &dirty_scratch_)) {
    // The marks this query missed were compacted away: one full pass.
    dirty_scratch_.clear();
    q.delta.Reset();
  }
  q.cursor = log.generation();

  const JunctionTreePlan* plan =
      plan_cache_.GetOrBuild(session_.pcc().circuit(), q.root, budget);
  const uint64_t full_before = q.delta.full_passes;
  EngineResult result;
  result.engine = "incremental_jt";
  result.status = plan->ExecuteDelta(
      session_.pcc().events(), evidence, dirty_scratch_, q.delta,
      &result.value, &result.stats, options_.delta_full_fraction, budget);
  if (!result.ok()) {
    // ExecuteDelta poisoned the delta state (a failed plan or a partial
    // repropagation is never persisted); the cursor already advanced,
    // so the next call pays one clean full pass.
    result.error_bound = 1.0;
  } else if (q.delta.full_passes != full_before) {
    ++stats_.full_executes;
  } else {
    ++stats_.delta_executes;
    stats_.bags_recomputed += result.stats.bags_visited;
  }
  CompactDirtyLog();
  return result;
}

void IncrementalSession::CompactDirtyLog() {
  DirtyLog::Generation floor = session_.dirty_log().generation();
  for (const RegisteredQuery& q : queries_) {
    floor = std::min(floor, q.cursor);
  }
  session_.dirty_log().CompactBelow(floor);
}

uint64_t IncrementalSession::PublishSnapshot(EpochManager& manager) {
  PccInstance& pcc = session_.pcc();
  SessionSnapshot snap;
  auto circuit = std::make_shared<const BoolCircuit>(pcc.circuit());
  auto registry = std::make_shared<const EventRegistry>(pcc.events());
  auto plans = std::make_shared<ConcurrentPlanCache>();
  snap.query_roots.reserve(queries_.size());
  for (const RegisteredQuery& q : queries_) {
    // Prewarm against the snapshot's own circuit copy: epoch readers
    // never pay a cold Build, and the per-epoch cache is pinned to the
    // object it will be read against.
    plans->GetOrBuild(*circuit, q.root);
    snap.query_roots.push_back(q.root);
  }
  snap.circuit = std::move(circuit);
  snap.registry = std::move(registry);
  snap.plans = std::move(plans);
  snap.tombstones = patch_.tombstones();
  ++stats_.epochs_published;
  return manager.Publish(std::move(snap));
}

}  // namespace incremental
}  // namespace tud

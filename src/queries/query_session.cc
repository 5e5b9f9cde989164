#include "queries/query_session.h"

#include <algorithm>
#include <utility>

#include "automata/provenance_run.h"
#include "uncertain/c_instance.h"
#include "util/check.h"

namespace tud {

QuerySession::QuerySession(PccInstance pcc,
                           std::unique_ptr<ProbabilityEngine> engine)
    : pcc_(std::move(pcc)),
      engine_(engine != nullptr ? std::move(engine) : MakeAutoEngine()) {}

QuerySession QuerySession::FromCInstance(
    const CInstance& ci, std::unique_ptr<ProbabilityEngine> engine) {
  return QuerySession(PccInstance::FromCInstance(ci), std::move(engine));
}

const DecomposedInstance& QuerySession::Decomposition() {
  if (!decomposition_.has_value()) {
    decomposition_ = DecomposeInstance(pcc_.instance());
  }
  return *decomposition_;
}

GateId QuerySession::CqLineage(const ConjunctiveQuery& query,
                               LineageStats* stats) {
  const DecomposedInstance& dec = Decomposition();
  return ComputeCqLineageOnDecomposition(query, pcc_, dec.ntd,
                                         dec.facts_at_node, stats);
}

GateId QuerySession::UcqLineage(const UnionOfConjunctiveQueries& query,
                                LineageStats* stats) {
  const DecomposedInstance& dec = Decomposition();
  std::vector<GateId> parts;
  parts.reserve(query.disjuncts().size());
  LineageStats accumulated;
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    LineageStats one;
    parts.push_back(ComputeCqLineageOnDecomposition(cq, pcc_, dec.ntd,
                                                    dec.facts_at_node, &one));
    accumulated.decomposition_width = one.decomposition_width;
    accumulated.num_nice_nodes = one.num_nice_nodes;
    accumulated.total_states += one.total_states;
    accumulated.max_states_per_node =
        std::max(accumulated.max_states_per_node, one.max_states_per_node);
  }
  if (stats != nullptr) *stats = accumulated;
  return pcc_.circuit().AddOr(std::move(parts));
}

GateId QuerySession::ReachabilityLineage(RelationId edge_relation,
                                         Value source, Value target,
                                         LineageStats* stats) {
  const DecomposedInstance& dec = Decomposition();
  return ComputeMultiTargetReachabilityLineageOnDecomposition(
      pcc_, edge_relation, source, {target}, dec.ntd, dec.facts_at_node,
      stats)[0];
}

std::vector<GateId> QuerySession::ReachabilityLineageBatch(
    RelationId edge_relation, Value source, const std::vector<Value>& targets,
    LineageStats* stats) {
  const DecomposedInstance& dec = Decomposition();
  if (stats != nullptr) *stats = LineageStats{};
  std::vector<GateId> result;
  result.reserve(targets.size());
  // The joint DP tracks, per state, a block assignment for every
  // pending target — its state count (and with it the treewidth of the
  // emitted lineage circuit, which is what the probability pass pays
  // for) grows roughly like (blocks+1)^pending, with the block count
  // bounded by the instance decomposition's width. Batching many
  // targets per DP is therefore only profitable on near-path encodings;
  // on wider instances the chunk size backs off toward one target per
  // DP, whose circuits stay narrow.
  const int width = dec.ntd.Width();
  size_t per_dp = kMaxReachabilityTargetsPerDp;
  if (width == 2) {
    per_dp = 4;
  } else if (width == 3) {
    per_dp = 2;
  } else if (width >= 4) {
    per_dp = 1;
  }
  // Chunk by *distinct non-trivial* targets: trivial entries (source
  // itself, out-of-domain values) and duplicates do not consume DP
  // capacity.
  size_t begin = 0;
  while (begin < targets.size()) {
    std::vector<Value> chunk;
    std::vector<Value> distinct;
    size_t end = begin;
    const size_t domain = pcc_.instance().DomainSize();
    while (end < targets.size()) {
      const Value t = targets[end];
      const bool trivial = t == source || t >= domain || source >= domain;
      if (!trivial &&
          std::find(distinct.begin(), distinct.end(), t) == distinct.end()) {
        if (distinct.size() == per_dp) break;
        distinct.push_back(t);
      }
      chunk.push_back(t);
      ++end;
    }
    LineageStats chunk_stats;
    std::vector<GateId> gates =
        ComputeMultiTargetReachabilityLineageOnDecomposition(
            pcc_, edge_relation, source, chunk, dec.ntd, dec.facts_at_node,
            stats != nullptr ? &chunk_stats : nullptr);
    result.insert(result.end(), gates.begin(), gates.end());
    if (stats != nullptr) {
      stats->decomposition_width = chunk_stats.decomposition_width;
      stats->num_nice_nodes = chunk_stats.num_nice_nodes;
      stats->total_states += chunk_stats.total_states;
      stats->max_states_per_node = std::max(stats->max_states_per_node,
                                            chunk_stats.max_states_per_node);
    }
    begin = end;
  }
  return result;
}

bool QuerySession::UpdateProbability(EventId event, double probability) {
  if (!pcc_.events().TrySetProbability(event, probability)) return false;
  dirty_.Mark(event);
  return true;
}

EngineResult QuerySession::Probability(GateId lineage,
                                       const Evidence& evidence) {
  return engine_->Estimate(pcc_.circuit(), lineage, pcc_.events(), evidence);
}

std::vector<EngineResult> QuerySession::ProbabilityBatch(
    const std::vector<GateId>& lineages, const Evidence& evidence) {
  return engine_->EstimateBatch(pcc_.circuit(), lineages, pcc_.events(),
                                evidence);
}

EngineResult QuerySession::Query(const ConjunctiveQuery& query,
                                 const Evidence& evidence) {
  return Probability(CqLineage(query), evidence);
}

// ---------------------------------------------------------------------------
// TreeQuerySession
// ---------------------------------------------------------------------------

TreeQuerySession::TreeQuerySession(UncertainBinaryTree tree,
                                   const EventRegistry& events,
                                   std::unique_ptr<ProbabilityEngine> engine)
    : tree_(std::move(tree)),
      events_(&events),
      engine_(engine != nullptr ? std::move(engine) : MakeAutoEngine()) {}

const CompiledAutomaton& TreeQuerySession::Compiled(
    const AutomatonExpr& expr) {
  auto it = compiled_.find(expr.CacheKey());
  if (it == compiled_.end()) {
    exprs_kept_.push_back(expr);  // Pin the node: see the member comment.
    it = compiled_.emplace(expr.CacheKey(), expr.Compile()).first;
  }
  return it->second;
}

GateId TreeQuerySession::Lineage(const AutomatonExpr& expr) {
  return ProvenanceRun(Compiled(expr), tree_);
}

EngineResult TreeQuerySession::Probability(const AutomatonExpr& expr,
                                           const Evidence& evidence) {
  return engine_->Estimate(tree_.circuit(), Lineage(expr), *events_,
                           evidence);
}

std::vector<EngineResult> TreeQuerySession::ProbabilityBatch(
    const std::vector<AutomatonExpr>& exprs, const Evidence& evidence) {
  std::vector<GateId> lineages;
  lineages.reserve(exprs.size());
  for (const AutomatonExpr& expr : exprs) lineages.push_back(Lineage(expr));
  return engine_->EstimateBatch(tree_.circuit(), lineages, *events_,
                                evidence);
}

}  // namespace tud

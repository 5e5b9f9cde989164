#ifndef TUD_QUERIES_REACHABILITY_H_
#define TUD_QUERIES_REACHABILITY_H_

#include "circuits/bool_circuit.h"
#include "queries/lineage.h"
#include "relational/instance.h"
#include "uncertain/pcc_instance.h"

namespace tud {

/// Lineage of the Boolean query "target is reachable from source through
/// present `edge_relation` facts (read as undirected edges)" on a
/// pcc-instance.
///
/// Reachability is MSO-definable but not expressible as a (U)CQ, so this
/// exercises the part of Theorem 1-2's scope that goes beyond
/// conjunctive queries ("for any query that can be compiled to an
/// automaton: beyond CQs, this covers MSO..."). It is the target-indexed
/// connectivity DP below, run with one target.
///
/// The returned gate is true in exactly the possible worlds where a path
/// of present edges connects `source` to `target` (true trivially if
/// source == target, false if either is outside the domain).
GateId ComputeReachabilityLineage(PccInstance& pcc, RelationId edge_relation,
                                  Value source, Value target,
                                  LineageStats* stats = nullptr);

/// At most this many targets per connectivity DP call: the per-target
/// block assignment packs into 4 bits per target of one key word.
/// QuerySession::ReachabilityLineageBatch chunks larger batteries.
inline constexpr size_t kMaxReachabilityTargetsPerDp = 16;

/// The connectivity DP: lineages of "target_i reachable from `source`"
/// for a battery of targets (one or more) out of ONE Courcelle-style
/// pass over a nice tree decomposition. The caller provides the nice
/// decomposition of the instance's Gaifman graph and the fact-to-node
/// assignment (see DecomposeInstance), so many queries against one
/// instance share one decomposition — the QuerySession reuse path.
///
/// The state at a node is the partition of its bag into blocks of
/// used-edge-connected vertices, a per-block flag "this component holds
/// the source", and per still-pending target the block its component
/// currently touches (4 bits each, hence the 16-target cap). Each
/// (node, state) pair becomes an OR gate; using an edge fact ANDs in its
/// annotation gate and merges the endpoints' blocks. For bounded width
/// the state count per node is a constant, so the construction is
/// linear in the instance. States are packed into three words and
/// interned in a flat open-addressed table.
///
/// Witness construction: there is no absorbing "done" state carried to
/// the root. When a transition first merges a pending target's block
/// with the source's, its derivation gate is emitted as a *witness* into
/// that target's OR accumulator and the target is dropped from the
/// state. The derivation gate implies its used edges are present, so
/// every witness is sound; every accepting derivation passes through
/// the transition that first connects the target, so the OR of
/// witnesses is complete (reachability is monotone). Derivations whose
/// source component is sealed off by a forget are dropped. The state
/// space never indexes the 2^T set of already-connected targets, and the
/// emitted circuit stays as narrow as the bag partition: a single
/// target's lineage is narrower than one that carries a connected flag
/// up to the root, and a battery's gates share one cone (T one-target
/// runs share only event variables, so the widths of their union add
/// up), which `EstimateBatch` serves in a single shared pass.
///
/// Returns one gate per entry of `targets`, in input order (duplicates
/// allowed; `source == target` yields const-true, out-of-domain targets
/// const-false). Requires at most kMaxReachabilityTargetsPerDp
/// non-trivial distinct targets.
std::vector<GateId> ComputeMultiTargetReachabilityLineageOnDecomposition(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats = nullptr);

/// Convenience wrapper deriving the decomposition itself (tests, one-off
/// queries and batteries).
std::vector<GateId> ComputeMultiTargetReachabilityLineage(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, LineageStats* stats = nullptr);

/// Ground-truth evaluation on a certain instance (BFS over present
/// edges); used by tests and the per-world cross-validation.
bool EvaluateReachability(const Instance& instance, RelationId edge_relation,
                          Value source, Value target);

}  // namespace tud

#endif  // TUD_QUERIES_REACHABILITY_H_

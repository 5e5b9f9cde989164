#ifndef TUD_QUERIES_LINEAGE_H_
#define TUD_QUERIES_LINEAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/bool_circuit.h"
#include "queries/conjunctive_query.h"
#include "treedec/nice_decomposition.h"
#include "uncertain/pcc_instance.h"

namespace tud {

/// Diagnostics of one lineage construction.
struct LineageStats {
  int decomposition_width = -1;  ///< Width of the instance decomposition.
  size_t num_nice_nodes = 0;
  size_t total_states = 0;       ///< Sum of DP states over all nodes.
  size_t max_states_per_node = 0;
};

/// Lineage of a Boolean conjunctive query over a pcc-instance, computed
/// by dynamic programming over a nice tree decomposition of the
/// instance's Gaifman graph — the engine behind Theorems 1 and 2.
///
/// The DP state at a decomposition node is (μ, S): a partial mapping μ
/// from query variables to {current bag elements, forgotten, unassigned}
/// and the set S of atoms already satisfied by facts used below. Each
/// (node, state) pair becomes one OR gate of the pcc-instance's circuit;
/// using a fact ANDs in that fact's annotation gate. The returned gate is
/// true in exactly the possible worlds where the query holds. Because
/// Boolean lineage is idempotent, overlapping derivations are harmless
/// (and the construction is sound for absorptive semirings, §2.2).
///
/// For a fixed query and bounded decomposition width the state count per
/// node is a constant, so the construction is linear in the instance —
/// the PTIME/linear-time claim of the theorems.
///
/// Requirements: every query variable occurs in some atom; at most
/// kMaxLineageCqVars variables and kMaxLineageCqAtoms atoms (checked) —
/// data complexity is the paper's regime, combined complexity is
/// explicitly out of scope (§2.2 end).
inline constexpr uint32_t kMaxLineageCqVars = 8;
inline constexpr uint32_t kMaxLineageCqAtoms = 16;
GateId ComputeCqLineage(const ConjunctiveQuery& query, PccInstance& pcc,
                        LineageStats* stats = nullptr);

/// OR of the disjuncts' lineages (computed over one shared
/// decomposition).
GateId ComputeUcqLineage(const UnionOfConjunctiveQueries& query,
                         PccInstance& pcc, LineageStats* stats = nullptr);

/// Low-level entry point: the caller provides the nice decomposition of
/// the instance's Gaifman graph and the assignment of each fact to a
/// nice node whose bag contains the fact's elements.
GateId ComputeCqLineageOnDecomposition(
    const ConjunctiveQuery& query, PccInstance& pcc,
    const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats = nullptr);

/// Builds the min-fill nice decomposition of the instance's Gaifman
/// graph and the fact-to-node assignment used by ComputeCqLineage;
/// exposed so benchmarks can reuse one decomposition across queries.
struct DecomposedInstance {
  NiceTreeDecomposition ntd;
  std::vector<std::vector<FactId>> facts_at_node;
  int width = -1;
  /// The elimination order the decomposition was mechanically derived
  /// from — the handle the incremental layer repairs through: patching
  /// this order and re-running FromEliminationOrder skips the expensive
  /// order *search*, which is where DecomposeInstance spends its time.
  std::vector<VertexId> elimination_order;
};
DecomposedInstance DecomposeInstance(const Instance& instance);

/// As above from a caller-provided elimination order over the current
/// domain (order.size() == instance.DomainSize()) — the decomposition
/// repair path: only the mechanical order-to-decomposition derivation
/// and the fact assignment run, no order search.
DecomposedInstance DecomposeInstanceWithOrder(const Instance& instance,
                                              std::vector<VertexId> order);

}  // namespace tud

#endif  // TUD_QUERIES_LINEAGE_H_

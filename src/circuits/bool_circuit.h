#ifndef TUD_CIRCUITS_BOOL_CIRCUIT_H_
#define TUD_CIRCUITS_BOOL_CIRCUIT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "events/bool_formula.h"
#include "events/event_registry.h"
#include "events/valuation.h"

namespace tud {

/// Index of a gate within a BoolCircuit.
using GateId = uint32_t;

/// Sentinel for "no gate".
inline constexpr GateId kInvalidGate = UINT32_MAX;

/// Gate operations. kVar gates read an event; kConst gates are fixed.
enum class GateKind : uint8_t { kConst, kVar, kNot, kAnd, kOr };

/// A Boolean circuit over events: a DAG of gates.
///
/// This is the paper's annotation language for pcc-instances ("write
/// annotations as Boolean circuits rather than formulae, and look at the
/// treewidth of the annotation circuit", §2.2), and it is also the *output*
/// language: running a tree automaton over an uncertain instance produces a
/// lineage circuit describing which possible worlds are accepted.
///
/// Gates are created append-only, so inputs always have smaller ids than
/// the gates that read them; the id order is a topological order and all
/// bottom-up passes are simple loops. Structural hashing deduplicates
/// AND/OR/NOT gates with identical inputs, and constant inputs are folded
/// away at construction.
class BoolCircuit {
 public:
  BoolCircuit() = default;

  /// Adds (or reuses) the constant gate for `value`.
  GateId AddConst(bool value);

  /// Adds (or reuses) the input gate reading `event`.
  GateId AddVar(EventId event);

  /// Adds a negation. Folds constants and double negation.
  GateId AddNot(GateId input);

  /// Adds an n-ary conjunction / disjunction. Folds constants, drops
  /// duplicates (sort+unique in place, no temporary set), folds
  /// single-input gates to a passthrough, flattens nothing (inputs are
  /// used as given). Empty AND is true; empty OR is false.
  GateId AddAnd(std::vector<GateId> inputs);
  GateId AddOr(std::vector<GateId> inputs);
  GateId AddAnd(GateId a, GateId b) { return AddAnd({a, b}); }
  GateId AddOr(GateId a, GateId b) { return AddOr({a, b}); }

  /// Bulk-producer fast path: identical semantics to AddAnd/AddOr, but
  /// works in the caller's scratch vector (clobbering it) so a tight
  /// gate-emitting loop — e.g. ProvenanceRun — performs no allocation on
  /// structural-hash hits. Pair with Reserve() for batched emission.
  GateId AddAndInPlace(std::vector<GateId>& scratch);
  GateId AddOrInPlace(std::vector<GateId>& scratch);

  /// Pre-sizes the gate arrays and the structural-hash table for a
  /// producer that is about to emit up to `num_gates` total gates.
  void Reserve(size_t num_gates);

  /// Recursively adds a propositional formula; returns its root gate.
  GateId AddFormula(const BoolFormula& formula);

  /// Persistence restore: appends the gate with id NumGates() with
  /// exactly the given raw shape — no folding, no deduplication — and
  /// re-derives the construction caches (structural-hash cache, var
  /// cache, const-gate slots, NumEvents), so hash-consing after a
  /// restore behaves identically to the original construction. Gates
  /// must be restored in id order; the caller (the checkpoint loader)
  /// is responsible for validating inputs < id first.
  GateId RestoreGate(GateKind kind, bool const_value, EventId event,
                     std::vector<GateId> inputs);

  size_t NumGates() const { return kinds_.size(); }
  GateKind kind(GateId g) const { return kinds_[g]; }
  bool const_value(GateId g) const;
  EventId var(GateId g) const;
  const std::vector<GateId>& inputs(GateId g) const { return inputs_[g]; }

  /// Largest event id mentioned by any kVar gate, plus one (0 if none).
  size_t NumEvents() const { return num_events_; }

  /// Evaluates every gate bottom-up under `valuation`; returns the vector
  /// of gate values. `valuation` must cover NumEvents() events.
  std::vector<bool> EvaluateAll(const Valuation& valuation) const;

  /// Evaluates just gate `g` (computes the full bottom-up pass).
  bool Evaluate(GateId g, const Valuation& valuation) const;

  /// Returns an equivalent circuit in which every AND/OR gate has fan-in
  /// exactly 2 (balanced reduction trees), along with the mapping from old
  /// gate ids to new ones. Bounded fan-in keeps the primal-graph cliques
  /// small, which is what treewidth-based inference needs.
  std::pair<BoolCircuit, std::vector<GateId>> Binarize() const;

  /// Edges of the primal graph of the circuit: one vertex per gate, an
  /// edge between a gate and each of its inputs, and a clique over the
  /// inputs-plus-output of every gate (so a bag covering the gate's local
  /// constraint exists in any tree decomposition). Each edge (a, b) has
  /// a < b and edges are deduplicated.
  std::vector<std::pair<GateId, GateId>> PrimalEdges() const;

  /// Gates reachable from `root` (including `root` itself), ascending.
  std::vector<GateId> ReachableFrom(GateId root) const;

  /// Copies the sub-circuit reachable from `root` into a fresh circuit.
  /// Returns the new circuit and the gate corresponding to `root`.
  std::pair<BoolCircuit, GateId> ExtractCone(GateId root) const;

  /// Copies the cone of `root` in `source` into *this* circuit,
  /// returning the corresponding gate. `cache` memoises gates across
  /// calls (must be sized source.NumGates() and initialised to
  /// kInvalidGate on first use); repeated imports share structure.
  GateId ImportCone(const BoolCircuit& source, GateId root,
                    std::vector<GateId>* cache);

  /// True if no kNot gate is reachable from `root`: the lineage is then a
  /// monotone circuit, valid for semiring provenance evaluation.
  bool IsMonotone(GateId root) const;

  /// Human-readable dump (one gate per line) for debugging.
  std::string ToString(const EventRegistry& registry) const;

 private:
  GateId AddGate(GateKind kind, bool const_value, EventId event,
                 std::vector<GateId> inputs);
  GateId AddNaryInPlace(GateKind kind, std::vector<GateId>& inputs);

  struct HashKey {
    GateKind kind;
    EventId var;
    std::vector<GateId> inputs;
  };
  /// Non-owning lookup key: lets the structural-hash cache be probed
  /// from a scratch buffer without copying it (C++20 heterogeneous
  /// unordered lookup).
  struct HashKeyView {
    GateKind kind;
    EventId var;
    const GateId* inputs;
    size_t num_inputs;
  };
  struct HashKeyHasher {
    using is_transparent = void;
    size_t operator()(const HashKey& key) const;
    size_t operator()(const HashKeyView& key) const;
  };
  struct HashKeyEq {
    using is_transparent = void;
    bool operator()(const HashKey& a, const HashKey& b) const;
    bool operator()(const HashKeyView& a, const HashKey& b) const;
    bool operator()(const HashKey& a, const HashKeyView& b) const;
  };

  std::vector<GateKind> kinds_;
  std::vector<bool> const_values_;
  std::vector<EventId> vars_;
  std::vector<std::vector<GateId>> inputs_;
  size_t num_events_ = 0;
  GateId true_gate_ = kInvalidGate;
  GateId false_gate_ = kInvalidGate;
  std::unordered_map<HashKey, GateId, HashKeyHasher, HashKeyEq> cache_;
  std::unordered_map<EventId, GateId> var_cache_;
};

}  // namespace tud

#endif  // TUD_CIRCUITS_BOOL_CIRCUIT_H_

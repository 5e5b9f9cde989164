#ifndef TUD_BDD_BDD_H_
#define TUD_BDD_BDD_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "util/budget.h"

namespace tud {

/// Reference to a BDD node within a BddManager. 0 is the false terminal,
/// 1 the true terminal.
using BddRef = uint32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

/// A reduced ordered binary decision diagram (ROBDD) package with
/// hash-consing and an ITE computed-table.
///
/// This is the knowledge-compilation baseline the benchmark suite
/// compares the paper's message-passing pipeline against (ProvSQL-style
/// lineage compilation): exact weighted model counting is linear in the
/// compiled BDD size, but the compiled size itself can blow up, whereas
/// the message-passing approach is guaranteed polynomial on
/// bounded-treewidth lineages.
class BddManager {
 public:
  /// Creates a manager for variables at levels 0..num_levels-1 (level =
  /// position in the variable order; smaller level = nearer the root).
  explicit BddManager(uint32_t num_levels);

  uint32_t num_levels() const { return num_levels_; }
  size_t NumNodes() const { return nodes_.size(); }

  /// The BDD testing the single variable at `level`.
  BddRef Var(uint32_t level);

  BddRef Not(BddRef f);
  BddRef And(BddRef f, BddRef g);
  BddRef Or(BddRef f, BddRef g);
  BddRef Ite(BddRef f, BddRef g, BddRef h);

  /// Compiles gate `root` of `circuit`. `event_level` maps each EventId
  /// to its variable level (must be a bijection onto 0..num_levels-1 for
  /// the events used). FromCircuitGoverned under an unlimited budget.
  BddRef FromCircuit(const BoolCircuit& circuit, GateId root,
                     const std::vector<uint32_t>& event_level);

  /// Budget-governed compilation. Charges the node-count growth of each
  /// compiled gate against `meter`; if the budget trips mid-compile the
  /// partial compilation is abandoned, `*status` is set to the tripping
  /// status, and nullopt is returned. On success `*status` is kOk.
  std::optional<BddRef> FromCircuitGoverned(
      const BoolCircuit& circuit, GateId root,
      const std::vector<uint32_t>& event_level, BudgetMeter& meter,
      EngineStatus* status);

  /// Weighted model count: probability that the function is true when
  /// the variable at level l is independently true with probability
  /// `level_prob[l]`.
  double Wmc(BddRef f, const std::vector<double>& level_prob);

  /// Number of satisfying assignments over all num_levels variables.
  uint64_t CountModels(BddRef f);

  /// Evaluates under a level-indexed assignment.
  bool Evaluate(BddRef f, const std::vector<bool>& level_values) const;

  /// Cofactor: f with the variable at `level` fixed to `value`.
  BddRef Restrict(BddRef f, uint32_t level, bool value);

  /// Existential quantification: Restrict(f, level, 0) OR
  /// Restrict(f, level, 1).
  BddRef Exists(BddRef f, uint32_t level);

  uint32_t level(BddRef f) const { return nodes_[f].level; }
  BddRef low(BddRef f) const { return nodes_[f].low; }
  BddRef high(BddRef f) const { return nodes_[f].high; }
  bool IsTerminal(BddRef f) const { return f <= kBddTrue; }

 private:
  struct Node {
    uint32_t level;
    BddRef low;
    BddRef high;
  };

  struct UniqueKey {
    uint32_t level;
    BddRef low;
    BddRef high;
    bool operator==(const UniqueKey&) const = default;
  };
  struct UniqueKeyHash {
    size_t operator()(const UniqueKey& k) const {
      size_t h = k.level;
      h = h * 0x9e3779b9u + k.low;
      h = h * 0x9e3779b9u + k.high;
      return h;
    }
  };
  struct IteKey {
    BddRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    size_t operator()(const IteKey& k) const {
      size_t h = k.f;
      h = h * 0x9e3779b9u + k.g;
      h = h * 0x9e3779b9u + k.h;
      return h;
    }
  };

  BddRef MakeNode(uint32_t level, BddRef low, BddRef high);
  BddRef Cofactor(BddRef f, uint32_t level, bool value) const;

  uint32_t num_levels_;
  std::vector<Node> nodes_;
  std::unordered_map<UniqueKey, BddRef, UniqueKeyHash> unique_;
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
};

}  // namespace tud

#endif  // TUD_BDD_BDD_H_

#include "bdd/bdd.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace tud {

BddManager::BddManager(uint32_t num_levels) : num_levels_(num_levels) {
  // Terminals live at the pseudo-level num_levels (below all variables).
  nodes_.push_back(Node{num_levels_, kBddFalse, kBddFalse});  // false
  nodes_.push_back(Node{num_levels_, kBddTrue, kBddTrue});    // true
}

BddRef BddManager::MakeNode(uint32_t level, BddRef low, BddRef high) {
  if (low == high) return low;  // Reduction rule.
  UniqueKey key{level, low, high};
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  BddRef id = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(Node{level, low, high});
  unique_.emplace(key, id);
  return id;
}

BddRef BddManager::Var(uint32_t level) {
  TUD_CHECK_LT(level, num_levels_);
  return MakeNode(level, kBddFalse, kBddTrue);
}

BddRef BddManager::Cofactor(BddRef f, uint32_t level, bool value) const {
  const Node& node = nodes_[f];
  if (node.level != level) return f;
  return value ? node.high : node.low;
}

BddRef BddManager::Ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  IteKey key{f, g, h};
  auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  uint32_t level = std::min({nodes_[f].level, nodes_[g].level,
                             nodes_[h].level});
  BddRef low = Ite(Cofactor(f, level, false), Cofactor(g, level, false),
                   Cofactor(h, level, false));
  BddRef high = Ite(Cofactor(f, level, true), Cofactor(g, level, true),
                    Cofactor(h, level, true));
  BddRef result = MakeNode(level, low, high);
  ite_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::Not(BddRef f) { return Ite(f, kBddFalse, kBddTrue); }
BddRef BddManager::And(BddRef f, BddRef g) { return Ite(f, g, kBddFalse); }
BddRef BddManager::Or(BddRef f, BddRef g) { return Ite(f, kBddTrue, g); }

BddRef BddManager::FromCircuit(const BoolCircuit& circuit, GateId root,
                               const std::vector<uint32_t>& event_level) {
  BudgetMeter unlimited;
  EngineStatus status;
  return *FromCircuitGoverned(circuit, root, event_level, unlimited, &status);
}

std::optional<BddRef> BddManager::FromCircuitGoverned(
    const BoolCircuit& circuit, GateId root,
    const std::vector<uint32_t>& event_level, BudgetMeter& meter,
    EngineStatus* status) {
  *status = EngineStatus::kOk;
  std::vector<BddRef> compiled(circuit.NumGates(), kBddFalse);
  size_t nodes_before = NumNodes();
  for (GateId g : circuit.ReachableFrom(root)) {
    switch (circuit.kind(g)) {
      case GateKind::kConst:
        compiled[g] = circuit.const_value(g) ? kBddTrue : kBddFalse;
        break;
      case GateKind::kVar: {
        EventId e = circuit.var(g);
        TUD_CHECK_LT(e, event_level.size());
        compiled[g] = Var(event_level[e]);
        break;
      }
      case GateKind::kNot:
        compiled[g] = Not(compiled[circuit.inputs(g)[0]]);
        break;
      case GateKind::kAnd: {
        BddRef acc = kBddTrue;
        for (GateId in : circuit.inputs(g)) acc = And(acc, compiled[in]);
        compiled[g] = acc;
        break;
      }
      case GateKind::kOr: {
        BddRef acc = kBddFalse;
        for (GateId in : circuit.inputs(g)) acc = Or(acc, compiled[in]);
        compiled[g] = acc;
        break;
      }
    }
    // Charge the manager growth caused by this gate: the budget's cell cap
    // doubles as a BDD node cap, so a blowing-up compilation trips
    // resource_exhausted instead of exhausting memory.
    size_t nodes_after = NumNodes();
    EngineStatus st =
        meter.Charge(static_cast<uint64_t>(nodes_after - nodes_before) + 1);
    nodes_before = nodes_after;
    if (st != EngineStatus::kOk) {
      *status = st;
      return std::nullopt;
    }
  }
  return compiled[root];
}

double BddManager::Wmc(BddRef f, const std::vector<double>& level_prob) {
  TUD_CHECK_GE(level_prob.size(), num_levels_);
  // BddRefs are dense 0..NumNodes(), so the memo is a flat table with a
  // computed-flag sidecar rather than an unordered_map.
  std::vector<double> memo(nodes_.size(), 0.0);
  std::vector<char> computed(nodes_.size(), 0);
  memo[kBddTrue] = 1.0;
  computed[kBddFalse] = computed[kBddTrue] = 1;
  // Iterative post-order to avoid recursion depth issues.
  std::vector<BddRef> stack = {f};
  while (!stack.empty()) {
    BddRef n = stack.back();
    if (computed[n]) {
      stack.pop_back();
      continue;
    }
    BddRef lo = nodes_[n].low;
    BddRef hi = nodes_[n].high;
    if (computed[lo] && computed[hi]) {
      double p = level_prob[nodes_[n].level];
      memo[n] = (1.0 - p) * memo[lo] + p * memo[hi];
      computed[n] = 1;
      stack.pop_back();
    } else {
      if (!computed[lo]) stack.push_back(lo);
      if (!computed[hi]) stack.push_back(hi);
    }
  }
  return memo[f];
}

uint64_t BddManager::CountModels(BddRef f) {
  // models(n) = #assignments of levels (level(n), num_levels) satisfying,
  // scaled so the answer at a virtual root above level 0 is exact.
  // Flat tables indexed by the dense BddRef replace the hash memo.
  std::vector<uint64_t> memo(nodes_.size(), 0);
  std::vector<char> computed(nodes_.size(), 0);
  memo[kBddTrue] = 1;
  computed[kBddFalse] = computed[kBddTrue] = 1;
  std::vector<BddRef> stack = {f};
  while (!stack.empty()) {
    BddRef n = stack.back();
    if (computed[n]) {
      stack.pop_back();
      continue;
    }
    BddRef lo = nodes_[n].low;
    BddRef hi = nodes_[n].high;
    if (computed[lo] && computed[hi]) {
      uint64_t lo_scaled = memo[lo]
                           << (nodes_[lo].level - nodes_[n].level - 1);
      uint64_t hi_scaled = memo[hi]
                           << (nodes_[hi].level - nodes_[n].level - 1);
      memo[n] = lo_scaled + hi_scaled;
      computed[n] = 1;
      stack.pop_back();
    } else {
      if (!computed[lo]) stack.push_back(lo);
      if (!computed[hi]) stack.push_back(hi);
    }
  }
  return memo[f] << nodes_[f].level;
}

BddRef BddManager::Restrict(BddRef f, uint32_t level, bool value) {
  TUD_CHECK_LT(level, num_levels_);
  if (nodes_[f].level > level) return f;  // Variable below f's support.
  // Flat memo over the refs that exist on entry; MakeNode may append
  // nodes during the walk, but recursion only ever visits descendants of
  // f, which all predate the call. Sizing by the whole manager trades
  // O(total nodes) zero-fill per call for O(1) probes — the right trade
  // while callers restrict roots comparable in size to the manager; a
  // cone-sized sparse memo would win for tiny cones in huge managers.
  constexpr BddRef kUnset = UINT32_MAX;
  std::vector<BddRef> memo(nodes_.size(), kUnset);
  std::function<BddRef(BddRef)> rec = [&](BddRef g) -> BddRef {
    if (IsTerminal(g) || nodes_[g].level > level) return g;
    if (memo[g] != kUnset) return memo[g];
    BddRef result;
    if (nodes_[g].level == level) {
      result = value ? nodes_[g].high : nodes_[g].low;
    } else {
      result = MakeNode(nodes_[g].level, rec(nodes_[g].low),
                        rec(nodes_[g].high));
    }
    memo[g] = result;
    return result;
  };
  return rec(f);
}

BddRef BddManager::Exists(BddRef f, uint32_t level) {
  return Or(Restrict(f, level, false), Restrict(f, level, true));
}

bool BddManager::Evaluate(BddRef f, const std::vector<bool>& level_values) const {
  while (!IsTerminal(f)) {
    const Node& node = nodes_[f];
    TUD_CHECK_LT(node.level, level_values.size());
    f = level_values[node.level] ? node.high : node.low;
  }
  return f == kBddTrue;
}

}  // namespace tud

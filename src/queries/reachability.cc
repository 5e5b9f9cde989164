#include "queries/reachability.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace tud {

bool EvaluateReachability(const Instance& instance, RelationId edge_relation,
                          Value source, Value target) {
  if (source == target) return true;
  if (source >= instance.DomainSize() || target >= instance.DomainSize()) {
    return false;
  }
  std::vector<std::vector<Value>> adjacency(instance.DomainSize());
  for (const Fact& fact : instance.facts()) {
    if (fact.relation != edge_relation || fact.args.size() != 2) continue;
    adjacency[fact.args[0]].push_back(fact.args[1]);
    adjacency[fact.args[1]].push_back(fact.args[0]);
  }
  std::vector<bool> seen(instance.DomainSize(), false);
  std::vector<Value> stack = {source};
  seen[source] = true;
  while (!stack.empty()) {
    Value v = stack.back();
    stack.pop_back();
    if (v == target) return true;
    for (Value u : adjacency[v]) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  return false;
}

namespace {

// A target assignment of kNoBlock means "not currently tracked": not yet
// introduced, already witnessed, or sealed away from the source in this
// derivation. All three are equivalent going forward (a vertex is never
// re-introduced after its forget, and a witnessed target needs nothing
// more), which is what keeps the state space free of any 2^T
// connected-set index.
constexpr uint8_t kNoBlock = 0xF;

// DP state: the partition of the bag into used-edge-connected blocks,
// a per-block source flag, and per pending target the block its
// component currently touches. There is no absorbing "done" state —
// connections are emitted as witnesses instead.
struct State {
  std::vector<uint8_t> block;  // Per bag position; ids normalized.
  uint16_t s_mask = 0;  // Bit b: block b's component contains source.
  std::vector<uint8_t> tgt;  // Per pending target: block id or kNoBlock.
};

// Normalized State in three words: 4 bits per bag position, the source
// mask, and 4 bits per target. Real block ids stay <= 14 (bags cap at 15
// positions), so kNoBlock = 0xF never collides.
struct PackedState {
  uint64_t part = 0;
  uint64_t flags = 0;
  uint64_t tgt = 0;
  bool operator==(const PackedState&) const = default;
};

size_t HashKey(const PackedState& key) {
  uint64_t h = key.part * 0x9e3779b97f4a7c15ull;
  h ^= key.flags + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= key.tgt + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xc2b2ae3d27d4eb4full;
  return static_cast<size_t>(h ^ (h >> 33));
}

// Open-addressed (state -> gate) table over packed keys: a flat entry
// vector plus a power-of-two probe array, no per-entry allocation —
// the same treatment the automaton engine gave its subset interner.
class DpTable {
 public:
  struct Entry {
    PackedState key;
    GateId gate;
  };

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }

  /// Inserts `key`, ORing gates on collision (the DP's Merge).
  void Merge(BoolCircuit& circuit, const PackedState& key, GateId gate) {
    if ((entries_.size() + 1) * 4 > buckets_.size() * 3) Grow();
    const size_t mask = buckets_.size() - 1;
    size_t slot = HashKey(key) & mask;
    while (true) {
      const uint32_t idx = buckets_[slot];
      if (idx == 0) {
        buckets_[slot] = static_cast<uint32_t>(entries_.size() + 1);
        entries_.push_back({key, gate});
        return;
      }
      Entry& existing = entries_[idx - 1];
      if (existing.key == key) {
        existing.gate = circuit.AddOr(existing.gate, gate);
        return;
      }
      slot = (slot + 1) & mask;
    }
  }

  /// Frees the table's memory (child tables are consumed exactly once).
  void Release() {
    entries_ = {};
    buckets_ = {};
  }

 private:
  void Grow() {
    const size_t capacity = buckets_.empty() ? 16 : buckets_.size() * 2;
    buckets_.assign(capacity, 0);
    const size_t mask = capacity - 1;
    for (uint32_t i = 0; i < entries_.size(); ++i) {
      size_t slot = HashKey(entries_[i].key) & mask;
      while (buckets_[slot] != 0) slot = (slot + 1) & mask;
      buckets_[slot] = i + 1;
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> buckets_;  // Entry index + 1; 0 = empty.
};

size_t BagIndex(const std::vector<VertexId>& bag, VertexId v) {
  auto it = std::lower_bound(bag.begin(), bag.end(), v);
  TUD_CHECK(it != bag.end() && *it == v);
  return static_cast<size_t>(it - bag.begin());
}

PackedState Pack(const State& state) {
  PackedState packed;
  for (size_t i = 0; i < state.block.size(); ++i) {
    packed.part |= uint64_t{state.block[i]} << (4 * i);
  }
  packed.flags = state.s_mask;
  for (size_t t = 0; t < state.tgt.size(); ++t) {
    packed.tgt |= uint64_t{state.tgt[t]} << (4 * t);
  }
  return packed;
}

void Unpack(const PackedState& packed, size_t bag_size, size_t num_targets,
            State& out) {
  out.block.resize(bag_size);
  for (size_t i = 0; i < bag_size; ++i) {
    out.block[i] = static_cast<uint8_t>((packed.part >> (4 * i)) & 0xF);
  }
  out.s_mask = static_cast<uint16_t>(packed.flags & 0xFFFF);
  out.tgt.resize(num_targets);
  for (size_t t = 0; t < num_targets; ++t) {
    out.tgt[t] = static_cast<uint8_t>((packed.tgt >> (4 * t)) & 0xF);
  }
}

// The connection event: any pending target whose block now carries the
// source flag gets `gate` appended to its witness accumulator and is
// dropped from the state. Sound because the derivation gate implies its
// used edges are present (so source ~ target holds wherever it is
// true); complete because every accepting derivation passes through the
// transition that first merges the target's block with the source's.
// Monotonicity of reachability makes the final OR of witnesses exact.
// Then renumbers blocks by first appearance (flag and assignments
// permuted along) and returns the packed canonical key.
PackedState ResolveAndNormalize(State& state, GateId gate,
                                std::vector<std::vector<GateId>>& witnesses) {
  for (size_t t = 0; t < state.tgt.size(); ++t) {
    const uint8_t b = state.tgt[t];
    if (b != kNoBlock && ((state.s_mask >> b) & 1)) {
      witnesses[t].push_back(gate);
      state.tgt[t] = kNoBlock;
    }
  }
  int remap[16];
  for (int& r : remap) r = -1;
  uint8_t next_id = 0;
  uint16_t s_mask = 0;
  for (uint8_t& b : state.block) {
    if (remap[b] < 0) {
      remap[b] = next_id++;
      if ((state.s_mask >> b) & 1) s_mask |= (1u << remap[b]);
    }
    b = static_cast<uint8_t>(remap[b]);
  }
  for (uint8_t& b : state.tgt) {
    if (b == kNoBlock) continue;
    TUD_CHECK_GE(remap[b], 0) << "pending target tracked to a vanished block";
    b = static_cast<uint8_t>(remap[b]);
  }
  state.s_mask = s_mask;
  return Pack(state);
}

}  // namespace

std::vector<GateId> ComputeMultiTargetReachabilityLineageOnDecomposition(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats) {
  BoolCircuit& circuit = pcc.circuit();
  const size_t domain = pcc.instance().DomainSize();
  std::vector<GateId> result(targets.size());

  // Trivial entries resolve up front (source itself: const true;
  // out-of-domain: const false); the rest dedupe into the pending
  // battery the DP actually tracks.
  std::vector<Value> pending;
  std::vector<size_t> slot(targets.size(), SIZE_MAX);
  for (size_t i = 0; i < targets.size(); ++i) {
    const Value t = targets[i];
    if (t == source) {
      result[i] = circuit.AddConst(true);
      continue;
    }
    if (source >= domain || t >= domain) {
      result[i] = circuit.AddConst(false);
      continue;
    }
    size_t p = 0;
    while (p < pending.size() && pending[p] != t) ++p;
    if (p == pending.size()) pending.push_back(t);
    slot[i] = p;
  }
  if (stats != nullptr) {
    stats->decomposition_width = ntd.Width();
    stats->num_nice_nodes = ntd.NumNodes();
    stats->total_states = 0;
    stats->max_states_per_node = 0;
  }
  if (pending.empty()) return result;
  const size_t num_targets = pending.size();
  TUD_CHECK_LE(num_targets, kMaxReachabilityTargetsPerDp)
      << "chunk target batteries (QuerySession::ReachabilityLineageBatch)";
  TUD_CHECK_LE(ntd.Width(), 14) << "bag too large for connectivity masks";

  std::vector<std::vector<GateId>> witnesses(num_targets);
  std::vector<DpTable> table(ntd.NumNodes());
  State state;  // Reused unpacking scratch.
  std::vector<std::pair<PackedState, GateId>> additions;
  for (NiceNodeId n = 0; n < ntd.NumNodes(); ++n) {
    DpTable& states = table[n];
    const std::vector<VertexId>& bag = ntd.bag(n);
    switch (ntd.kind(n)) {
      case NiceNodeKind::kLeaf: {
        State empty;
        empty.tgt.assign(num_targets, kNoBlock);
        states.Merge(circuit, Pack(empty), circuit.AddConst(true));
        break;
      }
      case NiceNodeKind::kIntroduce: {
        const VertexId v = ntd.vertex(n);
        const size_t pos = BagIndex(bag, v);
        int intro_target = -1;
        for (size_t t = 0; t < num_targets; ++t) {
          if (pending[t] == v) intro_target = static_cast<int>(t);
        }
        DpTable& child = table[ntd.children(n)[0]];
        const size_t child_bag_size = bag.size() - 1;
        for (size_t i = 0; i < child.size(); ++i) {
          Unpack(child.entry(i).key, child_bag_size, num_targets, state);
          const GateId gate = child.entry(i).gate;
          State next;
          next.block.reserve(bag.size());
          const uint8_t fresh = static_cast<uint8_t>(state.block.size());
          for (size_t j = 0; j < bag.size(); ++j) {
            if (j == pos) {
              next.block.push_back(fresh);
            } else {
              next.block.push_back(state.block[j < pos ? j : j - 1]);
            }
          }
          next.s_mask = state.s_mask;
          if (v == source) next.s_mask |= (1u << fresh);
          next.tgt = state.tgt;
          if (intro_target >= 0) {
            // A vertex is introduced before any forget of it (occurrence
            // subtrees are connected), so the target cannot already be
            // tracked, witnessed, or sealed in this branch.
            TUD_CHECK(next.tgt[intro_target] == kNoBlock);
            next.tgt[intro_target] = fresh;
          }
          states.Merge(circuit, ResolveAndNormalize(next, gate, witnesses),
                       gate);
        }
        child.Release();
        break;
      }
      case NiceNodeKind::kForget: {
        const VertexId v = ntd.vertex(n);
        const std::vector<VertexId>& child_bag =
            ntd.bag(ntd.children(n)[0]);
        const size_t pos = BagIndex(child_bag, v);
        DpTable& child = table[ntd.children(n)[0]];
        for (size_t i = 0; i < child.size(); ++i) {
          Unpack(child.entry(i).key, child_bag.size(), num_targets, state);
          const GateId gate = child.entry(i).gate;
          State next;
          next.s_mask = state.s_mask;
          next.tgt = state.tgt;
          const uint8_t gone = state.block[pos];
          bool block_survives = false;
          for (size_t j = 0; j < state.block.size(); ++j) {
            if (j == pos) continue;
            next.block.push_back(state.block[j]);
            if (state.block[j] == gone) block_survives = true;
          }
          if (!block_survives) {
            // The component loses its last bag vertex: sealed for good.
            if ((state.s_mask >> gone) & 1) {
              // Source sealed: no transition can ever merge a pending
              // target into its block, so no witness can come from this
              // derivation — drop it (targets already witnessed keep
              // their emitted witnesses).
              continue;
            }
            for (uint8_t& b : next.tgt) {
              // Sealed away from the source: dead for this derivation.
              if (b == gone) b = kNoBlock;
            }
          }
          states.Merge(circuit, ResolveAndNormalize(next, gate, witnesses),
                       gate);
        }
        child.Release();
        break;
      }
      case NiceNodeKind::kJoin: {
        DpTable& left = table[ntd.children(n)[0]];
        DpTable& right = table[ntd.children(n)[1]];
        const size_t k = bag.size();
        State sl, sr;
        for (size_t li = 0; li < left.size(); ++li) {
          Unpack(left.entry(li).key, k, num_targets, sl);
          const GateId gl = left.entry(li).gate;
          // A representative bag position per left block (targets whose
          // vertex was forgotten below are carried through it).
          int lpos[16];
          for (int& p : lpos) p = -1;
          for (size_t i = 0; i < k; ++i) {
            if (lpos[sl.block[i]] < 0) lpos[sl.block[i]] = static_cast<int>(i);
          }
          for (size_t ri = 0; ri < right.size(); ++ri) {
            Unpack(right.entry(ri).key, k, num_targets, sr);
            const GateId gr = right.entry(ri).gate;
            const GateId gate = circuit.AddAnd(gl, gr);
            // Union-find over bag positions: both partitions constrain.
            uint8_t parent[16];
            for (size_t i = 0; i < k; ++i) {
              parent[i] = static_cast<uint8_t>(i);
            }
            auto find = [&parent](uint8_t x) -> uint8_t {
              while (parent[x] != x) x = parent[x] = parent[parent[x]];
              return x;
            };
            for (size_t i = 0; i < k; ++i) {
              for (size_t j = i + 1; j < k; ++j) {
                if (sl.block[i] == sl.block[j] ||
                    sr.block[i] == sr.block[j]) {
                  parent[find(static_cast<uint8_t>(i))] =
                      find(static_cast<uint8_t>(j));
                }
              }
            }
            int rpos[16];
            for (int& p : rpos) p = -1;
            for (size_t i = 0; i < k; ++i) {
              if (rpos[sr.block[i]] < 0) {
                rpos[sr.block[i]] = static_cast<int>(i);
              }
            }
            State next;
            next.block.resize(k);
            next.s_mask = 0;
            for (size_t i = 0; i < k; ++i) {
              const uint8_t root = find(static_cast<uint8_t>(i));
              next.block[i] = root;
              if ((sl.s_mask >> sl.block[i]) & 1) next.s_mask |= 1u << root;
              if ((sr.s_mask >> sr.block[i]) & 1) next.s_mask |= 1u << root;
            }
            // A target is tracked by at most one side unless its vertex
            // is in the bag (occurrence subtrees are connected), and
            // then both sides agree through the shared position.
            next.tgt.assign(num_targets, kNoBlock);
            for (size_t t = 0; t < num_targets; ++t) {
              if (sl.tgt[t] != kNoBlock) {
                next.tgt[t] = find(static_cast<uint8_t>(lpos[sl.tgt[t]]));
              } else if (sr.tgt[t] != kNoBlock) {
                next.tgt[t] = find(static_cast<uint8_t>(rpos[sr.tgt[t]]));
              }
            }
            states.Merge(circuit, ResolveAndNormalize(next, gate, witnesses),
                         gate);
          }
        }
        left.Release();
        right.Release();
        break;
      }
    }

    // Use any subset of this node's edge facts: one at a time, merging
    // endpoint blocks (iterate to closure via the state table itself).
    for (FactId f : facts_at_node[n]) {
      const Fact& fact = pcc.instance().fact(f);
      if (fact.relation != edge_relation || fact.args.size() != 2) continue;
      if (fact.args[0] == fact.args[1]) continue;  // Self-loop: no effect.
      const size_t pa = BagIndex(bag, fact.args[0]);
      const size_t pb = BagIndex(bag, fact.args[1]);
      const GateId fact_gate = pcc.annotation(f);
      additions.clear();
      for (size_t i = 0; i < states.size(); ++i) {
        Unpack(states.entry(i).key, bag.size(), num_targets, state);
        const GateId gate = states.entry(i).gate;
        const uint8_t ba = state.block[pa];
        const uint8_t bb = state.block[pb];
        if (ba == bb) continue;  // Already connected: using it is moot.
        State next = state;
        for (uint8_t& b : next.block) {
          if (b == bb) b = ba;
        }
        if ((state.s_mask >> bb) & 1) next.s_mask |= (1u << ba);
        next.s_mask &= ~(1u << bb);
        for (uint8_t& b : next.tgt) {
          if (b == bb) b = ba;
        }
        const GateId used = circuit.AddAnd(gate, fact_gate);
        additions.emplace_back(ResolveAndNormalize(next, used, witnesses),
                               used);
      }
      for (const auto& [packed, gate] : additions) {
        states.Merge(circuit, packed, gate);
      }
    }

    if (stats != nullptr) {
      stats->total_states += states.size();
      stats->max_states_per_node =
          std::max(stats->max_states_per_node, states.size());
    }
  }

  // All witnesses were emitted along the way; the root's empty-bag
  // states carry nothing further. OR each target's accumulator (empty
  // accumulator = unreachable = const false).
  std::vector<GateId> pending_gate(num_targets);
  for (size_t t = 0; t < num_targets; ++t) {
    pending_gate[t] = circuit.AddOr(std::move(witnesses[t]));
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (slot[i] != SIZE_MAX) result[i] = pending_gate[slot[i]];
  }
  return result;
}

std::vector<GateId> ComputeMultiTargetReachabilityLineage(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, LineageStats* stats) {
  DecomposedInstance dec = DecomposeInstance(pcc.instance());
  return ComputeMultiTargetReachabilityLineageOnDecomposition(
      pcc, edge_relation, source, targets, dec.ntd, dec.facts_at_node,
      stats);
}

GateId ComputeReachabilityLineage(PccInstance& pcc, RelationId edge_relation,
                                  Value source, Value target,
                                  LineageStats* stats) {
  return ComputeMultiTargetReachabilityLineage(pcc, edge_relation, source,
                                               {target}, stats)[0];
}

}  // namespace tud

#include "queries/lineage.h"

#include <algorithm>
#include <unordered_map>

#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "treedec/tree_decomposition.h"
#include "util/check.h"

namespace tud {

namespace {

// Sentinel codes for μ entries (element values are < kForgottenCode).
constexpr uint32_t kUnassignedCode = 0xFFFFFFFF;
constexpr uint32_t kForgottenCode = 0xFFFFFFFE;

// A DP state: μ (per query variable) and the satisfied-atom bitmask.
struct DpState {
  std::vector<uint32_t> mu;
  uint32_t satisfied = 0;

  bool operator==(const DpState&) const = default;
};

struct DpStateHash {
  size_t operator()(const DpState& s) const {
    size_t h = s.satisfied;
    for (uint32_t m : s.mu) h = h * 0x9e3779b97f4a7c15ULL + m;
    return h;
  }
};

using StateMap = std::unordered_map<DpState, GateId, DpStateHash>;

// Merges (state, gate) into the map, OR-ing gates of equal states.
void Merge(StateMap& map, BoolCircuit& circuit, DpState state, GateId gate) {
  auto [it, inserted] = map.try_emplace(std::move(state), gate);
  if (!inserted) it->second = circuit.AddOr(it->second, gate);
}

}  // namespace

GateId ComputeCqLineageOnDecomposition(
    const ConjunctiveQuery& query, PccInstance& pcc,
    const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats) {
  const uint32_t num_vars = query.NumVars();
  const uint32_t num_atoms = static_cast<uint32_t>(query.NumAtoms());
  TUD_CHECK_LE(num_vars, kMaxLineageCqVars)
      << "fixed-query regime: too many variables";
  TUD_CHECK_LE(num_atoms, kMaxLineageCqAtoms)
      << "fixed-query regime: too many atoms";
  TUD_CHECK_EQ(facts_at_node.size(), ntd.NumNodes());
  BoolCircuit& circuit = pcc.circuit();

  // Every variable must occur in some atom, else the query is degenerate
  // (an unused existential variable) and the DP below cannot witness it.
  std::vector<uint32_t> atoms_of_var(num_vars, 0);
  for (uint32_t a = 0; a < num_atoms; ++a) {
    for (const Term& t : query.atom(a).terms) {
      if (t.is_var) atoms_of_var[t.var] |= (1u << a);
    }
  }
  for (uint32_t v = 0; v < num_vars; ++v) {
    TUD_CHECK_NE(atoms_of_var[v], 0u)
        << "query variable x" << v << " occurs in no atom";
  }
  const uint32_t full_mask =
      num_atoms == 32 ? 0xFFFFFFFFu : ((1u << num_atoms) - 1);

  std::vector<StateMap> table(ntd.NumNodes());
  if (stats != nullptr) {
    stats->decomposition_width = ntd.Width();
    stats->num_nice_nodes = ntd.NumNodes();
    stats->total_states = 0;
    stats->max_states_per_node = 0;
  }

  for (NiceNodeId n = 0; n < ntd.NumNodes(); ++n) {
    StateMap& states = table[n];
    switch (ntd.kind(n)) {
      case NiceNodeKind::kLeaf: {
        DpState initial;
        initial.mu.assign(num_vars, kUnassignedCode);
        Merge(states, circuit, std::move(initial), circuit.AddConst(true));
        break;
      }
      case NiceNodeKind::kIntroduce: {
        const uint32_t element = ntd.vertex(n);
        StateMap& child = table[ntd.children(n)[0]];
        for (auto& [state, gate] : child) {
          // Any subset of the still-unassigned variables may be mapped
          // to the introduced element.
          std::vector<uint32_t> unassigned;
          for (uint32_t v = 0; v < num_vars; ++v) {
            if (state.mu[v] == kUnassignedCode) unassigned.push_back(v);
          }
          const uint32_t subsets = 1u << unassigned.size();
          for (uint32_t mask = 0; mask < subsets; ++mask) {
            DpState next = state;
            for (size_t i = 0; i < unassigned.size(); ++i) {
              if ((mask >> i) & 1) next.mu[unassigned[i]] = element;
            }
            Merge(states, circuit, std::move(next), gate);
          }
        }
        child.clear();
        break;
      }
      case NiceNodeKind::kForget: {
        const uint32_t element = ntd.vertex(n);
        StateMap& child = table[ntd.children(n)[0]];
        for (auto& [state, gate] : child) {
          DpState next = state;
          bool dead = false;
          for (uint32_t v = 0; v < num_vars; ++v) {
            if (next.mu[v] == element) {
              next.mu[v] = kForgottenCode;
              // A forgotten variable can never be matched against a
              // fact, so states with pending atoms on it are dead.
              if ((atoms_of_var[v] & ~state.satisfied) != 0) {
                dead = true;
                break;
              }
            }
          }
          if (dead) continue;
          Merge(states, circuit, std::move(next), gate);
        }
        child.clear();
        break;
      }
      case NiceNodeKind::kJoin: {
        StateMap& left = table[ntd.children(n)[0]];
        StateMap& right = table[ntd.children(n)[1]];
        for (const auto& [sl, gl] : left) {
          for (const auto& [sr, gr] : right) {
            // Combine μ entries: both branches made their mapping
            // decisions independently; they must agree on current bag
            // elements, and a variable forgotten on one side must be
            // unassigned on the other (its element never occurs there).
            DpState next;
            next.mu.resize(num_vars);
            bool compatible = true;
            for (uint32_t v = 0; v < num_vars; ++v) {
              uint32_t a = sl.mu[v];
              uint32_t b = sr.mu[v];
              if (a == b) {
                next.mu[v] = a;
              } else if (a == kForgottenCode && b == kUnassignedCode) {
                next.mu[v] = kForgottenCode;
              } else if (b == kForgottenCode && a == kUnassignedCode) {
                next.mu[v] = kForgottenCode;
              } else {
                compatible = false;
                break;
              }
            }
            if (!compatible) continue;
            next.satisfied = sl.satisfied | sr.satisfied;
            Merge(states, circuit, std::move(next),
                  circuit.AddAnd(gl, gr));
          }
        }
        left.clear();
        right.clear();
        break;
      }
    }

    // Fold in the facts assigned to this node: each fact may satisfy any
    // subset of the atoms it matches under the state's μ.
    for (FactId f : facts_at_node[n]) {
      const Fact& fact = pcc.instance().fact(f);
      const GateId fact_gate = pcc.annotation(f);
      std::vector<std::pair<DpState, GateId>> additions;
      for (const auto& [state, gate] : states) {
        // Atoms this fact can satisfy in this state.
        std::vector<uint32_t> matching;
        for (uint32_t a = 0; a < num_atoms; ++a) {
          if ((state.satisfied >> a) & 1) continue;
          const QueryAtom& atom = query.atom(a);
          if (atom.relation != fact.relation ||
              atom.terms.size() != fact.args.size()) {
            continue;
          }
          bool match = true;
          for (size_t i = 0; i < atom.terms.size(); ++i) {
            const Term& t = atom.terms[i];
            uint32_t needed = t.is_var ? state.mu[t.var] : t.constant;
            if (needed != fact.args[i]) {
              match = false;
              break;
            }
          }
          if (match) matching.push_back(a);
        }
        if (matching.empty()) continue;
        GateId with_fact = circuit.AddAnd(gate, fact_gate);
        const uint32_t subsets = 1u << matching.size();
        for (uint32_t mask = 1; mask < subsets; ++mask) {
          DpState next = state;
          for (size_t i = 0; i < matching.size(); ++i) {
            if ((mask >> i) & 1) next.satisfied |= (1u << matching[i]);
          }
          additions.emplace_back(std::move(next), with_fact);
        }
      }
      for (auto& [state, gate] : additions) {
        Merge(states, circuit, std::move(state), gate);
      }
    }

    if (stats != nullptr) {
      stats->total_states += states.size();
      stats->max_states_per_node =
          std::max(stats->max_states_per_node, states.size());
    }
  }

  // Accept: root states with all atoms satisfied.
  std::vector<GateId> accepting;
  for (const auto& [state, gate] : table[ntd.root()]) {
    if (state.satisfied == full_mask) accepting.push_back(gate);
  }
  return circuit.AddOr(std::move(accepting));
}

namespace {

Graph GaifmanGraph(const Instance& instance) {
  return Graph::FromEdges(static_cast<uint32_t>(instance.DomainSize()),
                          instance.GaifmanEdges());
}

// The nice decomposition an elimination of the instance's Gaifman graph
// derives, with every fact assigned to a node whose bag covers it.
DecomposedInstance DecomposeByElimination(const Instance& instance,
                                          EliminationOrder elimination) {
  const uint32_t n = static_cast<uint32_t>(instance.DomainSize());
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[elimination.order[i]] = i;
  std::vector<BagId> bag_of_vertex;
  TreeDecomposition td =
      TreeDecomposition::FromElimination(elimination, &bag_of_vertex);

  DecomposedInstance result;
  std::vector<NiceNodeId> top_of_bag;
  result.ntd = NiceTreeDecomposition::FromTreeDecomposition(td, &top_of_bag);
  result.width = td.Width();
  result.facts_at_node.assign(result.ntd.NumNodes(), {});

  for (FactId f = 0; f < instance.NumFacts(); ++f) {
    const Fact& fact = instance.fact(f);
    NiceNodeId node;
    if (fact.args.empty()) {
      node = result.ntd.root();  // Empty bag covers the empty element set.
    } else {
      // The fact's elements form a clique of the Gaifman graph, so the
      // bag of the earliest-eliminated element contains all of them.
      Value earliest = fact.args[0];
      for (Value v : fact.args) {
        if (position[v] < position[earliest]) earliest = v;
      }
      node = top_of_bag[bag_of_vertex[earliest]];
    }
    result.facts_at_node[node].push_back(f);
  }
  result.elimination_order = std::move(elimination.order);
  return result;
}

}  // namespace

DecomposedInstance DecomposeInstance(const Instance& instance) {
  return DecomposeByElimination(instance, MinFillOrder(GaifmanGraph(instance)));
}

DecomposedInstance DecomposeInstanceWithOrder(const Instance& instance,
                                              std::vector<VertexId> order) {
  TUD_CHECK_EQ(order.size(), instance.DomainSize())
      << "elimination order must cover the instance domain";
  return DecomposeByElimination(
      instance, EliminateInOrder(GaifmanGraph(instance), order));
}

GateId ComputeCqLineage(const ConjunctiveQuery& query, PccInstance& pcc,
                        LineageStats* stats) {
  DecomposedInstance dec = DecomposeInstance(pcc.instance());
  return ComputeCqLineageOnDecomposition(query, pcc, dec.ntd,
                                         dec.facts_at_node, stats);
}

GateId ComputeUcqLineage(const UnionOfConjunctiveQueries& query,
                         PccInstance& pcc, LineageStats* stats) {
  DecomposedInstance dec = DecomposeInstance(pcc.instance());
  std::vector<GateId> parts;
  parts.reserve(query.disjuncts().size());
  LineageStats accumulated;
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    LineageStats one;
    parts.push_back(ComputeCqLineageOnDecomposition(cq, pcc, dec.ntd,
                                                    dec.facts_at_node, &one));
    accumulated.decomposition_width = one.decomposition_width;
    accumulated.num_nice_nodes = one.num_nice_nodes;
    accumulated.total_states += one.total_states;
    accumulated.max_states_per_node =
        std::max(accumulated.max_states_per_node, one.max_states_per_node);
  }
  if (stats != nullptr) *stats = accumulated;
  return pcc.circuit().AddOr(std::move(parts));
}

}  // namespace tud

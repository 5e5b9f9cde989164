#include "inference/hybrid.h"

#include <algorithm>

#include "treedec/elimination.h"
#include "treedec/graph.h"

namespace tud {

std::pair<BoolCircuit, GateId> RestrictCircuit(
    const BoolCircuit& circuit, GateId root,
    const std::vector<std::optional<bool>>& fixed) {
  BoolCircuit out;
  std::vector<GateId> remap(circuit.NumGates(), kInvalidGate);
  for (GateId g : circuit.ReachableFrom(root)) {
    switch (circuit.kind(g)) {
      case GateKind::kConst:
        remap[g] = out.AddConst(circuit.const_value(g));
        break;
      case GateKind::kVar: {
        EventId e = circuit.var(g);
        if (e < fixed.size() && fixed[e].has_value()) {
          remap[g] = out.AddConst(*fixed[e]);
        } else {
          remap[g] = out.AddVar(e);
        }
        break;
      }
      case GateKind::kNot:
        remap[g] = out.AddNot(remap[circuit.inputs(g)[0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        std::vector<GateId> ins;
        ins.reserve(circuit.inputs(g).size());
        for (GateId in : circuit.inputs(g)) ins.push_back(remap[in]);
        remap[g] = circuit.kind(g) == GateKind::kAnd
                       ? out.AddAnd(std::move(ins))
                       : out.AddOr(std::move(ins));
        break;
      }
    }
  }
  return {std::move(out), remap[root]};
}

std::vector<EventId> SelectCoreEvents(const BoolCircuit& circuit, GateId root,
                                      int target_width, size_t max_core) {
  // Greedy: repeatedly restrict the circuit by pinning the chosen core
  // events (to an arbitrary constant — structure, not values, drives the
  // width estimate), rebuild the binarised primal graph, and check the
  // min-fill width. Restriction folds away the gates that depended on
  // the pinned events, which is what actually shrinks the width of the
  // per-sample inference problem in HybridEngine.
  std::vector<std::optional<bool>> fixed(circuit.NumEvents());
  std::vector<EventId> core;
  while (core.size() < max_core) {
    auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
    auto [bin, remap] = restricted.Binarize();
    GateId bin_root = remap[restricted_root];
    if (bin.kind(bin_root) == GateKind::kConst) break;
    const Graph graph = Graph::FromEdges(
        static_cast<uint32_t>(bin.NumGates()), bin.PrimalEdges());
    uint32_t width = MinFillOrder(graph).width;
    if (static_cast<int>(width) <= target_width) break;
    // Pin the variable with the highest current degree.
    GateId best = kInvalidGate;
    uint32_t best_degree = 0;
    for (GateId g = 0; g < bin.NumGates(); ++g) {
      if (bin.kind(g) != GateKind::kVar) continue;
      if (graph.Degree(g) > best_degree) {
        best = g;
        best_degree = graph.Degree(g);
      }
    }
    if (best == kInvalidGate) break;  // No variables left to condition.
    EventId e = bin.var(best);
    fixed[e] = true;
    core.push_back(e);
  }
  std::sort(core.begin(), core.end());
  core.erase(std::unique(core.begin(), core.end()), core.end());
  return core;
}

}  // namespace tud

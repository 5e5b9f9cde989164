#include "inference/hybrid.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "inference/junction_tree.h"
#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "util/check.h"

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

EngineResult HybridProbability(const BoolCircuit& circuit, GateId root,
                               const EventRegistry& registry,
                               const std::vector<EventId>& core_events,
                               uint32_t num_samples, Rng& rng) {
  BudgetMeter unlimited;
  EngineResult result;
  result.status = HybridProbabilityGoverned(
      circuit, root, registry, core_events, num_samples, rng, unlimited,
      &result);
  return result;
}

EngineStatus HybridProbabilityGoverned(const BoolCircuit& circuit, GateId root,
                                       const EventRegistry& registry,
                                       const std::vector<EventId>& core_events,
                                       uint32_t num_samples, Rng& rng,
                                       BudgetMeter& meter,
                                       EngineResult* result) {
  TUD_CHECK_GT(num_samples, 0u);
  result->engine = "hybrid";
  result->value = 0.0;
  result->error_bound = 1.0;
  double total = 0.0;
  double total_sq = 0.0;
  uint32_t done = 0;
  EngineStatus st = EngineStatus::kOk;
  std::vector<std::optional<bool>> fixed(registry.size());
  for (uint32_t s = 0; s < num_samples; ++s) {
    st = meter.CheckNow();
    if (st != EngineStatus::kOk) break;
    for (EventId e : core_events) {
      fixed[e] = rng.Bernoulli(registry.probability(e));
    }
    auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
    JunctionTreePlan plan =
        JunctionTreePlan::Build(restricted, restricted_root);
    if (plan.build_status() != EngineStatus::kOk) {
      st = plan.build_status();
      break;
    }
    // The whole restricted table set is about to be materialised; charge
    // it up front so the cell cap trips before the arena is touched.
    st = meter.Charge(static_cast<uint64_t>(plan.total_cells()));
    if (st != EngineStatus::kOk) break;
    double p = 0.0;
    st = plan.ExecuteGoverned(registry, {}, nullptr, meter.budget(), &p);
    if (st != EngineStatus::kOk) break;
    total += p;
    total_sq += p * p;
    ++done;
    result->stats.width = std::max(result->stats.width, plan.width());
  }
  result->stats.num_samples = done;
  if (done > 0) {
    result->value = total / done;
    if (done > 1) {
      // 95% half-width from the sample variance of the per-sample exact
      // conditionals (the Rao-Blackwellised estimator's spread).
      double variance = (total_sq - total * total / done) / (done - 1);
      result->error_bound = 1.96 * std::sqrt(std::max(variance, 0.0) / done);
    }
  }
  return st;
}

std::vector<EventId> SelectCoreEvents(const BoolCircuit& circuit, GateId root,
                                      int target_width, size_t max_core) {
  // Greedy: repeatedly restrict the circuit by pinning the chosen core
  // events (to an arbitrary constant — structure, not values, drives the
  // width estimate), rebuild the binarised primal graph, and check the
  // min-fill width. Restriction folds away the gates that depended on
  // the pinned events, which is what actually shrinks the width of the
  // per-sample inference problem in HybridProbability.
  std::vector<std::optional<bool>> fixed(circuit.NumEvents());
  std::vector<EventId> core;
  while (core.size() < max_core) {
    auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
    auto [bin, remap] = restricted.Binarize();
    GateId bin_root = remap[restricted_root];
    if (bin.kind(bin_root) == GateKind::kConst) break;
    Graph graph(static_cast<uint32_t>(bin.NumGates()));
    for (const auto& [a, b] : bin.PrimalEdges()) graph.AddEdge(a, b);
    uint32_t width = EliminationWidth(graph, MinFillOrder(graph));
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

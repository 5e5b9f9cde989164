#include "inference/exhaustive.h"

#include <vector>

#include "util/check.h"

namespace tud {

double ExhaustiveProbability(const BoolCircuit& circuit, GateId root,
                             const EventRegistry& registry) {
  BudgetMeter unlimited;
  double value = 0.0;
  const EngineStatus st =
      ExhaustiveProbabilityGoverned(circuit, root, registry, unlimited, &value);
  TUD_CHECK(st == EngineStatus::kOk)
      << "exhaustive enumeration over more than 30 events";
  return value;
}

EngineStatus ExhaustiveProbabilityGoverned(const BoolCircuit& circuit,
                                           GateId root,
                                           const EventRegistry& registry,
                                           BudgetMeter& meter, double* value) {
  std::vector<EventId> used;
  for (GateId g : circuit.ReachableFrom(root)) {
    if (circuit.kind(g) == GateKind::kVar) used.push_back(circuit.var(g));
  }
  if (used.size() > 30u) return EngineStatus::kResourceExhausted;

  double total = 0.0;
  Valuation valuation(registry.size());
  for (uint64_t mask = 0; mask < (1ULL << used.size()); ++mask) {
    EngineStatus st = meter.Charge(1);
    if (st != EngineStatus::kOk) return st;
    double p = 1.0;
    for (size_t i = 0; i < used.size(); ++i) {
      bool bit = (mask >> i) & 1;
      valuation.set_value(used[i], bit);
      double pe = registry.probability(used[i]);
      p *= bit ? pe : (1.0 - pe);
    }
    if (circuit.Evaluate(root, valuation)) total += p;
  }
  *value = total;
  return EngineStatus::kOk;
}

}  // namespace tud

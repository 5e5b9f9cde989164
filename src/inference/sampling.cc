#include "inference/sampling.h"

#include <algorithm>

#include "events/valuation.h"
#include "util/check.h"

namespace tud {

double SampleProbability(const BoolCircuit& circuit, GateId root,
                         const EventRegistry& registry, uint32_t num_samples,
                         Rng& rng) {
  BudgetMeter unlimited;
  double value = 0.0;
  uint32_t done = 0;
  SampleProbabilityGoverned(circuit, root, registry, num_samples, rng,
                            unlimited, &value, &done);
  return value;
}

EngineStatus SampleProbabilityGoverned(const BoolCircuit& circuit, GateId root,
                                       const EventRegistry& registry,
                                       uint32_t num_samples, Rng& rng,
                                       BudgetMeter& meter, double* value,
                                       uint32_t* samples_done) {
  TUD_CHECK_GT(num_samples, 0u);
  const uint64_t cells_per_sample =
      std::max<uint64_t>(1, circuit.NumGates());
  uint32_t hits = 0;
  uint32_t done = 0;
  EngineStatus st = EngineStatus::kOk;
  for (uint32_t s = 0; s < num_samples; ++s) {
    st = meter.Charge(cells_per_sample);
    if (st != EngineStatus::kOk) break;
    Valuation valuation = Valuation::Sample(registry, rng);
    if (circuit.Evaluate(root, valuation)) ++hits;
    ++done;
  }
  *samples_done = done;
  *value = done > 0 ? static_cast<double>(hits) / done : 0.0;
  return st;
}

}  // namespace tud

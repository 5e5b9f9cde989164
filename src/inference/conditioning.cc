#include "inference/conditioning.h"

#include <cmath>

#include "util/check.h"

namespace tud {

EngineResult ConditionalProbability(BoolCircuit& circuit, GateId query,
                                    GateId observation,
                                    const EventRegistry& registry,
                                    const QueryBudget& budget) {
  constexpr const char* kName = "conditioning";
  if (query >= circuit.NumGates()) {
    return MakeStatusResult(kName, EngineStatus::kInvalidArgument);
  }
  JunctionTreeEngine engine;
  const EngineResult obs =
      engine.Estimate(circuit, observation, registry, {}, budget);
  if (!obs.ok()) return MakeStatusResult(kName, obs.status);
  // A zero-probability observation has no conditional: a malformed
  // request, not a reason to abort the process.
  if (obs.value <= 0.0) {
    return MakeStatusResult(kName, EngineStatus::kInvalidArgument);
  }
  EngineResult result = engine.Estimate(
      circuit, circuit.AddAnd(query, observation), registry, {}, budget);
  result.engine = kName;
  if (result.ok()) result.value /= obs.value;
  return result;
}

BoolFormula SubstituteEvent(const BoolFormula& formula, EventId event,
                            bool value) {
  switch (formula.kind()) {
    case BoolFormula::Kind::kConst:
      return formula;
    case BoolFormula::Kind::kVar:
      return formula.var() == event ? BoolFormula::Constant(value) : formula;
    case BoolFormula::Kind::kNot:
      return BoolFormula::Not(
          SubstituteEvent(formula.children()[0], event, value));
    case BoolFormula::Kind::kAnd:
    case BoolFormula::Kind::kOr: {
      std::vector<BoolFormula> parts;
      parts.reserve(formula.children().size());
      for (const BoolFormula& child : formula.children()) {
        parts.push_back(SubstituteEvent(child, event, value));
      }
      return formula.kind() == BoolFormula::Kind::kAnd
                 ? BoolFormula::And(parts)
                 : BoolFormula::Or(parts);
    }
  }
  TUD_CHECK(false) << "unreachable";
  return formula;
}

CInstance ConditionOnEventLiteral(const CInstance& instance, EventId event,
                                  bool value) {
  CInstance out(instance.instance().schema());
  for (EventId e = 0; e < instance.events().size(); ++e) {
    double p = instance.events().probability(e);
    if (e == event) p = value ? 1.0 : 0.0;
    out.events().Register(instance.events().name(e), p);
  }
  for (FactId f = 0; f < instance.NumFacts(); ++f) {
    out.AddFact(instance.instance().fact(f).relation,
                instance.instance().fact(f).args,
                SubstituteEvent(instance.annotation(f), event, value));
  }
  return out;
}

double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

EngineStatus SelectBestQuestion(const BoolCircuit& circuit, GateId query,
                                const EventRegistry& registry,
                                const std::vector<EventId>& candidates,
                                QuestionChoice* choice) {
  if (candidates.empty()) return EngineStatus::kInvalidArgument;
  // Every evaluation is of the same root under different pins: one
  // cached plan serves all of them.
  JunctionTreeEngine engine(/*cache_plans=*/true);
  const EngineResult prior = engine.Estimate(circuit, query, registry);
  if (!prior.ok()) return prior.status;
  QuestionChoice best{candidates[0], 0.0, BinaryEntropy(prior.value)};
  for (size_t i = 0; i < candidates.size(); ++i) {
    const EventId e = candidates[i];
    const EngineResult yes = engine.Estimate(circuit, query, registry,
                                             {{e, true}});
    if (!yes.ok()) return yes.status;
    const EngineResult no = engine.Estimate(circuit, query, registry,
                                            {{e, false}});
    if (!no.ok()) return no.status;
    const double pe = registry.probability(e);
    const double expected =
        pe * BinaryEntropy(yes.value) + (1.0 - pe) * BinaryEntropy(no.value);
    if (i == 0 || expected < best.expected_entropy) {
      best.event = e;
      best.expected_entropy = expected;
    }
  }
  *choice = best;
  return EngineStatus::kOk;
}

}  // namespace tud

#ifndef TUD_INFERENCE_CONDITIONING_H_
#define TUD_INFERENCE_CONDITIONING_H_

#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "inference/engine.h"
#include "uncertain/c_instance.h"
#include "util/budget.h"

namespace tud {

/// Conditioning (paper §4): revising uncertain data to force the outcome
/// of probabilistic events given observations, and choosing which
/// question to ask next to reduce uncertainty.

/// Conditional probability P(query | observation) where both are gates of
/// the same circuit, computed exactly as P(q ∧ o) / P(o) by two
/// JunctionTreeEngine runs under `budget` (the caps apply to each run).
/// Adds the gate q ∧ o to `circuit`. The result's status is
/// kInvalidArgument when a gate is out of range or P(observation) = 0
/// (the conditional does not exist), and the failing run's status when
/// either plan cannot be built or trips the budget. This is the body of
/// ConditioningEngine.
EngineResult ConditionalProbability(BoolCircuit& circuit, GateId query,
                                    GateId observation,
                                    const EventRegistry& registry,
                                    const QueryBudget& budget = {});

/// Materialises conditioning of a c-instance on an event literal: the
/// paper notes that "we can easily condition a c-instance to indicate
/// that an event is true" — each annotation is specialised by
/// substituting the literal, and the event's probability is set to 0/1 in
/// the returned instance's registry. (Forcing an arbitrary *fact
/// annotation* to be true is the hard direction and is intentionally not
/// offered as a materialisation; use ConditionalProbability instead.)
CInstance ConditionOnEventLiteral(const CInstance& instance, EventId event,
                                  bool value);

/// Specialises formula annotations by substituting a literal.
BoolFormula SubstituteEvent(const BoolFormula& formula, EventId event,
                            bool value);

/// Binary entropy (in bits) of a probability.
double BinaryEntropy(double p);

/// Value-of-information question selection: among `candidates` (events we
/// may ask an oracle about, e.g., crowd workers), picks the one whose
/// answer minimises the expected posterior entropy of P(query), i.e.,
/// maximises expected information gain, and writes it to `*choice`.
/// Greedy one-step lookahead, as in crowd data sourcing [9]. The 2N+1
/// evaluations (the prior, then each candidate pinned true and false)
/// run through one plan-caching JunctionTreeEngine, so the query's plan
/// is built once. Returns kInvalidArgument if `candidates` is empty or
/// names an unknown event, and the engine's status if the plan cannot be
/// built; `*choice` is written only on kOk.
struct QuestionChoice {
  EventId event;
  double expected_entropy;   ///< E[H(P(query | answer))].
  double current_entropy;    ///< H(P(query)) before asking.
};
EngineStatus SelectBestQuestion(const BoolCircuit& circuit, GateId query,
                                const EventRegistry& registry,
                                const std::vector<EventId>& candidates,
                                QuestionChoice* choice);

}  // namespace tud

#endif  // TUD_INFERENCE_CONDITIONING_H_

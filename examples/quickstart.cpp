// Quickstart: build a small tuple-independent database, open a
// QuerySession on it — the intended entry point: the instance's tree
// encoding is derived once and shared by every query — and ask the
// paper's running query q = ∃xy R(x) S(x,y) T(y) through the unified
// ProbabilityEngine interface, plus its Why-provenance.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <memory>

#include "inference/engine.h"
#include "queries/conjunctive_query.h"
#include "queries/query_session.h"
#include "semiring/provenance_eval.h"
#include "semiring/semiring.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"

int main() {
  using namespace tud;

  // 1. A schema and a TID instance: every fact is independently present
  //    with its probability.
  Schema schema;
  RelationId r = schema.AddRelation("R", 1);
  RelationId s = schema.AddRelation("S", 2);
  RelationId t = schema.AddRelation("T", 1);

  Dictionary dict;
  Value a = dict.Intern("a");
  Value b = dict.Intern("b");
  Value c = dict.Intern("c");

  TidInstance tid(schema);
  tid.AddFact(r, {a}, 0.9);
  tid.AddFact(s, {a, b}, 0.5);
  tid.AddFact(s, {b, c}, 0.7);
  tid.AddFact(r, {b}, 0.4);
  tid.AddFact(t, {b}, 0.8);
  tid.AddFact(t, {c}, 0.6);

  std::printf("Instance:\n%s\n", tid.instance().ToString(dict).c_str());

  // 2. A session owns the pcc-instance view and its tree encoding
  //    (Theorem 1 pipeline: decompose once, run the lineage DP per
  //    query). The default engine is the AutoEngine planner.
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(r, s, t);
  std::printf("Query: %s\n\n", q.ToString(schema).c_str());

  LineageStats stats;
  GateId lineage = session.CqLineage(q, &stats);
  std::printf("Lineage built over a width-%d decomposition, %zu DP states\n",
              stats.decomposition_width, stats.total_states);

  EngineResult planned = session.Probability(lineage);
  std::printf("P(q) = %.9f  (planner chose the %s engine)\n\n",
              planned.value, planned.engine);

  // 3. The same probability through every exact engine of the unified
  //    interface — one Estimate signature instead of five ad-hoc ones.
  ExhaustiveEngine exhaustive;
  JunctionTreeEngine message_passing;
  BddEngine bdd;
  ProbabilityEngine* engines[] = {&exhaustive, &message_passing, &bdd};
  for (ProbabilityEngine* engine : engines) {
    EngineResult result = engine->Estimate(
        session.pcc().circuit(), lineage, session.pcc().events());
    std::printf("P(q) by %-15s : %.9f\n", engine->name(), result.value);
  }

  // 4. Conditioning comes free with the interface: pin the first fact's
  //    event to false and re-ask.
  EngineResult conditioned = session.Probability(lineage, {{0, false}});
  std::printf("P(q | R(a) absent)       : %.9f\n\n", conditioned.value);

  // 5. Why-provenance from the same (monotone) lineage circuit.
  auto why = EvalMonotoneCircuit<WhySemiring>(
      session.pcc().circuit(), lineage,
      [](EventId e) { return WhySemiring::Value{{e}}; });
  std::printf("Why-provenance (minimal witness sets of fact events):\n  %s\n",
              WhySemiring::ToString(why, session.pcc().events()).c_str());
  return 0;
}

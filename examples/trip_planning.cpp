// The paper's Table 1: a c-instance of trips to book depending on which
// conferences (PODS in Melbourne, STOC in Portland) the researcher
// attends. Demonstrates possibility, certainty, probability and
// conditioning on c/pc-instances.
//
//   $ ./examples/trip_planning

#include <cstdio>

#include "inference/conditioning.h"
#include "inference/engine.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"

int main() {
  using namespace tud;

  Schema schema;
  RelationId trip = schema.AddRelation("Trip", 2);

  Dictionary dict;
  Value cdg = dict.Intern("Paris_CDG");
  Value mel = dict.Intern("Melbourne_MEL");
  Value pdx = dict.Intern("Portland_PDX");

  CInstance ci(schema);
  EventId pods = ci.events().Register("pods", 0.7);  // Likely attends PODS.
  ci.events().Register("stoc", 0.4);

  auto annot = [&](const char* text) {
    auto f = BoolFormula::Parse(text, ci.events());
    return *f;
  };
  // Table 1, row by row.
  ci.AddFact(trip, {cdg, mel}, annot("pods"));
  ci.AddFact(trip, {mel, cdg}, annot("pods & !stoc"));
  ci.AddFact(trip, {mel, pdx}, annot("pods & stoc"));
  ci.AddFact(trip, {cdg, pdx}, annot("!pods & stoc"));
  ci.AddFact(trip, {pdx, cdg}, annot("stoc"));

  std::printf("Table 1 c-instance (events: pods p=0.7, stoc p=0.4):\n");
  for (FactId f = 0; f < ci.NumFacts(); ++f) {
    const Fact& fact = ci.instance().fact(f);
    std::printf("  Trip(%-13s -> %-13s)  [%s]  possible=%d certain=%d\n",
                dict.name(fact.args[0]).c_str(),
                dict.name(fact.args[1]).c_str(),
                ci.annotation(f).ToString(ci.events()).c_str(),
                ci.IsPossible(f), ci.IsCertain(f));
  }

  // Query: is some leg into Portland booked? q = ∃x Trip(x, PDX).
  PccInstance pcc = PccInstance::FromCInstance(ci);
  ConjunctiveQuery q;
  q.AddAtom(trip, {Term::V(0), Term::C(pdx)});
  GateId lineage = ComputeCqLineage(q, pcc);
  JunctionTreeEngine engine;
  double p = engine.Estimate(pcc.circuit(), lineage, pcc.events()).value;
  std::printf("\nP(some trip lands in Portland) = %.4f  (= P(stoc))\n", p);

  // Conditioning (§4): the researcher's PODS paper got in (pods = true).
  CInstance given_pods = ConditionOnEventLiteral(ci, pods, true);
  std::printf("\nAfter conditioning on pods = true:\n");
  std::printf("  Trip(CDG->MEL) certain: %d\n", given_pods.IsCertain(0));
  PccInstance pcc2 = PccInstance::FromCInstance(given_pods);
  GateId lineage2 = ComputeCqLineage(q, pcc2);
  std::printf("  P(some trip lands in Portland | pods) = %.4f\n",
              engine.Estimate(pcc2.circuit(), lineage2, pcc2.events()).value);

  // Round-trip query: fly out of CDG and eventually back into CDG.
  ConjunctiveQuery round_trip;
  round_trip.AddAtom(trip, {Term::C(cdg), Term::V(0)});
  round_trip.AddAtom(trip, {Term::V(1), Term::C(cdg)});
  GateId rt = ComputeCqLineage(round_trip, pcc);
  std::printf("\nP(leave CDG and some leg returns to CDG) = %.4f\n",
              engine.Estimate(pcc.circuit(), rt, pcc.events()).value);
  return 0;
}

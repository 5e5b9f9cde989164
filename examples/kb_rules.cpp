// Probabilistic rules (§2.3): enriching an incomplete knowledge base
// with soft rules ("a citizen of a country probably lives there, and
// probably speaks its official language"), then querying the chased
// pc-instance.
//
//   $ ./examples/kb_rules

#include <cstdio>

#include "inference/engine.h"
#include "rules/chase.h"
#include "uncertain/pcc_instance.h"

int main() {
  using namespace tud;

  Schema schema;
  RelationId citizen = schema.AddRelation("CitizenOf", 2);
  RelationId lives = schema.AddRelation("LivesIn", 2);
  RelationId lang = schema.AddRelation("Language", 2);
  RelationId speaks = schema.AddRelation("Speaks", 2);

  Dictionary dict;
  Value alice = dict.Intern("alice");
  Value bob = dict.Intern("bob");
  Value france = dict.Intern("france");
  Value peru = dict.Intern("peru");
  Value french = dict.Intern("french");
  Value spanish = dict.Intern("spanish");

  CInstance kb(schema);
  kb.AddFact(citizen, {alice, france}, BoolFormula::True());
  kb.AddFact(citizen, {bob, peru}, BoolFormula::True());
  kb.AddFact(lang, {france, french}, BoolFormula::True());
  kb.AddFact(lang, {peru, spanish}, BoolFormula::True());
  // One extracted fact is itself uncertain.
  EventId extractor = kb.events().Register("extractor_ok", 0.7);
  kb.AddFact(citizen, {bob, france}, BoolFormula::Var(extractor));

  std::vector<Rule> rules = {
      // CitizenOf(p, c) -> LivesIn(p, c), applies in 80% of cases.
      MakeRule("lives",
               {{citizen, {Term::V(0), Term::V(1)}}},
               {{lives, {Term::V(0), Term::V(1)}}}, 0.8),
      // LivesIn(p, c) & Language(c, l) -> Speaks(p, l), 90%.
      MakeRule("speaks",
               {{lives, {Term::V(0), Term::V(1)}},
                {lang, {Term::V(1), Term::V(2)}}},
               {{speaks, {Term::V(0), Term::V(2)}}}, 0.9),
  };

  ChaseResult result = ProbabilisticChase(kb, rules, dict);
  std::printf("Chase: %zu firings over %u round(s), %zu facts, %zu events\n\n",
              result.num_firings, result.rounds_run,
              result.instance.NumFacts(), result.instance.events().size());

  const CInstance& chased = result.instance;
  std::printf("%-30s %-28s %s\n", "fact", "annotation", "probability");
  JunctionTreeEngine engine;
  for (FactId f = 0; f < chased.NumFacts(); ++f) {
    const Fact& fact = chased.instance().fact(f);
    std::string shown = schema.name(fact.relation) + "(" +
                        dict.name(fact.args[0]) + ", " +
                        dict.name(fact.args[1]) + ")";
    BoolCircuit c;
    GateId g = c.AddFormula(chased.annotation(f));
    double p = engine.Estimate(c, g, chased.events()).value;
    std::string ann = chased.annotation(f).ToString(chased.events());
    if (ann.size() > 26) ann = ann.substr(0, 23) + "...";
    std::printf("%-30s %-28s %.4f\n", shown.c_str(), ann.c_str(), p);
  }

  std::printf(
      "\nNote how Speaks(bob, french) combines the uncertain extraction\n"
      "(0.7), the lives rule (0.8) and the speaks rule (0.9): its\n"
      "probability is the product, while facts derivable in multiple\n"
      "ways would combine as a noisy-or of their derivations.\n");
  return 0;
}

// Conditioning with a simulated crowd (§4): a Wikidata-style document
// with several untrusted contributors; we iteratively pick the most
// informative contributor to ask a (noiseless) oracle about, condition
// on the answer, and watch the query's entropy fall — versus asking at
// random.
//
//   $ ./examples/crowd_conditioning

#include <algorithm>
#include <cstdio>
#include <vector>

#include "inference/conditioning.h"
#include "inference/engine.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "util/rng.h"

int main() {
  using namespace tud;
  Rng rng(2026);

  // Document: one entity; five contributors each asserted one claim;
  // the query pattern needs claims 0 AND 1 (the others are noise).
  PrXmlDocument doc;
  std::vector<EventId> contributors;
  for (int i = 0; i < 5; ++i) {
    contributors.push_back(doc.events().Register(
        "contributor" + std::to_string(i), 0.5));
  }
  PNodeId root = doc.AddRoot("entity");
  const char* labels[] = {"surname", "birthplace", "occupation", "award",
                          "website"};
  for (int i = 0; i < 5; ++i) {
    PNodeId cie = doc.AddChild(root, PNodeKind::kCie, "");
    PNodeId claim = doc.AddChild(cie, PNodeKind::kOrdinary, labels[i]);
    doc.SetEdgeLiterals(claim, {{contributors[i], true}});
  }
  doc.Finalize();

  TreePattern pattern;
  PatternNodeId pr = pattern.AddRoot("entity");
  pattern.AddChild(pr, "surname", PatternAxis::kChild);
  pattern.AddChild(pr, "birthplace", PatternAxis::kChild);
  GateId query = PatternLineage(pattern, doc);

  // Hidden ground truth the oracle answers from.
  Valuation truth = Valuation::Sample(doc.events(), rng);
  std::printf("Hidden truth: %s\n\n",
              truth.ToString(doc.events()).c_str());

  // Greedy entropy-minimising questioning. Every probability below is
  // of the same query gate under different pinned answers, so one
  // plan-caching engine builds its message-passing plan once.
  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EventId> askable = contributors;
  std::vector<std::pair<EventId, bool>> answers;
  std::printf("%-5s %-14s %-10s %-10s\n", "step", "asked", "P(query)",
              "entropy");
  for (int step = 0; !askable.empty(); ++step) {
    double p = engine.Estimate(doc.circuit(), query, doc.events(), answers)
                   .value;
    std::printf("%-5d %-14s %-10.4f %-10.4f\n", step,
                step == 0 ? "-" : doc.events().name(answers.back().first)
                                       .c_str(),
                p, BinaryEntropy(p));
    if (BinaryEntropy(p) < 1e-9) {
      std::printf("\nQuery resolved after %d question(s).\n", step);
      break;
    }
    // Pick the best next question among the remaining askable events,
    // taking already-gathered answers into account by conditioning the
    // candidate probabilities on them.
    EventId best = askable[0];
    double best_expected = 2.0;
    for (EventId e : askable) {
      auto with = answers;
      with.emplace_back(e, true);
      double pt = engine.Estimate(doc.circuit(), query, doc.events(), with)
                      .value;
      with.back().second = false;
      double pf = engine.Estimate(doc.circuit(), query, doc.events(), with)
                      .value;
      double pe = doc.events().probability(e);
      double expected =
          pe * BinaryEntropy(pt) + (1 - pe) * BinaryEntropy(pf);
      if (expected < best_expected) {
        best_expected = expected;
        best = e;
      }
    }
    // Ask the oracle and record the answer.
    answers.emplace_back(best, truth.value(best));
    askable.erase(std::find(askable.begin(), askable.end(), best));
  }
  return 0;
}

// Experiment X8 (§4, conditioning & question selection): on
// Figure-1-style documents with many untrusted contributors, compare
// entropy-greedy question selection against random questioning: number
// of oracle questions needed before the query probability is resolved
// (entropy below 0.01 bits), averaged over hidden truths.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "inference/conditioning.h"
#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "util/rng.h"

namespace tud {
namespace {

struct CrowdSetup {
  PrXmlDocument doc;
  GateId query = kInvalidGate;
  std::vector<EventId> contributors;
};

// `relevant` of the contributors gate the query's claims (conjunction);
// the rest gate noise claims.
CrowdSetup MakeSetup(uint32_t num_contributors, uint32_t relevant) {
  CrowdSetup setup;
  for (uint32_t i = 0; i < num_contributors; ++i) {
    setup.contributors.push_back(setup.doc.events().Register(
        "c" + std::to_string(i), 0.5));
  }
  PNodeId root = setup.doc.AddRoot("entity");
  for (uint32_t i = 0; i < num_contributors; ++i) {
    PNodeId cie = setup.doc.AddChild(root, PNodeKind::kCie, "");
    PNodeId claim = setup.doc.AddChild(
        cie, PNodeKind::kOrdinary,
        (i < relevant ? "claim" : "noise") + std::to_string(i));
    setup.doc.SetEdgeLiterals(claim, {{setup.contributors[i], true}});
  }
  setup.doc.Finalize();
  TreePattern pattern;
  PatternNodeId r = pattern.AddRoot("entity");
  for (uint32_t i = 0; i < relevant; ++i) {
    pattern.AddChild(r, "claim" + std::to_string(i), PatternAxis::kChild);
  }
  setup.query = PatternLineage(pattern, setup.doc);
  return setup;
}

// Runs one interrogation; returns the number of questions asked before
// the entropy of P(query | answers) drops below 0.01 bits.
int Interrogate(CrowdSetup& setup, const Valuation& truth, bool greedy,
                Rng& rng) {
  std::vector<EventId> askable = setup.contributors;
  std::vector<std::pair<EventId, bool>> answers;
  for (int asked = 0; !askable.empty(); ++asked) {
    double p = answers.empty()
                   ? JunctionTreeEngine()
                         .Estimate(setup.doc.circuit(), setup.query,
                                   setup.doc.events())
                         .value
                   : JunctionTreeEngine()
                         .Estimate(setup.doc.circuit(), setup.query,
                                   setup.doc.events(), answers)
                         .value;
    if (BinaryEntropy(p) < 0.01) return asked;
    EventId pick;
    if (greedy) {
      pick = askable[0];
      double best = 2.0;
      for (EventId e : askable) {
        auto with = answers;
        with.emplace_back(e, true);
        double pt = JunctionTreeEngine()
                        .Estimate(setup.doc.circuit(), setup.query,
                                  setup.doc.events(), with)
                        .value;
        with.back().second = false;
        double pf = JunctionTreeEngine()
                        .Estimate(setup.doc.circuit(), setup.query,
                                  setup.doc.events(), with)
                        .value;
        double pe = setup.doc.events().probability(e);
        double expected =
            pe * BinaryEntropy(pt) + (1 - pe) * BinaryEntropy(pf);
        if (expected < best) {
          best = expected;
          pick = e;
        }
      }
    } else {
      pick = askable[rng.UniformInt(askable.size())];
    }
    answers.emplace_back(pick, truth.value(pick));
    askable.erase(std::find(askable.begin(), askable.end(), pick));
  }
  return static_cast<int>(setup.contributors.size());
}

void RunPolicy(benchmark::State& state, bool greedy) {
  const uint32_t contributors = static_cast<uint32_t>(state.range(0));
  const uint32_t relevant = 2;
  CrowdSetup setup = MakeSetup(contributors, relevant);
  const int kTruths = 10;
  double total_questions = 0;
  for (auto _ : state) {
    total_questions = 0;
    for (int t = 0; t < kTruths; ++t) {
      Rng rng(1000 + t);
      Valuation truth = Valuation::Sample(setup.doc.events(), rng);
      total_questions += Interrogate(setup, truth, greedy, rng);
    }
    benchmark::DoNotOptimize(total_questions);
  }
  state.counters["contributors"] = contributors;
  state.counters["avg_questions"] = total_questions / kTruths;
}

void BM_GreedyQuestions(benchmark::State& state) {
  RunPolicy(state, /*greedy=*/true);
}
void BM_RandomQuestions(benchmark::State& state) {
  RunPolicy(state, /*greedy=*/false);
}
BENCHMARK(BM_GreedyQuestions)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_RandomQuestions)->Arg(4)->Arg(8)->Arg(12);

}  // namespace
}  // namespace tud

BENCHMARK_MAIN();

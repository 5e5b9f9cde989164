// tree-automaton: tree-shaped data, the paper's PrXML case. One
// closed-loop client keeps a TreeQuerySession over a Wikidata-style
// PrXML document with scoped cie events. Each operation is a fresh
// AutomatonExpr, an And/Or/Not combination of two automaton_library
// atoms over the document's labels, taken through compile, provenance
// run, plan build and execution.
//
// The atoms are the two-state ones (ExistsLabel, EveryBUnderA). Over
// all 16200 pairs of them (a && b, a || !b) and about 500 random, negated
// expressions of this family, the min-degree plan of the lineage stayed
// at most 17 wide on this document; three atoms, or the counting and
// nested-witness atoms, reach widths of 22 to 79, past the junction
// tree's limit of 26, so a seeded operation could fail or run for
// seconds.
//
// Rounds of kOpsPerRound operations, each on a freshly translated tree
// and a fresh session (which memoises every expression it compiles).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "automata/tree_automaton.h"
#include "common.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "prxml/fcns.h"
#include "prxml/to_uncertain_tree.h"
#include "queries/query_session.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kEntities = 48;
constexpr uint32_t kScope = 1;
constexpr uint64_t kDocSeed = 6;
constexpr size_t kOpsPerRound = 64;
constexpr size_t kWarmupOps = 16;
constexpr size_t kChecksPerRound = 2;
constexpr int kMinRounds = 3;
constexpr double kTolerance = 1e-12;

const char* const kLabels[] = {"entity",     "occupation", "musician",
                               "analyst",    "given name", "nameA",
                               "nameB",      "claim",      "statement"};
constexpr size_t kNumLabels = sizeof(kLabels) / sizeof(kLabels[0]);

struct AtomSpec {
  bool every_b_under_a;  ///< EveryBUnderA(a, b), else ExistsLabel(a).
  size_t a, b;           ///< Indices into kLabels.
  bool negate;
};

/// [!](atoms[0] And|Or atoms[1]), each atom optionally negated.
struct ExprSpec {
  AtomSpec atoms[2];
  bool conjunction;
  bool negate;
};

ExprSpec RandomExpr(tud::Rng& rng) {
  ExprSpec spec;
  for (AtomSpec& atom : spec.atoms) {
    atom.every_b_under_a = rng.Bernoulli(0.5);
    atom.a = rng.UniformInt(kNumLabels);
    atom.b = rng.UniformInt(kNumLabels);
    atom.negate = rng.Bernoulli(0.25);
  }
  spec.conjunction = rng.Bernoulli(0.5);
  spec.negate = rng.Bernoulli(0.2);
  return spec;
}

tud::TreeAutomaton MakeAtom(const AtomSpec& atom, tud::Label alphabet,
                            const tud::XmlLabelMap& labels) {
  const tud::Label a = labels.Find(kLabels[atom.a]);
  return atom.every_b_under_a
             ? tud::MakeEveryBUnderA(alphabet, a, labels.Find(kLabels[atom.b]))
             : tud::MakeExistsLabel(alphabet, a);
}

/// Folds an ExprSpec over already-built operands with the given
/// combinators; shared by the measured AutomatonExpr path and the
/// TreeAutomaton reference so both evaluate the same expression.
template <typename T, typename And, typename Or, typename Not>
T Fold(const ExprSpec& spec, T x, T y, And and_op, Or or_op, Not not_op) {
  if (spec.atoms[0].negate) x = not_op(x);
  if (spec.atoms[1].negate) y = not_op(y);
  T result = spec.conjunction ? and_op(x, y) : or_op(x, y);
  return spec.negate ? not_op(result) : result;
}

tud::AutomatonExpr BuildExpr(const ExprSpec& spec,
                             const std::vector<tud::TreeAutomaton>& atoms) {
  return Fold(
      spec, tud::AutomatonExpr::Atom(atoms[0]),
      tud::AutomatonExpr::Atom(atoms[1]),
      [](const tud::AutomatonExpr& x, const tud::AutomatonExpr& y) {
        return x && y;
      },
      [](const tud::AutomatonExpr& x, const tud::AutomatonExpr& y) {
        return x || y;
      },
      [](const tud::AutomatonExpr& x) { return !x; });
}

/// The reference automaton, built with TreeAutomaton's own closure
/// operations. Or goes through De Morgan, since a raw union product is
/// the language union only for complete automata.
tud::TreeAutomaton ReferenceAutomaton(
    const ExprSpec& spec, const std::vector<tud::TreeAutomaton>& atoms) {
  return Fold(
      spec, atoms[0], atoms[1],
      [](const tud::TreeAutomaton& x, const tud::TreeAutomaton& y) {
        return tud::TreeAutomaton::Product(x, y, /*conjunction=*/true);
      },
      [](const tud::TreeAutomaton& x, const tud::TreeAutomaton& y) {
        return tud::TreeAutomaton::Product(x.Complement(), y.Complement(),
                                           /*conjunction=*/true)
            .Complement();
      },
      [](const tud::TreeAutomaton& x) { return x.Complement(); });
}

/// One round's state. The document outlives the session, whose tree
/// reads the document's event registry.
struct TreeState {
  tud::PrXmlDocument doc;
  tud::XmlLabelMap labels;
  tud::Label alphabet = 0;
  std::unique_ptr<tud::TreeQuerySession> session;
};

std::unique_ptr<TreeState> SetUp(Tracer* tracer) {
  auto state = std::make_unique<TreeState>();
  tud::Rng doc_rng(kDocSeed);
  state->doc = tud::workloads::MakeWikidataPrxml(doc_rng, kEntities, kScope);
  const auto t0 = Clock::now();
  tud::Label dead;
  tud::UncertainBinaryTree tree =
      tud::PrXmlToUncertainTree(state->doc, state->labels, &dead);
  const auto t1 = Clock::now();
  if (tracer != nullptr)
    tracer->Sample("prxml.to_tree_us", MicrosBetween(t0, t1));
  state->alphabet = tree.AlphabetSize();
  state->session = std::make_unique<tud::TreeQuerySession>(
      std::move(tree), state->doc.events(),
      std::make_unique<tud::JunctionTreeEngine>());
  return state;
}

double TracedOp(TreeState& state, const ExprSpec& spec,
                const std::vector<tud::TreeAutomaton>& atoms,
                tud::PlanScratch& scratch, Tracer& tracer, double* op_us,
                bool* ok) {
  tud::TreeQuerySession& session = *state.session;
  tracer.BeginOp();
  const auto t0 = Clock::now();
  const tud::AutomatonExpr expr = BuildExpr(spec, atoms);
  const uint32_t states = session.Compiled(expr).num_states();
  const auto t1 = Clock::now();
  const tud::GateId root = session.Lineage(expr);  // Compile is memoised.
  const auto t2 = Clock::now();
  tud::JunctionTreeAnalysis analysis =
      tud::JunctionTreeAnalysis::Analyze(session.tree().circuit(), root);
  const auto t3 = Clock::now();
  if (!analysis.trivial()) analysis.MinDegreeWidth();
  const auto t4 = Clock::now();
  const tud::JunctionTreePlan plan =
      tud::JunctionTreePlan::Build(std::move(analysis));
  const auto t5 = Clock::now();
  *ok = plan.build_status() == tud::EngineStatus::kOk;
  const double value = *ok ? plan.Execute(session.events(), {}, &scratch) : 0;
  const auto t6 = Clock::now();
  tracer.Span("automata.compile_us", MicrosBetween(t0, t1));
  tracer.Span("automata.provenance_us", MicrosBetween(t1, t2));
  tracer.Span("inference.analyze_us", MicrosBetween(t2, t3));
  tracer.Span("inference.order_us", MicrosBetween(t3, t4));
  tracer.Span("inference.lower_us", MicrosBetween(t4, t5));
  tracer.Span("inference.execute_us", MicrosBetween(t5, t6));
  tracer.EndOp();
  *op_us = MicrosBetween(t0, t6);
  tracer.Sample("automata.states", states);
  tracer.Sample("inference.cells", plan.total_cells());
  tracer.Sample("inference.plan_width", plan.width());
  tracer.Sample("inference.plan_bags", static_cast<double>(plan.num_bags()));
  if (plan.total_cells() > 0) {
    tracer.Sample("inference.ns_per_cell",
                  MicrosBetween(t5, t6) * 1000.0 / plan.total_cells());
  }
  return value;
}

struct Answer {
  ExprSpec spec;
  double value;
};

}  // namespace

void RunTreeAutomaton(const Options& options, Report& report) {
  tud::Rng rng(DeriveSeed(options.seed, 1));
  tud::Rng pick(DeriveSeed(options.seed, 2));

  report.Param("document", "MakeWikidataPrxml(entities=" +
                               std::to_string(kEntities) +
                               ", scope=" + std::to_string(kScope) +
                               ", seed=" + std::to_string(kDocSeed) + ")");
  report.Param("expression",
               "[!]([!]a And|Or [!]b), atoms ExistsLabel / EveryBUnderA");
  report.Param("engine", "JunctionTreeEngine, no plan cache");
  report.Param("ops_per_round", static_cast<double>(kOpsPerRound));
  report.Param("checks_per_round", static_cast<double>(kChecksPerRound));

  std::vector<double> setup_s, op_us, traced_op_us;
  double busy_us = 0;  // Time spent in timed untraced operations.
  std::vector<Answer> checked;
  Tracer tracer;
  tud::PlanScratch scratch;
  std::vector<ExprSpec> first_timed;  // Replayed by the traced half.
  size_t replay = 0;
  bool replaying = false;

  RoundClock clock(options, kMinRounds);
  while (clock.Next()) {
    const bool warmup = clock.warmup();
    const bool traced = clock.traced();
    if (traced && !replaying) {
      // The traced half replays the untraced half's expressions, so the
      // two medians differ only by the tracing.
      replaying = true;
      replay = 0;
    }
    const size_t heap_before = HeapBytes();
    const auto t0 = Clock::now();
    std::unique_ptr<TreeState> state = SetUp(traced ? &tracer : nullptr);
    if (!warmup) setup_s.push_back(SecondsSince(t0));

    const size_t n = warmup ? kWarmupOps : kOpsPerRound;
    const size_t check_a = pick.UniformInt(n);
    const size_t check_b = (check_a + 1 + pick.UniformInt(n - 1)) % n;
    std::vector<double> round_us;
    round_us.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ExprSpec spec;
      if (replaying && replay < first_timed.size()) {
        spec = first_timed[replay++];
      } else {
        spec = RandomExpr(rng);
        if (!warmup && !traced) first_timed.push_back(spec);
      }
      std::vector<tud::TreeAutomaton> atoms;
      for (const AtomSpec& atom : spec.atoms)
        atoms.push_back(MakeAtom(atom, state->alphabet, state->labels));

      double value = 0, us = 0;
      bool ok = false;
      if (traced) {
        value = TracedOp(*state, spec, atoms, scratch, tracer, &us, &ok);
      } else {
        const auto a = Clock::now();
        const tud::EngineResult result =
            state->session->Probability(BuildExpr(spec, atoms));
        us = MicrosBetween(a, Clock::now());
        ok = result.ok();
        value = result.value;
      }
      report.Attempt(ok);
      round_us.push_back(us);
      if (ok && (i == check_a || i == check_b))
        checked.push_back({spec, value});
    }
    if (warmup) continue;
    report.SampleHeap(heap_before);
    auto& all_us = traced ? traced_op_us : op_us;
    all_us.insert(all_us.end(), round_us.begin(), round_us.end());
    if (!traced)
      busy_us += Sum(round_us);
  }

  // Correctness gate: the seeded subset against AutomatonProbability
  // with the expression built from TreeAutomaton closure operations.
  {
    std::unique_ptr<TreeState> state = SetUp(nullptr);
    for (size_t i = 0; i < checked.size(); ++i) {
      const Answer& answer = checked[i];
      std::vector<tud::TreeAutomaton> atoms;
      for (const AtomSpec& atom : answer.spec.atoms)
        atoms.push_back(MakeAtom(atom, state->alphabet, state->labels));
      tud::XmlLabelMap labels = state->labels;
      double expected = tud::AutomatonProbability(
          ReferenceAutomaton(answer.spec, atoms), state->doc, labels);
      if (options.corrupt_reference && i == 0) expected += 1e-6;
      if (!(std::fabs(expected - answer.value) <= kTolerance)) {
        char buf[120];
        std::snprintf(buf, sizeof buf,
                      "tree-automaton check %zu: %.17g vs reference %.17g", i,
                      answer.value, expected);
        report.Miss(buf);
      }
    }
  }
  report.Param("answers_checked", static_cast<double>(checked.size()));

  if (!options.trace) {
    report.Metric("ops_per_s",
                  static_cast<double>(op_us.size()) * 1e6 / busy_us);
    report.Metric("p50_us", Quantile(op_us, 0.5));
    report.Metric("p90_us", Quantile(op_us, 0.9));
    report.Metric("setup_s", Median(setup_s));
    return;
  }
  for (const char* name :
       {"prxml.to_tree_us", "automata.compile_us", "automata.states",
        "automata.provenance_us", "inference.analyze_us",
        "inference.order_us", "inference.lower_us", "inference.execute_us",
        "inference.cells", "inference.ns_per_cell", "inference.plan_width",
        "inference.plan_bags"}) {
    report.Metric(name, tracer.Median(name));
  }
  report.Metric("inference.plan_builds", kOpsPerRound);
  report.Metric("inference.plan_hit_ratio", 0);
  ReportTraceSummary(op_us, traced_op_us, tracer, report);
}

}  // namespace perfbench

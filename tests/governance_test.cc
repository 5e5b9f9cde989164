// Resource-governed execution, end to end:
//  - QueryBudget / BudgetMeter trip semantics (cells, deadline, token);
//  - every engine returns a structured EngineStatus instead of aborting
//    when a budget trips or a request is malformed;
//  - AutoEngine *degrades* under a cell cap — junction tree falls to
//    hybrid/sampling with an honest error_bound and stats.degradations
//    — instead of surfacing the trip;
//  - ServingSession per-query deadlines, cancellation, typed load
//    shedding (kRejected), queue-time-aware admission and request
//    validation, over both snapshot sources (static and epoch);
//  - an epoch source answers malformed/governed queries with statuses,
//    never exceptions;
//  - IncrementalSession's governed Probability trips recoverably;
//  - a plan that fails to build is a typed status on every
//    default-budget path too (one budgeted path per mode, no aborting
//    twin), §4 conditioning and question selection included;
//  - the recoverable entry points of satellite 1 (TryRegister /
//    TrySetProbability / bool UpdateProbability);
//  - TaskScheduler contains a throwing task to itself (the worker and
//    every other task survive).

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "incremental/incremental_session.h"
#include "inference/conditioning.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "serving/scheduler.h"
#include "serving/server.h"
#include "serving_sources.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/budget.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using serving::QueryOptions;
using serving::ServingOptions;
using serving::ServingSession;
using serving::TaskScheduler;
using testing::kSources;
using testing::ServedQueries;
using testing::Source;

constexpr uint64_t kGenerousCells = uint64_t{1} << 40;

struct LadderFixture {
  QuerySession session;
  GateId lineage;
};

LadderFixture MakeLadder(uint32_t rungs = 14) {
  Rng rng(11);
  TidInstance tid = workloads::LadderTid(rng, rungs);
  LadderFixture f{QuerySession::FromCInstance(tid.ToPcInstance()),
                  kInvalidGate};
  f.lineage = f.session.ReachabilityLineage(0, 0, 2 * rungs - 2);
  return f;
}

// MakeLadder's query, served from `source`.
ServedQueries ServeLadder(Source source, LadderFixture& f,
                          const ServingOptions& options,
                          uint32_t rungs = 14) {
  return ServedQueries(source, f.session, {{0, 2 * rungs - 2}}, options);
}

// ---------------------------------------------------------------------------
// BudgetMeter
// ---------------------------------------------------------------------------

TEST(BudgetMeterTest, CellCapTrips) {
  QueryBudget budget;
  budget.max_table_cells = 100;
  BudgetMeter meter(budget);
  EXPECT_EQ(meter.Charge(100), EngineStatus::kOk);
  EXPECT_EQ(meter.Charge(1), EngineStatus::kResourceExhausted);
}

TEST(BudgetMeterTest, CancelTokenTrips) {
  CancelToken token;
  QueryBudget budget;
  budget.cancel = &token;
  BudgetMeter meter(budget);
  EXPECT_EQ(meter.Charge(1), EngineStatus::kOk);
  token.Cancel();
  EXPECT_EQ(meter.Charge(1), EngineStatus::kCancelled);
}

TEST(BudgetMeterTest, PastDeadlineTrips) {
  QueryBudget budget = QueryBudget::WithDeadlineMs(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  BudgetMeter meter(budget);
  EXPECT_EQ(meter.CheckNow(), EngineStatus::kDeadlineExceeded);
}

TEST(BudgetMeterTest, DefaultBudgetIsUnlimited) {
  QueryBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.has_deadline());
  EXPECT_FALSE(budget.cancelled());
  EXPECT_FALSE(budget.past_deadline());
}

// ---------------------------------------------------------------------------
// Engine-level governance
// ---------------------------------------------------------------------------

TEST(GovernedEngineTest, JunctionTreeCellCapReturnsStatusNotAbort) {
  LadderFixture f = MakeLadder();
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();
  JunctionTreeEngine engine(/*cache_plans=*/true);

  QueryBudget tiny;
  tiny.max_table_cells = 1;
  EngineResult r = engine.Estimate(circuit, f.lineage, events, {}, tiny);
  EXPECT_EQ(r.status, EngineStatus::kResourceExhausted);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_bound, 1.0);

  // One call with and without a budget: the same pass, the same bits.
  const double expected = engine.Estimate(circuit, f.lineage, events).value;
  QueryBudget generous;
  generous.max_table_cells = kGenerousCells;
  EngineResult g = engine.Estimate(circuit, f.lineage, events, {}, generous);
  EXPECT_EQ(g.status, EngineStatus::kOk);
  EXPECT_EQ(g.value, expected);
  EXPECT_EQ(g.error_bound, 0.0);

  // The cap trip is recoverable: the same engine keeps answering
  // budget-free queries exactly afterwards.
  EXPECT_EQ(engine.Estimate(circuit, f.lineage, events).value, expected);
}

TEST(GovernedEngineTest, PlanOffsetOverflowIsTypedStatus) {
  // Static, gather and bit-position pools are addressed by 32-bit
  // offsets. A plan whose pools would reach the limit is refused at
  // Build with kResourceExhausted, never built with wrapped offsets.
  // The hook lowers the limit so a small plan trips it: with default
  // thresholds through its gather/static cells, with fusion and gather
  // tables off (thresholds 0/0) through its bit positions alone.
  LadderFixture f = MakeLadder();
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();
  const double expected =
      JunctionTreePlan::Build(circuit, f.lineage).Execute(events);

  for (int thresholds : {16, 0}) {
    JunctionTreePlan::SetKernelThresholdsForTest(thresholds, thresholds);
    JunctionTreePlan::SetOffsetLimitForTest(64);
    const JunctionTreePlan refused =
        JunctionTreePlan::Build(circuit, f.lineage);
    const JunctionTreePlan refused_batch =
        JunctionTreePlan::BuildBatch(circuit, {f.lineage, f.lineage});
    JunctionTreePlan::SetOffsetLimitForTest(0);
    const JunctionTreePlan admitted =
        JunctionTreePlan::Build(circuit, f.lineage);
    JunctionTreePlan::SetKernelThresholdsForTest(16, 16);

    EXPECT_EQ(refused.build_status(), EngineStatus::kResourceExhausted);
    EXPECT_FALSE(refused.build_limited_by_budget());  // Intrinsic.
    EXPECT_EQ(refused_batch.build_status(), EngineStatus::kResourceExhausted);
    double value = -1.0;
    EXPECT_EQ(refused.ExecuteGoverned(events, {}, nullptr, QueryBudget{},
                                      &value),
              EngineStatus::kResourceExhausted);
    EXPECT_EQ(value, -1.0);
    std::vector<double> values;
    EXPECT_EQ(refused_batch.ExecuteBatch(events, {}, &values),
              EngineStatus::kResourceExhausted);
    EXPECT_TRUE(values.empty());

    ASSERT_EQ(admitted.build_status(), EngineStatus::kOk);
    EXPECT_EQ(admitted.Execute(events), expected);
  }
}

// Restores the default pool-offset limit when a test ends, however it
// ends.
struct ScopedOffsetLimit {
  explicit ScopedOffsetLimit(size_t limit) {
    JunctionTreePlan::SetOffsetLimitForTest(limit);
  }
  ~ScopedOffsetLimit() { JunctionTreePlan::SetOffsetLimitForTest(0); }
};

// A plan that fails to build (here: pools over a lowered 32-bit offset
// limit) is a typed kResourceExhausted on every path a caller reaches
// without setting a budget, never an abort, and AutoEngine degrades
// past it to sampling.
TEST(GovernedEngineTest, FailedPlanOnDefaultBudgetPathsIsTypedStatus) {
  LadderFixture f = MakeLadder();
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();
  incremental::IncrementalSession inc(f.session);
  const incremental::QueryId q = inc.RegisterReachability(0, 0, 26);
  ASSERT_EQ(inc.root(q), f.lineage);
  const ScopedOffsetLimit limit(64);

  JunctionTreeEngine uncached;
  JunctionTreeEngine cached(/*cache_plans=*/true);
  EXPECT_EQ(uncached.Estimate(circuit, f.lineage, events).status,
            EngineStatus::kResourceExhausted);
  EXPECT_EQ(cached.Estimate(circuit, f.lineage, events).status,
            EngineStatus::kResourceExhausted);

  for (const EngineResult& r :
       uncached.EstimateBatch(circuit, {f.lineage, f.lineage}, events)) {
    EXPECT_EQ(r.status, EngineStatus::kResourceExhausted);
  }

  AutoEngine auto_engine;
  const EngineResult degraded =
      auto_engine.Estimate(circuit, f.lineage, events);
  EXPECT_EQ(degraded.status, EngineStatus::kOk);
  EXPECT_GE(degraded.stats.degradations, 1u);
  EXPECT_STRNE(degraded.engine, "junction_tree");

  // The §4 conditioning entry points and the hybrid body run the same
  // plans, so they report the failed plan too.
  BoolCircuit working = circuit;
  const GateId observation = working.AddVar(0);
  EXPECT_EQ(
      ConditionalProbability(working, f.lineage, observation, events).status,
      EngineStatus::kResourceExhausted);
  QuestionChoice choice{};
  EXPECT_EQ(SelectBestQuestion(circuit, f.lineage, events, {0, 1}, &choice),
            EngineStatus::kResourceExhausted);
  EXPECT_EQ(
      ConditioningEngine().Estimate(circuit, f.lineage, events, {{0, true}})
          .status,
      EngineStatus::kResourceExhausted);
  EXPECT_EQ(HybridEngine().EstimateWithCore(circuit, f.lineage, events, {0})
                .status,
            EngineStatus::kResourceExhausted);

  ServingOptions options;
  options.num_threads = 2;
  ServingSession serving = ServingSession::Over(f.session, options);
  EXPECT_EQ(serving.Submit(f.lineage).get().status,
            EngineStatus::kResourceExhausted);
  serving.Drain();

  incremental::EpochManager epochs;
  inc.PublishSnapshot(epochs);
  ServingSession epoched(epochs, options);
  EXPECT_EQ(epoched.Submit(q).get().status, EngineStatus::kResourceExhausted);
  epoched.Drain();

  EXPECT_EQ(inc.Probability(q).status, EngineStatus::kResourceExhausted);
}

TEST(GovernedEngineTest, PastDeadlinePreemptsExecution) {
  LadderFixture f = MakeLadder();
  JunctionTreeEngine engine;
  QueryBudget budget = QueryBudget::WithDeadlineMs(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EngineResult r = engine.Estimate(f.session.pcc().circuit(), f.lineage,
                                   f.session.pcc().events(), {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kDeadlineExceeded);
}

TEST(GovernedEngineTest, CancelledTokenPreemptsExecution) {
  LadderFixture f = MakeLadder();
  JunctionTreeEngine engine;
  CancelToken token;
  token.Cancel();
  QueryBudget budget;
  budget.cancel = &token;
  EngineResult r = engine.Estimate(f.session.pcc().circuit(), f.lineage,
                                   f.session.pcc().events(), {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kCancelled);
}

TEST(GovernedEngineTest, MalformedRequestsReturnInvalidArgument) {
  LadderFixture f = MakeLadder();
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();
  JunctionTreeEngine engine;

  // Out-of-range root.
  EngineResult bad_root = engine.Estimate(
      circuit, static_cast<GateId>(circuit.NumGates() + 7), events);
  EXPECT_EQ(bad_root.status, EngineStatus::kInvalidArgument);

  // Unknown evidence event.
  Evidence bad_evidence{{static_cast<EventId>(events.size() + 3), true}};
  EngineResult bad_ev =
      engine.Estimate(circuit, f.lineage, events, bad_evidence);
  EXPECT_EQ(bad_ev.status, EngineStatus::kInvalidArgument);

  // A malformed batch fails whole, typed.
  std::vector<GateId> roots{f.lineage,
                            static_cast<GateId>(circuit.NumGates() + 1)};
  std::vector<EngineResult> batch =
      engine.EstimateBatch(circuit, roots, events);
  ASSERT_EQ(batch.size(), roots.size());
  for (const EngineResult& r : batch)
    EXPECT_EQ(r.status, EngineStatus::kInvalidArgument);
}

TEST(GovernedEngineTest, BatchDeadlineShortCircuitsEveryRoot) {
  LadderFixture f = MakeLadder();
  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<GateId> roots(4, f.lineage);
  QueryBudget budget = QueryBudget::WithDeadlineMs(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::vector<EngineResult> batch = engine.EstimateBatch(
      f.session.pcc().circuit(), roots, f.session.pcc().events(), {}, budget);
  ASSERT_EQ(batch.size(), roots.size());
  for (const EngineResult& r : batch)
    EXPECT_EQ(r.status, EngineStatus::kDeadlineExceeded);
}

TEST(GovernedEngineTest, ConditioningOnZeroProbabilityObservation) {
  EventRegistry events;
  EventId a = events.Register("a", 0.5);
  EventId b = events.Register("b", 0.0);
  BoolCircuit circuit;
  GateId root = circuit.AddOr({circuit.AddVar(a), circuit.AddVar(b)});
  ConditioningEngine engine;
  Evidence impossible{{b, true}};

  // Without a budget: the conditional does not exist — an answer, not an
  // abort.
  EngineResult r = engine.Estimate(circuit, root, events, impossible);
  EXPECT_EQ(r.status, EngineStatus::kInvalidArgument);

  // The same call with a budget reports the same.
  QueryBudget generous;
  generous.max_table_cells = kGenerousCells;
  EngineResult g = engine.Estimate(circuit, root, events, impossible,
                                   generous);
  EXPECT_EQ(g.status, EngineStatus::kInvalidArgument);
}

TEST(GovernedEngineTest, SamplingHonoursSampleCap) {
  EventRegistry events;
  GateId root;
  Rng rng(5);
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(rng, 6, 8, events, &root);
  SamplingEngine engine(/*num_samples=*/10000);
  QueryBudget budget;
  budget.max_samples = 128;
  EngineResult r = engine.Estimate(circuit, root, events, {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kOk);
  EXPECT_EQ(r.stats.num_samples, 128u);
  EXPECT_GT(r.error_bound, 0.0);
}

TEST(GovernedEngineTest, ExhaustiveOverThirtyEventsIsRecoverable) {
  EventRegistry events;
  GateId root;
  Rng rng(6);
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(rng, 8, 20, events, &root);
  ASSERT_GT(events.size(), 30u);
  ExhaustiveEngine engine;
  QueryBudget generous;
  generous.max_table_cells = kGenerousCells;
  EngineResult r = engine.Estimate(circuit, root, events, {}, generous);
  EXPECT_EQ(r.status, EngineStatus::kResourceExhausted);
}

TEST(GovernedEngineTest, BddNodeCapIsRecoverable) {
  LadderFixture f = MakeLadder(10);
  BddEngine engine;
  QueryBudget tiny;
  tiny.max_table_cells = 2;  // BDD nodes are charged as cells.
  EngineResult r = engine.Estimate(f.session.pcc().circuit(), f.lineage,
                                   f.session.pcc().events(), {}, tiny);
  EXPECT_EQ(r.status, EngineStatus::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// AutoEngine degradation
// ---------------------------------------------------------------------------

TEST(AutoEngineDegradationTest, CellCapDegradesToHonestEstimate) {
  EventRegistry events;
  GateId root;
  Rng rng(7);
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(rng, 8, 30, events, &root);
  // > 18 cone events: the exhaustive and BDD rungs are skipped, so the
  // junction tree is the first rung that runs.
  ASSERT_GT(events.size(), 18u);

  // Price the exact plan, then cap the budget just below it: the JT rung
  // must trip kResourceExhausted and the ladder must degrade.
  JunctionTreePlan plan =
      JunctionTreePlan::Build(JunctionTreeAnalysis::Analyze(circuit, root));
  ASSERT_EQ(plan.build_status(), EngineStatus::kOk);
  const uint64_t cells = static_cast<uint64_t>(plan.total_cells());
  // The cap must still admit at least a handful of Monte-Carlo samples
  // (one sample charges NumGates cells) for the degraded answer.
  ASSERT_GT(cells, 4 * circuit.NumGates());

  AutoEngine engine;
  QueryBudget budget;
  budget.max_table_cells = cells - 1;
  EngineResult r = engine.Estimate(circuit, root, events, {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kOk);
  EXPECT_GE(r.stats.degradations, 1u);
  EXPECT_STRNE(r.engine, "junction_tree");
  EXPECT_GT(r.error_bound, 0.0);  // An estimate, honestly bounded.
  EXPECT_GE(r.stats.num_samples, 1u);
  // The degraded value is a probability, not garbage.
  EXPECT_GE(r.value, 0.0);
  EXPECT_LE(r.value, 1.0);
}

TEST(AutoEngineDegradationTest, CapBelowOneSampleReturnsResourceExhausted) {
  EventRegistry events;
  GateId root;
  Rng rng(7);
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(rng, 8, 30, events, &root);
  AutoEngine engine;
  QueryBudget budget;
  budget.max_table_cells = 1;  // Below even a single sample's charge.
  EngineResult r = engine.Estimate(circuit, root, events, {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kResourceExhausted);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.stats.degradations, 1u);
}

TEST(AutoEngineDegradationTest, HardTripsSurfaceDirectly) {
  EventRegistry events;
  GateId root;
  Rng rng(7);
  BoolCircuit circuit =
      workloads::MakeCoreTentacleCircuit(rng, 8, 30, events, &root);
  AutoEngine engine;
  CancelToken token;
  token.Cancel();
  QueryBudget budget;
  budget.cancel = &token;
  EngineResult r = engine.Estimate(circuit, root, events, {}, budget);
  EXPECT_EQ(r.status, EngineStatus::kCancelled);
  EXPECT_EQ(r.stats.degradations, 0u);
}

// ---------------------------------------------------------------------------
// Satellite 1: recoverable entry points
// ---------------------------------------------------------------------------

TEST(RecoverableEntryPointsTest, TryRegisterRejectsMalformedInput) {
  EventRegistry events;
  EXPECT_FALSE(events.TryRegister("bad", 1.5).has_value());
  EXPECT_FALSE(events.TryRegister("bad", -0.1).has_value());
  std::optional<EventId> ok = events.TryRegister("fine", 0.25);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(events.probability(*ok), 0.25);
  EXPECT_FALSE(events.TryRegister("fine", 0.5).has_value());  // Duplicate.
  EXPECT_EQ(events.size(), 1u);
}

TEST(RecoverableEntryPointsTest, TrySetProbabilityLeavesRegistryUntouched) {
  EventRegistry events;
  EventId e = events.Register("e", 0.5);
  EXPECT_FALSE(events.TrySetProbability(e + 10, 0.3));  // Unknown id.
  EXPECT_FALSE(events.TrySetProbability(e, 1.5));       // Bad probability.
  EXPECT_EQ(events.probability(e), 0.5);
  EXPECT_TRUE(events.TrySetProbability(e, 0.75));
  EXPECT_EQ(events.probability(e), 0.75);
}

TEST(RecoverableEntryPointsTest, SessionUpdateProbabilityReturnsFalse) {
  LadderFixture f = MakeLadder(8);
  const size_t num_events = f.session.pcc().events().size();
  EXPECT_FALSE(f.session.UpdateProbability(
      static_cast<EventId>(num_events + 5), 0.5));
  EXPECT_FALSE(f.session.UpdateProbability(0, 2.0));
  EXPECT_TRUE(f.session.UpdateProbability(0, 0.5));

  incremental::IncrementalSession inc(f.session);
  EXPECT_FALSE(inc.UpdateProbability(
      static_cast<EventId>(num_events + 5), 0.5));
  EXPECT_EQ(inc.stats().probability_updates, 0u);
  EXPECT_TRUE(inc.UpdateProbability(0, 0.6));
  EXPECT_EQ(inc.stats().probability_updates, 1u);
}

// ---------------------------------------------------------------------------
// IncrementalSession governed Probability
// ---------------------------------------------------------------------------

TEST(IncrementalGovernanceTest, GovernedProbabilityTripsRecoverably) {
  constexpr uint32_t kRungs = 12;
  Rng rng(9);
  TidInstance tid = workloads::LadderTid(rng, kRungs);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId q =
      inc.RegisterReachability(0, 0, 2 * kRungs - 2);

  const double expected = inc.Probability(q).value;

  // The same call with a generous budget: same bits, kOk.
  QueryBudget generous;
  generous.max_table_cells = kGenerousCells;
  EngineResult g = inc.Probability(q, {}, generous);
  EXPECT_EQ(g.status, EngineStatus::kOk);
  EXPECT_EQ(g.value, expected);

  // A cell cap below the plan trips with a status, not an abort...
  inc.UpdateProbability(0, 0.9);
  QueryBudget tiny;
  tiny.max_table_cells = 1;
  EngineResult t = inc.Probability(q, {}, tiny);
  EXPECT_EQ(t.status, EngineStatus::kResourceExhausted);
  EXPECT_EQ(t.error_bound, 1.0);

  // ...and the session recovers: the next budget-free query is
  // bit-identical to a fresh full evaluation of the current state.
  const double fresh = JunctionTreeEngine()
                           .Estimate(session.pcc().circuit(), inc.root(q),
                                     session.pcc().events())
                           .value;
  EXPECT_EQ(inc.Probability(q).value, fresh);
}

// ---------------------------------------------------------------------------
// ServingSession governance
// ---------------------------------------------------------------------------

TEST(ServingGovernanceTest, SubmitWithBudgetMatchesWithout) {
  LadderFixture f = MakeLadder();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served = ServeLadder(source, f, options);
    ServingSession& serving = served.serving();
    const double expected = serving.Evaluate(served.key(0)).value;

    QueryOptions query;
    query.deadline_ms = 60000;  // A deadline this query cannot miss.
    query.max_table_cells = kGenerousCells;
    EngineResult r = serving.Submit(served.key(0), {}, query).get();
    EXPECT_EQ(r.status, EngineStatus::kOk);
    EXPECT_EQ(r.value, expected);
    serving.Drain();
  }
}

TEST(ServingGovernanceTest, CellCapReturnsResourceExhausted) {
  LadderFixture f = MakeLadder();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served = ServeLadder(source, f, options);
    ServingSession& serving = served.serving();
    QueryOptions query;
    query.max_table_cells = 1;
    EXPECT_EQ(serving.Evaluate(served.key(0), {}, query).status,
              EngineStatus::kResourceExhausted);
    EXPECT_EQ(serving.Submit(served.key(0), {}, query).get().status,
              EngineStatus::kResourceExhausted);
    serving.Drain();
  }
}

TEST(ServingGovernanceTest, CancelledBeforeSubmitResolvesCancelled) {
  LadderFixture f = MakeLadder();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served = ServeLadder(source, f, options);
    ServingSession& serving = served.serving();
    QueryOptions query;
    auto token = std::make_shared<CancelToken>();
    token->Cancel();
    query.cancel = token;
    EngineResult r = serving.Submit(served.key(0), {}, query).get();
    EXPECT_EQ(r.status, EngineStatus::kCancelled);
    serving.Drain();
  }
}

// Evidence naming an event the registry does not know is a malformed
// request on both sources: kInvalidArgument from Submit and Evaluate,
// never an answer with the pin silently dropped.
TEST(ServingGovernanceTest, UnknownEvidenceEventIsInvalidArgument) {
  constexpr uint32_t kRungs = 10;
  LadderFixture f = MakeLadder(kRungs);
  const Evidence unknown = {
      {static_cast<EventId>(f.session.pcc().events().size() + 5), true}};
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served = ServeLadder(source, f, options, kRungs);
    ServingSession& serving = served.serving();
    EXPECT_EQ(serving.Submit(served.key(0), unknown).get().status,
              EngineStatus::kInvalidArgument);
    EXPECT_EQ(serving.Evaluate(served.key(0), unknown).status,
              EngineStatus::kInvalidArgument);
    EXPECT_EQ(serving.Submit(served.key(0)).get().status, EngineStatus::kOk);
    serving.Drain();
  }
}

// Prewarm reports a status instead of aborting: kInvalidArgument before
// the first epoch or for a key the source lacks, otherwise the plan's
// build_status() — kResourceExhausted for a plan whose pools exceed a
// lowered offset limit.
TEST(ServingGovernanceTest, PrewarmReturnsStatus) {
  LadderFixture f = MakeLadder();
  ServingOptions options;
  options.num_threads = 1;
  {
    incremental::EpochManager no_epoch_yet;
    ServingSession early(no_epoch_yet, options);
    EXPECT_EQ(early.Prewarm(0), EngineStatus::kInvalidArgument);
  }
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    {
      ServedQueries served = ServeLadder(source, f, options);
      ServingSession& serving = served.serving();
      EXPECT_EQ(serving.Prewarm(served.key(0)), EngineStatus::kOk);
      // The static source is keyed by gate id, the epoch source by the
      // index of its one registered query.
      const serving::QueryKey missing =
          source == Source::kStatic ? f.session.pcc().circuit().NumGates()
                                    : served.key(0) + 1;
      EXPECT_EQ(serving.Prewarm(missing), EngineStatus::kInvalidArgument);
    }
    const ScopedOffsetLimit limit(64);
    ServedQueries served = ServeLadder(source, f, options);
    EXPECT_EQ(served.serving().Prewarm(served.key(0)),
              EngineStatus::kResourceExhausted);
  }
}

// Deterministic shed test: one worker is pinned on a latch, so the
// first query waits in the scheduler's queue without starting; with
// shed_capacity=1 the second submission must be rejected typed and
// immediately.
TEST(ServingGovernanceTest, ShedCapacityRejectsTyped) {
  LadderFixture f = MakeLadder();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 1;
    options.shed_capacity = 1;
    ServedQueries served = ServeLadder(source, f, options);
    ServingSession& serving = served.serving();

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ASSERT_TRUE(serving.scheduler().Submit([released] { released.wait(); }));

    std::future<EngineResult> first = serving.Submit(served.key(0));
    std::future<EngineResult> second = serving.Submit(served.key(0));
    // The shed future is already resolved — before any worker ran it.
    ASSERT_EQ(second.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(second.get().status, EngineStatus::kRejected);

    release.set_value();
    serving.Drain();
    EXPECT_EQ(first.get().status, EngineStatus::kOk);
  }
}

// The pure admission decision: backlog is priced in table cells
// against a calibrated ns-per-kilocell rate, so one queued monster
// plan weighs what it costs — not one fleet-average "query".
TEST(ServingGovernanceTest, ShouldShedPricesBacklogPerPlan) {
  // Cold rate or empty backlog: never shed (admit-on-doubt).
  EXPECT_FALSE(ServingSession::ShouldShed(0, 1000, 4, 1));
  EXPECT_FALSE(ServingSession::ShouldShed(uint64_t{1} << 20, 0, 4, 1));
  // Spent deadline with a warm, nonempty backlog: always shed.
  EXPECT_TRUE(ServingSession::ShouldShed(1, 1, 4, 0));
  EXPECT_TRUE(ServingSession::ShouldShed(1, 1, 4, -5));
  // 1024 cells at 1000 ns/kilocell on one worker ≈ 1000 ns of backlog.
  EXPECT_FALSE(ServingSession::ShouldShed(1024, 1000, 1, 2000));
  EXPECT_TRUE(ServingSession::ShouldShed(1024, 1000, 1, 500));
  // The same backlog spread over 4 workers drains 4x faster.
  EXPECT_FALSE(ServingSession::ShouldShed(1024, 1000, 4, 500));
  // Per-plan sizing: a single 2^30-cell plan in the queue sheds a 1 ms
  // deadline that 64 cells' worth of backlog would sail through.
  EXPECT_TRUE(
      ServingSession::ShouldShed(uint64_t{1} << 30, 1000, 8, 1'000'000));
  EXPECT_FALSE(ServingSession::ShouldShed(64, 1000, 8, 1'000'000));
  // workers = 0 is clamped, not divided by.
  EXPECT_TRUE(ServingSession::ShouldShed(1024, 1000, 0, 500));
}

// Queue-time-aware admission end to end: once the cost model is warm
// and queries are queued behind a pinned worker, a deadline the
// backlog will certainly outlast is rejected at the door in O(1).
TEST(ServingGovernanceTest, QueueAwareAdmissionRejectsInfeasibleDeadline) {
  LadderFixture f = MakeLadder();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 1;
    ServedQueries served = ServeLadder(source, f, options);
    ServingSession& serving = served.serving();

    // Warm the EWMA with one served query.
    EXPECT_EQ(serving.Submit(served.key(0)).get().status, EngineStatus::kOk);

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ASSERT_TRUE(serving.scheduler().Submit([released] { released.wait(); }));
    std::vector<std::future<EngineResult>> queued;
    for (int i = 0; i < 4; ++i) queued.push_back(serving.Submit(served.key(0)));

    QueryOptions query;
    query.deadline_ms = 1e-4;  // 100ns: far below one EWMA service time.
    std::future<EngineResult> doomed = serving.Submit(served.key(0), {}, query);
    ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(doomed.get().status, EngineStatus::kRejected);

    release.set_value();
    serving.Drain();
    for (auto& future : queued)
      EXPECT_EQ(future.get().status, EngineStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Epoch-source governance
// ---------------------------------------------------------------------------

TEST(EpochSourceGovernanceTest, StatusesInsteadOfExceptions) {
  constexpr uint32_t kRungs = 10;
  Rng rng(13);
  TidInstance tid = workloads::LadderTid(rng, kRungs);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId q =
      inc.RegisterReachability(0, 0, 2 * kRungs - 2);

  incremental::EpochManager epochs;
  ServingOptions options;
  options.num_threads = 2;
  {
    // No epoch yet: an answer, not a crash.
    ServingSession early(epochs, options);
    EXPECT_EQ(early.Evaluate(q).status, EngineStatus::kInvalidArgument);
    early.Drain();
  }
  const double expected = inc.Probability(q).value;
  inc.PublishSnapshot(epochs);

  ServingSession serving(epochs, options);
  EXPECT_EQ(serving.Evaluate(q).value, expected);
  // An index the epoch does not carry.
  EXPECT_EQ(serving.Evaluate(q + 100).status,
            EngineStatus::kInvalidArgument);
  EXPECT_EQ(serving.Submit(q + 100).get().status,
            EngineStatus::kInvalidArgument);

  // With a budget: a generous one matches the budget-free answer, a
  // tiny cap trips, cancellation preempts.
  QueryOptions generous;
  generous.deadline_ms = 60000;
  generous.max_table_cells = kGenerousCells;
  EngineResult g = serving.Submit(q, {}, generous).get();
  EXPECT_EQ(g.status, EngineStatus::kOk);
  EXPECT_EQ(g.value, expected);

  QueryOptions tiny;
  tiny.max_table_cells = 1;
  EXPECT_EQ(serving.Evaluate(q, {}, tiny).status,
            EngineStatus::kResourceExhausted);

  QueryOptions cancelled;
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  cancelled.cancel = token;
  EXPECT_EQ(serving.Submit(q, {}, cancelled).get().status,
            EngineStatus::kCancelled);
  serving.Drain();
}

// ---------------------------------------------------------------------------
// Satellite 2: scheduler exception containment
// ---------------------------------------------------------------------------

TEST(SchedulerContainmentTest, ThrowingTaskFailsOnlyItself) {
  TaskScheduler::Options options;
  options.num_threads = 2;
  TaskScheduler scheduler(options);
  std::atomic<uint64_t> ran{0};
  ASSERT_TRUE(scheduler.Submit([] { throw std::runtime_error("boom"); }));
  constexpr uint64_t kTasks = 200;
  for (uint64_t i = 0; i < kTasks; ++i)
    ASSERT_TRUE(scheduler.Submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  scheduler.Drain();
  // Every other task ran; the throw was contained and counted; the
  // workers survived (a dead worker would strand queued tasks forever).
  EXPECT_EQ(ran.load(), kTasks);
  TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_EQ(stats.submitted, kTasks + 1);

  // The scheduler is still fully usable after the contained failure.
  ASSERT_TRUE(scheduler.Submit(
      [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  scheduler.Drain();
  EXPECT_EQ(ran.load(), kTasks + 1);
}

}  // namespace
}  // namespace tud

// Fault-injected stress tests for the serving runtime (satellite of the
// resource-governance PR): with TUD_FAULT_INJECTION compiled in, the
// hooks in PlanScratch::Acquire / JunctionTreePlan::Execute* /
// BudgetMeter::Charge inject allocation failures, per-bag delays and
// forced cancellation points. The contracts under fire:
//  - an injected std::bad_alloc fails exactly the query that hit it
//    (its future rethrows); the worker survives, every other future
//    resolves to the exact sequential bits, and the session keeps
//    serving correctly once the faults stop;
//  - forced cancellation trips only governed queries (ungoverned
//    execution never touches a BudgetMeter) and surfaces as a typed
//    kCancelled result, never an exception;
//  - an EpochManager writer publishing snapshots under reader-side
//    delays and faults never hangs a reader, and every successful
//    answer still matches some published epoch exactly;
//  - ServingSession / TaskScheduler shutdown with in-flight and queued
//    work under per-bag delays resolves every future (no hang, no
//    leak — ASan and TSan run this file in CI).
// The ServingSession cases run over both snapshot sources (static and
// epoch).
//
// Every test skips when the hooks are compiled out (default build).

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "serving_sources.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using serving::QueryOptions;
using serving::ServingOptions;
using serving::ServingSession;
using testing::kSources;
using testing::Reach;
using testing::ServedQueries;
using testing::Source;

constexpr uint64_t kGenerousCells = uint64_t{1} << 40;

struct LadderFixture {
  QuerySession session;
  std::vector<Reach> reaches;  // (source, target) per lineage.
  std::vector<GateId> lineages;
  std::vector<double> expected;
};

LadderFixture MakeLadder(uint32_t rungs, uint32_t num_lineages) {
  Rng rng(11);
  TidInstance tid = workloads::LadderTid(rng, rungs);
  LadderFixture f{QuerySession::FromCInstance(tid.ToPcInstance()), {}, {}, {}};
  for (uint32_t i = 0; i < num_lineages; ++i) {
    uint32_t source = i % 3;
    uint32_t target = 2 * rungs - 2 - (i % 5);
    if (source == target) target = 2 * rungs - 2;
    f.reaches.push_back({source, target});
    f.lineages.push_back(f.session.ReachabilityLineage(0, source, target));
  }
  // Ground truth before any fault is armed.
  for (GateId lineage : f.lineages) {
    f.expected.push_back(JunctionTreeEngine()
                             .Estimate(f.session.pcc().circuit(), lineage,
                                       f.session.pcc().events())
                             .value);
  }
  return f;
}

// Injected allocation failures fail exactly the queries that hit them —
// the future rethrows bad_alloc, the worker survives (failed_tasks
// counts it), every untouched future is bit-identical, and the session
// serves perfectly again once the scope ends.
TEST(FaultInjectionTest, AllocFailuresFailOnlyTheirQueries) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  LadderFixture f = MakeLadder(/*rungs=*/12, /*num_lineages=*/6);
  const size_t n = f.lineages.size();
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served(source, f.session, f.reaches, options);
    ServingSession& serving = served.serving();
    // Warm every plan first: the faults under test are execution-time
    // arena faults, not cold-build faults.
    for (size_t i = 0; i < n; ++i) serving.Prewarm(served.key(i));

    constexpr size_t kQueries = 240;
    size_t failed = 0, ok = 0;
    {
      fault::Config config;
      config.alloc_failure_probability = 0.2;
      config.seed = 7;
      fault::ScopedFaultInjection scope(config);

      std::vector<std::future<EngineResult>> futures;
      futures.reserve(kQueries);
      for (size_t q = 0; q < kQueries; ++q)
        futures.push_back(serving.Submit(served.key(q % n)));
      serving.Drain();

      for (size_t q = 0; q < kQueries; ++q) {
        try {
          EngineResult r = futures[q].get();
          ASSERT_EQ(r.status, EngineStatus::kOk);
          // A query the fault missed is untouched: exact bits.
          EXPECT_EQ(r.value, f.expected[q % n]) << "query " << q;
          ++ok;
        } catch (const std::bad_alloc&) {
          ++failed;
        }
      }
      EXPECT_EQ(fault::AllocationFailures(), failed);
    }
    // At p=0.2 over 240 queries both outcomes occur (deterministic seed).
    EXPECT_GT(failed, 0u);
    EXPECT_GT(ok, 0u);
    EXPECT_EQ(serving.failed_tasks(), failed);

    // The workers survived their queries' failures: the session serves
    // every lineage exactly once the faults are gone.
    std::vector<std::future<EngineResult>> after;
    for (size_t i = 0; i < n; ++i)
      after.push_back(serving.Submit(served.key(i)));
    serving.Drain();
    for (size_t i = 0; i < after.size(); ++i) {
      EngineResult r = after[i].get();
      EXPECT_EQ(r.status, EngineStatus::kOk);
      EXPECT_EQ(r.value, f.expected[i]);
    }
    EXPECT_EQ(serving.failed_tasks(), failed);  // No new failures.
  }
}

// Forced cancellation points trip only governed execution: a governed
// query's BudgetMeter polls the hook at bag granularity and returns a
// typed kCancelled; an unlimited budget's meter returns before the hook,
// so ungoverned queries stay bit-exact even at cancel_probability = 1.
TEST(FaultInjectionTest, ForcedCancelTripsOnlyGovernedQueries) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  LadderFixture f = MakeLadder(12, 4);
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 2;
    ServedQueries served(source, f.session, f.reaches, options);
    ServingSession& serving = served.serving();
    for (size_t i = 0; i < f.lineages.size(); ++i)
      serving.Prewarm(served.key(i));

    fault::Config config;
    config.cancel_probability = 1.0;
    config.seed = 3;
    fault::ScopedFaultInjection scope(config);

    QueryOptions governed;
    governed.max_table_cells = kGenerousCells;  // Governed, generous cap.
    for (size_t i = 0; i < f.lineages.size(); ++i) {
      EngineResult g =
          serving.Submit(served.key(i), /*evidence=*/{}, governed).get();
      EXPECT_EQ(g.status, EngineStatus::kCancelled) << "lineage " << i;
      EXPECT_EQ(g.error_bound, 1.0);

      EngineResult u = serving.Submit(served.key(i)).get();
      EXPECT_EQ(u.status, EngineStatus::kOk);
      EXPECT_EQ(u.value, f.expected[i]);
    }
  }
}

// Epoch churn under fire: a writer keeps publishing snapshots while
// readers run with per-bag delays (widening the retirement race window)
// and a small forced-cancel probability on governed reads. No reader
// hangs, every future resolves, and every kOk answer matches some
// published epoch bit-exactly. CI runs this under ASan and TSan — a
// leaked snapshot or a data race in retirement fails the job.
TEST(FaultInjectionTest, EpochChurnUnderDelayAndForcedCancel) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  constexpr uint32_t kRungs = 10;
  constexpr uint64_t kEpochs = 12;
  Rng rng(91);
  TidInstance tid = workloads::LadderTid(rng, kRungs);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId q0 =
      inc.RegisterReachability(0, 0, 2 * kRungs - 2);
  (void)q0;

  incremental::EpochManager epochs;
  std::vector<double> expected(kEpochs + 1, 0.0);
  std::atomic<uint64_t> frontier{0};
  auto publish = [&](uint64_t k) {
    expected[k] = inc.Probability(0).value;
    frontier.store(k, std::memory_order_release);
    ASSERT_EQ(inc.PublishSnapshot(epochs), k);
  };
  publish(1);

  ServingOptions options;
  options.num_threads = 2;
  ServingSession serving(epochs, options);

  fault::Config config;
  config.per_bag_delay_us = 20;
  config.cancel_probability = 0.02;
  config.seed = 5;
  fault::ScopedFaultInjection scope(config);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t)
    readers.emplace_back([&, t] {
      QueryOptions governed;
      governed.max_table_cells = kGenerousCells;
      while (!done.load(std::memory_order_acquire)) {
        // Governed on one thread (forced cancels fire), ungoverned on
        // the others (delays only).
        EngineResult r = t == 0 ? serving.Submit(0, {}, governed).get()
                                : serving.Submit(0).get();
        if (r.status == EngineStatus::kCancelled) continue;
        ASSERT_EQ(r.status, EngineStatus::kOk);
        const uint64_t fr = frontier.load(std::memory_order_acquire);
        bool matched = false;
        for (uint64_t k = 1; k <= fr && !matched; ++k)
          matched = r.value == expected[k];
        EXPECT_TRUE(matched)
            << "value " << r.value << " matches no epoch <= " << fr;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (uint64_t k = 2; k <= kEpochs; ++k) {
    const size_t num_events = session.pcc().events().size();
    inc.UpdateProbability(static_cast<EventId>(k % num_events),
                          0.05 + 0.9 * static_cast<double>(k) / kEpochs);
    publish(k);
  }
  done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  serving.Drain();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(inc.stats().epochs_published, kEpochs);
}

// Shutdown with in-flight *and* queued work while every bag pays an
// injected delay: the session destructor must drain — every future
// becomes ready with either a value or an exception, and the join never
// hangs (the test completing is the assertion; ASan owns leak checking).
TEST(FaultInjectionTest, ShutdownWithInFlightAndQueuedWork) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  LadderFixture f = MakeLadder(10, 4);
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    fault::Config config;
    config.per_bag_delay_us = 100;  // Guarantees a deep queue at shutdown.
    config.alloc_failure_probability = 0.05;
    config.seed = 13;
    fault::ScopedFaultInjection scope(config);

    std::vector<std::future<EngineResult>> futures;
    {
      ServingOptions options;
      options.num_threads = 2;
      ServedQueries served(source, f.session, f.reaches, options);
      for (size_t q = 0; q < 60; ++q)
        futures.push_back(
            served.serving().Submit(served.key(q % f.lineages.size())));
      // No Drain(): the destructor meets queued + in-flight work head on.
    }
    size_t ok = 0;
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      try {
        EngineResult r = future.get();
        EXPECT_EQ(r.status, EngineStatus::kOk);
        ++ok;
      } catch (const std::bad_alloc&) {
        // Injected per-query failure: contained, see above.
      } catch (const std::runtime_error&) {
        // Shutdown rejection: typed, not a hang.
      }
    }
    EXPECT_GT(ok, 0u);  // The destructor drained real work, not nothing.
  }
}

// Same shutdown contract one layer down: a raw TaskScheduler destroyed
// with tasks still queued behind a slow task must run-or-reject every
// one of them (Submit returning false after shutdown is the only other
// allowed outcome) and join cleanly.
TEST(FaultInjectionTest, SchedulerShutdownRunsOrRejectsEverything) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  std::atomic<uint64_t> ran{0};
  uint64_t accepted = 0;
  {
    serving::TaskScheduler::Options options;
    options.num_threads = 2;
    serving::TaskScheduler scheduler(options);
    for (int i = 0; i < 200; ++i) {
      if (scheduler.Submit([&ran] {
            fault::MaybeDelayBag();
            ran.fetch_add(1, std::memory_order_relaxed);
          })) {
        ++accepted;
      }
    }
  }
  // The destructor drained: every accepted task ran exactly once.
  EXPECT_EQ(ran.load(), accepted);
  EXPECT_EQ(accepted, 200u);
}

}  // namespace
}  // namespace tud

// The serving layer's contracts, exercised under real concurrency (run
// these under TSan — the CI thread-sanitizer job does):
//  - TaskScheduler runs every task exactly once, tasks submitted from
//    inside tasks included, and a worker never blocks on backpressure;
//  - ConcurrentPlanCache builds each root exactly once under a
//    thundering herd;
//  - a shared JunctionTreeEngine and a ServingSession return results
//    *bit-identical* to sequential evaluation from 8 threads, over both
//    snapshot sources (static and epoch), with and without evidence;
//  - a burst queued behind a pinned worker runs one task per query and
//    still resolves every future to the sequential bits;
//  - an IncrementalSession writer publishing epochs races 7 reader
//    threads without a reader ever observing a torn or stale-mixed
//    snapshot (every answer matches some published epoch exactly).

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "serving/scheduler.h"
#include "serving/server.h"
#include "serving_sources.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using serving::ServingOptions;
using serving::ServingSession;
using serving::TaskScheduler;
using testing::kSources;
using testing::Reach;
using testing::ServedQueries;
using testing::Source;

// One prepared instance + a set of distinct reachability lineages, plus
// the sequential ground truth for each (computed with a fresh engine,
// exactly what a single-threaded QuerySession::Probability would do).
struct Prepared {
  QuerySession session;
  std::vector<Reach> reaches;             // (source, target) per lineage.
  std::vector<GateId> lineages;
  std::vector<Evidence> evidences;        // Parallel to `queries`.
  std::vector<uint32_t> queries;          // Lineage index per query.
  std::vector<double> expected;           // Ground truth per query.
};

Prepared PrepareLadder(uint32_t rungs, uint32_t num_lineages,
                       size_t num_queries) {
  Rng rng(11);
  TidInstance tid = workloads::LadderTid(rng, rungs);
  Prepared p{QuerySession::FromCInstance(tid.ToPcInstance()), {}, {}, {}, {},
             {}};

  // Distinct (source, target) pairs along the ladder's rails.
  for (uint32_t i = 0; i < num_lineages; ++i) {
    uint32_t source = i % 3;
    uint32_t target = 2 * rungs - 2 - (i % 5);
    if (source == target) target = 2 * rungs - 2;
    p.reaches.push_back({source, target});
    p.lineages.push_back(p.session.ReachabilityLineage(0, source, target));
  }

  // A skewed query mix over those lineages; every third query pins one
  // event as evidence.
  const EventRegistry& events = p.session.pcc().events();
  std::vector<uint32_t> mix =
      workloads::ZipfianQueryMix(num_lineages, num_queries, 0.99, 77);
  JunctionTreeEngine sequential(/*cache_plans=*/true);
  for (size_t q = 0; q < mix.size(); ++q) {
    Evidence evidence;
    if (q % 3 == 1 && events.size() > 0)
      evidence.push_back({static_cast<EventId>(q % events.size()), q % 2 == 0});
    p.queries.push_back(mix[q]);
    p.evidences.push_back(evidence);
    p.expected.push_back(sequential
                             .Estimate(p.session.pcc().circuit(),
                                       p.lineages[mix[q]],
                                       p.session.pcc().events(), evidence)
                             .value);
  }
  return p;
}

// Distinct lineage roots a prepared query mix actually touches (what a
// build-exactly-once cache must end up with).
size_t DistinctRoots(const Prepared& p) {
  std::vector<bool> seen(p.lineages.size(), false);
  for (uint32_t q : p.queries) seen[q] = true;
  size_t count = 0;
  for (bool s : seen) count += s ? 1 : 0;
  return count;
}

TEST(TaskSchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskScheduler::Options options;
  options.num_threads = 4;
  TaskScheduler scheduler(options);
  std::atomic<uint64_t> sum{0};
  constexpr uint64_t kTasks = 2000;
  for (uint64_t i = 0; i < kTasks; ++i)
    ASSERT_TRUE(scheduler.Submit([&sum, i] {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    }));
  scheduler.Drain();
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
  TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kTasks);
  EXPECT_EQ(stats.executed, kTasks);
}

// Nested Submit from inside tasks with a one-slot queue: every worker
// fans out far past the capacity, so this hangs if a worker ever waits
// on backpressure (the workers are the queue's only consumers).
TEST(TaskSchedulerTest, NestedSubmitFromWorkersNeverBlocks) {
  TaskScheduler::Options options;
  options.num_threads = 4;
  options.queue_capacity = 1;
  TaskScheduler scheduler(options);
  std::atomic<uint64_t> leaves{0};
  constexpr uint64_t kRoots = 16, kChildren = 64;
  for (uint64_t i = 0; i < kRoots; ++i) {
    ASSERT_TRUE(scheduler.Submit([&] {
      // A worker thread must see its scratch arena.
      EXPECT_NE(TaskScheduler::CurrentScratch(), nullptr);
      for (uint64_t c = 0; c < kChildren; ++c)
        EXPECT_TRUE(scheduler.Submit(
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); }));
    }));
  }
  scheduler.Drain();
  EXPECT_EQ(leaves.load(), kRoots * kChildren);
  EXPECT_EQ(scheduler.stats().executed, kRoots + kRoots * kChildren);
  // Off-worker there is no scratch arena.
  EXPECT_EQ(TaskScheduler::CurrentScratch(), nullptr);
}

TEST(TaskSchedulerTest, BackpressureBoundHolds) {
  TaskScheduler::Options options;
  options.num_threads = 2;
  options.queue_capacity = 8;  // Tiny queue: Submit must block, not drop.
  TaskScheduler scheduler(options);
  std::atomic<uint64_t> ran{0};
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(scheduler.Submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 500u);
}

TEST(ConcurrentPlanCacheTest, ThunderingHerdBuildsOnce) {
  Rng rng(3);
  TidInstance tid = workloads::LadderTid(rng, 12);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  GateId lineage = session.ReachabilityLineage(0, 0, 22);

  ConcurrentPlanCache cache;
  const BoolCircuit& circuit = session.pcc().circuit();
  constexpr unsigned kThreads = 8;
  std::vector<const JunctionTreePlan*> got(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        // Every thread races GetOrBuild on the same cold root.
        got[t] = cache.GetOrBuild(circuit, lineage);
      });
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(cache.builds(), 1u);  // The pin: one Build across the herd.
  EXPECT_EQ(cache.size(), 1u);
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);

  // Distinct roots build independently, still exactly once each.
  std::vector<GateId> roots;
  for (uint32_t i = 1; i <= 4; ++i)
    roots.push_back(session.ReachabilityLineage(0, i % 2, 22 - i));
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 16; ++t)
      threads.emplace_back([&, t] {
        const JunctionTreePlan* plan =
            cache.GetOrBuild(circuit, roots[t % roots.size()]);
        EXPECT_NE(plan, nullptr);
      });
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(cache.builds(), 1u + roots.size());
}

TEST(ServingConcurrencyTest, SharedEngineBitIdenticalFromEightThreads) {
  Prepared p = PrepareLadder(/*rungs=*/14, /*num_lineages=*/10,
                             /*num_queries=*/400);
  JunctionTreeEngine engine(/*cache_plans=*/true);
  const BoolCircuit& circuit = p.session.pcc().circuit();
  const EventRegistry& events = p.session.pcc().events();

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Interleaved slices: every thread touches hot and cold roots.
      for (size_t q = t; q < p.queries.size(); q += kThreads) {
        EngineResult r = engine.Estimate(circuit, p.lineages[p.queries[q]],
                                         events, p.evidences[q]);
        EXPECT_EQ(r.value, p.expected[q]) << "query " << q;
      }
    });
  for (auto& thread : threads) thread.join();
  ASSERT_NE(engine.plan_cache(), nullptr);
  EXPECT_EQ(engine.plan_cache()->builds(), DistinctRoots(p));
}

TEST(ServingConcurrencyTest, ConcurrentEstimateBatchMatchesSequential) {
  Prepared p = PrepareLadder(14, 8, 0);
  JunctionTreeEngine engine(/*cache_plans=*/true);
  const BoolCircuit& circuit = p.session.pcc().circuit();
  const EventRegistry& events = p.session.pcc().events();
  std::vector<EngineResult> sequential =
      engine.EstimateBatch(circuit, p.lineages, events);

  constexpr unsigned kThreads = 6;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        std::vector<EngineResult> results =
            engine.EstimateBatch(circuit, p.lineages, events);
        ASSERT_EQ(results.size(), sequential.size());
        for (size_t i = 0; i < results.size(); ++i)
          EXPECT_EQ(results[i].value, sequential[i].value);
      }
    });
  for (auto& thread : threads) thread.join();
}

// The end-to-end check: a ServingSession fed a zipfian mix from 8
// submitter threads returns, for every single query, the exact bits
// sequential evaluation produces — from either snapshot source.
TEST(ServingConcurrencyTest, ServingSessionBitIdenticalUnderLoad) {
  Prepared p = PrepareLadder(14, 10, 480);
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 4;
    ServedQueries served(source, p.session, p.reaches, options);
    ServingSession& serving = served.serving();

    std::vector<std::future<EngineResult>> futures(p.queries.size());
    constexpr unsigned kSubmitters = 8;
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < kSubmitters; ++t)
      submitters.emplace_back([&, t] {
        for (size_t q = t; q < p.queries.size(); q += kSubmitters)
          futures[q] = serving.Submit(served.key(p.queries[q]), p.evidences[q]);
      });
    for (auto& thread : submitters) thread.join();
    serving.Drain();

    for (size_t q = 0; q < futures.size(); ++q) {
      EngineResult r = futures[q].get();
      EXPECT_EQ(r.value, p.expected[q]) << "query " << q;
      EXPECT_STREQ(r.engine, "junction_tree");
    }
    EXPECT_EQ(serving.failed_tasks(), 0u);
    // Build-once held end to end (an epoch source's snapshot comes
    // prewarmed, with one cache per epoch).
    if (source == Source::kStatic) {
      EXPECT_EQ(serving.plan_cache().builds(), DistinctRoots(p));
    }
    // Query 0's evidence is empty (the mix pins evidence on q % 3 == 1),
    // so the synchronous path must reproduce its exact bits too.
    EXPECT_EQ(serving.Evaluate(served.key(p.queries[0])).value,
              p.expected[0]);
  }
}

TEST(ServingConcurrencyTest, PrewarmMakesServingBuildFree) {
  Prepared p = PrepareLadder(12, 6, 60);
  ServingOptions options;
  options.num_threads = 2;
  ServingSession serving(p.session.pcc().circuit(), p.session.pcc().events(),
                         options);
  for (GateId lineage : p.lineages) serving.Prewarm(lineage);
  EXPECT_EQ(serving.plan_cache().builds(), p.lineages.size());

  std::vector<std::future<EngineResult>> futures;
  for (size_t q = 0; q < p.queries.size(); ++q)
    futures.push_back(serving.Submit(p.lineages[p.queries[q]],
                                     p.evidences[q]));
  serving.Drain();
  for (size_t q = 0; q < futures.size(); ++q)
    EXPECT_EQ(futures[q].get().value, p.expected[q]);
  // Serving traffic hit only warm plans.
  EXPECT_EQ(serving.plan_cache().builds(), p.lineages.size());
}

// ServingSession::Submit honours queue_capacity: the scheduler's queue
// is the bound, so with a tiny bound and a flood of external
// submissions Submit blocks (never drops), the queue stays bounded, and
// every future still resolves to the sequential bits.
TEST(ServingConcurrencyTest, SubmitBackpressureBlocksNotDrops) {
  Prepared p = PrepareLadder(12, 6, 240);
  ServingOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4;  // Far below the submission count.
  ServingSession serving(p.session.pcc().circuit(), p.session.pcc().events(),
                         options);

  std::vector<std::future<EngineResult>> futures(p.queries.size());
  constexpr unsigned kSubmitters = 4;
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (size_t q = t; q < p.queries.size(); q += kSubmitters)
        futures[q] = serving.Submit(p.lineages[p.queries[q]], p.evidences[q]);
    });
  for (auto& thread : submitters) thread.join();
  serving.Drain();
  for (size_t q = 0; q < futures.size(); ++q)
    EXPECT_EQ(futures[q].get().value, p.expected[q]) << "query " << q;
}

// A burst behind a pinned worker: the single worker is pinned on a
// latch, so every submission waits in the scheduler's queue; on release
// each query runs as its own task, and every future still resolves to
// the sequential bits.
TEST(ServingConcurrencyTest, BurstBehindPinnedWorkerRunsOneTaskPerQuery) {
  Prepared p = PrepareLadder(12, 6, 133);
  for (Source source : kSources) {
    SCOPED_TRACE(testing::SourceName(source));
    ServingOptions options;
    options.num_threads = 1;
    ServedQueries served(source, p.session, p.reaches, options);
    ServingSession& serving = served.serving();

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ASSERT_TRUE(serving.scheduler().Submit([released] { released.wait(); }));
    const uint64_t executed_before = serving.scheduler().stats().executed;

    std::vector<std::future<EngineResult>> futures;
    for (size_t q = 0; q < p.queries.size(); ++q)
      futures.push_back(
          serving.Submit(served.key(p.queries[q]), p.evidences[q]));
    release.set_value();
    serving.Drain();

    for (size_t q = 0; q < futures.size(); ++q)
      EXPECT_EQ(futures[q].get().value, p.expected[q]) << "query " << q;
    // The latch and one task per query: nothing dropped or served twice.
    EXPECT_EQ(serving.scheduler().stats().executed - executed_before,
              1u + p.queries.size());
  }
}

// The epoch stress: one writer thread keeps updating probabilities and
// publishing epochs through an EpochManager while 7 reader threads
// serve queries off whatever epoch is current. Every reader answer must
// be bit-identical to the full evaluation the writer recorded for the
// epoch it read — a torn snapshot (plan from one epoch, registry from
// another) would miss every recorded value. Run under TSan in CI.
TEST(ServingConcurrencyTest, EpochPublicationStressEightThreads) {
  constexpr uint32_t kRungs = 12;
  constexpr uint64_t kEpochs = 30;
  Rng gen(91);
  TidInstance tid = workloads::LadderTid(gen, kRungs);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId q0 =
      inc.RegisterReachability(0, 0, 2 * kRungs - 2);
  const incremental::QueryId q1 = inc.RegisterReachability(0, 1, 2 * kRungs - 3);

  // expected[k][i]: the writer's own (single-threaded, bit-exact)
  // answer for query i at epoch k, written before epoch k is published;
  // the release-store inside Publish makes it visible to any reader
  // that acquires epoch k.
  incremental::EpochManager epochs;
  std::vector<std::array<double, 2>> expected(kEpochs + 1, {0.0, 0.0});
  std::atomic<uint64_t> last_published{0};
  auto publish = [&](uint64_t k) {
    expected[k][0] = inc.Probability(q0).value;
    expected[k][1] = inc.Probability(q1).value;
    // The frontier must advance BEFORE the snapshot becomes grabbable:
    // a reader that serves epoch k and then loads the frontier must see
    // a value >= k, or a perfectly correct answer looks unmatched.
    last_published.store(k, std::memory_order_release);
    ASSERT_EQ(inc.PublishSnapshot(epochs), k);
  };
  publish(1);  // Readers never see an empty manager.

  serving::ServingOptions options;
  options.num_threads = 2;
  ServingSession serving(epochs, options);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  // 4 direct-manager readers: pin the exact epoch they grabbed.
  for (unsigned t = 0; t < 4; ++t)
    readers.emplace_back([&, t] {
      const size_t query = t % 2;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const incremental::SessionSnapshot> snap =
            epochs.Current();
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->epoch, snap->epoch_check);  // Torn-publish canary.
        const GateId root = snap->query_roots[query];
        // PublishSnapshot prewarms every registered root.
        const JunctionTreePlan* plan = snap->plans->Lookup(root);
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(plan->Execute(*snap->registry), expected[snap->epoch][query])
            << "epoch " << snap->epoch;
      }
    });
  // 3 serving-session readers: the snapshot is grabbed inside the
  // worker, so the answer must match *some* already-published epoch.
  for (unsigned t = 0; t < 3; ++t)
    readers.emplace_back([&, t] {
      const size_t query = t % 2;
      while (!done.load(std::memory_order_acquire)) {
        const double value = t == 0
                                 ? serving.Evaluate(query).value
                                 : serving.Submit(query).get().value;
        const uint64_t frontier =
            last_published.load(std::memory_order_acquire);
        bool matched = false;
        for (uint64_t k = 1; k <= frontier && !matched; ++k)
          matched = value == expected[k][query];
        EXPECT_TRUE(matched) << "value " << value << " matches no epoch <= "
                             << frontier;
      }
    });

  // The writer: epoch k moves a few probabilities deterministically,
  // records the bit-exact answers, and publishes.
  for (uint64_t k = 2; k <= kEpochs; ++k) {
    const size_t num_events = session.pcc().events().size();
    inc.UpdateProbability(static_cast<EventId>(k % num_events),
                          0.05 + 0.9 * static_cast<double>(k) / kEpochs);
    inc.UpdateProbability(static_cast<EventId>((3 * k) % num_events),
                          0.95 - 0.9 * static_cast<double>(k) / kEpochs);
    publish(k);
  }
  done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  serving.Drain();

  // After the last publish, everyone agrees on the final epoch.
  std::shared_ptr<const incremental::SessionSnapshot> final_snap =
      epochs.Current();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->epoch, kEpochs);
  EXPECT_EQ(serving.Evaluate(0).value, expected[kEpochs][0]);
  EXPECT_EQ(serving.Evaluate(1).value, expected[kEpochs][1]);
  EXPECT_EQ(inc.stats().epochs_published, kEpochs);
  EXPECT_EQ(serving.failed_tasks(), 0u);
}

}  // namespace
}  // namespace tud

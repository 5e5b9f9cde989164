// The incremental maintenance subsystem's contracts:
//  - DirtyLog generations: collect-since semantics, compaction, and the
//    fell-behind-compaction miss;
//  - JunctionTreePlan::ExecuteDelta is bit-identical to a full Execute
//    under any sequence of probability updates, falls back to a full
//    pass exactly when cold / evidence changed / the dirty frontier
//    exceeds the threshold, and skips work when nothing moved;
//  - IncrementalSession: randomized update-vs-full-rebuild equivalence
//    for probability-only streams (bit-identical to a fresh session)
//    and probability+structural mixes (bit-identical to a full pass on
//    the live state, rounding-equal to a fresh session, whose
//    decomposition may legitimately differ);
//  - structural updates take the repair path, never a full
//    decomposition rebuild, unless the width bound forces it (pinned
//    through the stats counters);
//  - ConcurrentPlanCache::Invalidate/Clear republish without the
//    dropped plans while previously returned pointers stay executable
//    (retire-not-free);
//  - EpochManager publication: stamped epochs, snapshot immutability,
//    and retire-after-last-reader via the shared_ptr refcount.

#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/circuit_patch.h"
#include "gtest/gtest.h"
#include "incremental/dirty_log.h"
#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using incremental::DirtyLog;
using incremental::EpochManager;
using incremental::IncrementalOptions;
using incremental::IncrementalSession;
using incremental::InsertedFact;
using incremental::QueryId;
using incremental::SessionSnapshot;

// ---------------------------------------------------------------------------
// DirtyLog
// ---------------------------------------------------------------------------

TEST(DirtyLogTest, CollectSinceAndCompaction) {
  DirtyLog log;
  EXPECT_EQ(log.generation(), 0u);

  log.Mark(3);
  log.Mark(7);
  const DirtyLog::Generation mid = log.generation();
  EXPECT_EQ(mid, 2u);
  log.Mark(3);  // Duplicates are preserved.

  std::vector<EventId> out;
  ASSERT_TRUE(log.CollectSince(0, &out));
  EXPECT_EQ(out, (std::vector<EventId>{3, 7, 3}));

  out.clear();
  ASSERT_TRUE(log.CollectSince(mid, &out));
  EXPECT_EQ(out, (std::vector<EventId>{3}));

  // Collecting at the current generation sees nothing.
  out.clear();
  ASSERT_TRUE(log.CollectSince(log.generation(), &out));
  EXPECT_TRUE(out.empty());

  // Compaction drops the consumed prefix but keeps generations stable.
  log.CompactBelow(mid);
  EXPECT_EQ(log.retained(), 1u);
  EXPECT_EQ(log.generation(), 3u);
  out.clear();
  ASSERT_TRUE(log.CollectSince(mid, &out));
  EXPECT_EQ(out, (std::vector<EventId>{3}));

  // A cursor below the compacted base is a miss: the caller must take
  // a full pass.
  EXPECT_FALSE(log.CollectSince(0, &out));

  // Compacting past the end clamps.
  log.CompactBelow(100);
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.generation(), 3u);
}

// ---------------------------------------------------------------------------
// ExecuteDelta
// ---------------------------------------------------------------------------

struct LadderFixture {
  QuerySession session;
  GateId root;

  static LadderFixture Make(uint32_t rungs, uint64_t seed) {
    Rng rng(seed);
    TidInstance tid = workloads::LadderTid(rng, rungs);
    LadderFixture f{QuerySession::FromCInstance(tid.ToPcInstance()),
                    kInvalidGate};
    f.root = f.session.ReachabilityLineage(0, 0, 2 * rungs - 2);
    return f;
  }
};

/// The root marginal from one ExecuteDelta call (expected to succeed).
double Delta(const JunctionTreePlan& plan, const EventRegistry& events,
             const Evidence& evidence, const std::vector<EventId>& dirty,
             PlanDeltaState& state, EngineStats* stats = nullptr,
             double full_fraction = 0.5) {
  double value = -1.0;
  EXPECT_EQ(plan.ExecuteDelta(events, evidence, dirty, state, &value, stats,
                              full_fraction),
            EngineStatus::kOk);
  return value;
}

TEST(ExecuteDeltaTest, BitIdenticalToFullExecuteUnderUpdates) {
  LadderFixture f = LadderFixture::Make(12, 17);
  EventRegistry& events = f.session.pcc().events();
  const JunctionTreePlan plan =
      JunctionTreePlan::Build(f.session.pcc().circuit(), f.root);

  Rng rng(29);
  PlanDeltaState state;
  std::vector<EventId> dirty;
  for (int round = 0; round < 40; ++round) {
    dirty.clear();
    const int updates = 1 + static_cast<int>(rng.UniformDouble() * 3);
    for (int u = 0; u < updates; ++u) {
      const EventId e = static_cast<EventId>(rng.UniformDouble() *
                                             static_cast<double>(
                                                 events.size()));
      events.set_probability(e, rng.UniformDouble());
      dirty.push_back(e);
    }
    // full_fraction = 1 pins the delta path: on a path-shaped ladder
    // tree a deep dirty bag's root walk can legitimately cross the
    // default 50% threshold, and this test is about the delta
    // machinery, not the fallback policy.
    const double incremental_value =
        Delta(plan, events, {}, dirty, state, nullptr,
              /*full_fraction=*/1.0);
    const double full_value = plan.Execute(events);
    EXPECT_EQ(incremental_value, full_value) << "round " << round;
  }
  // The stream above must actually have exercised the delta path.
  EXPECT_EQ(state.full_passes, 1u);
  EXPECT_EQ(state.delta_passes, 39u);
  EXPECT_GT(state.bags_recomputed, 0u);
}

TEST(ExecuteDeltaTest, BitIdenticalUnderEvidence) {
  LadderFixture f = LadderFixture::Make(10, 19);
  EventRegistry& events = f.session.pcc().events();
  const JunctionTreePlan plan =
      JunctionTreePlan::Build(f.session.pcc().circuit(), f.root);
  const Evidence evidence = {{0, true}, {3, false}};

  PlanDeltaState state;
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    const EventId e = static_cast<EventId>(
        rng.UniformDouble() * static_cast<double>(events.size()));
    events.set_probability(e, rng.UniformDouble());
    EXPECT_EQ(Delta(plan, events, evidence, {e}, state, nullptr,
                    /*full_fraction=*/1.0),
              plan.Execute(events, evidence));
  }
  EXPECT_EQ(state.full_passes, 1u);

  // An update under a pinned event changes nothing: no bag recomputed.
  const uint64_t bags_before = state.bags_recomputed;
  events.set_probability(0, 0.123);
  EXPECT_EQ(Delta(plan, events, evidence, {0}, state, nullptr,
                  /*full_fraction=*/1.0),
            plan.Execute(events, evidence));
  EXPECT_EQ(state.bags_recomputed, bags_before);

  // An evidence change forces a full pass.
  const Evidence other = {{0, false}};
  EXPECT_EQ(Delta(plan, events, other, {}, state, nullptr,
                  /*full_fraction=*/1.0),
            plan.Execute(events, other));
  EXPECT_EQ(state.full_passes, 2u);
}

TEST(ExecuteDeltaTest, ThresholdFallbackAndNoopSkip) {
  LadderFixture f = LadderFixture::Make(10, 23);
  EventRegistry& events = f.session.pcc().events();
  const JunctionTreePlan plan =
      JunctionTreePlan::Build(f.session.pcc().circuit(), f.root);

  PlanDeltaState state;
  Delta(plan, events, {}, {}, state);  // Warm: one full pass.
  EXPECT_EQ(state.full_passes, 1u);

  // A real change with full_fraction = 0 always exceeds the threshold.
  events.set_probability(2, 0.9);
  EngineStats stats;
  EXPECT_EQ(Delta(plan, events, {}, {2}, state, &stats,
                  /*full_fraction=*/0.0),
            plan.Execute(events));
  EXPECT_EQ(state.full_passes, 2u);

  // The same change with full_fraction = 1 takes the delta path and
  // recomputes strictly fewer bags than the tree holds.
  events.set_probability(2, 0.1);
  EXPECT_EQ(Delta(plan, events, {}, {2}, state, &stats,
                  /*full_fraction=*/1.0),
            plan.Execute(events));
  EXPECT_EQ(state.delta_passes, 1u);
  EXPECT_GT(stats.bags_visited, 0u);
  EXPECT_LT(stats.bags_visited, plan.num_bags());

  // Marking an event dirty without changing its value is a no-op pass.
  const double unchanged = events.probability(4);
  events.set_probability(4, unchanged);
  EXPECT_EQ(Delta(plan, events, {}, {4}, state, &stats),
            plan.Execute(events));
  EXPECT_EQ(stats.bags_visited, 0u);
  EXPECT_EQ(state.full_passes, 2u);
}

// ---------------------------------------------------------------------------
// IncrementalSession: randomized update-vs-rebuild equivalence
// ---------------------------------------------------------------------------

TEST(IncrementalEquivalenceTest, ProbabilityOnlyStreamMatchesFreshSession) {
  const uint32_t rungs = 16;
  Rng gen(41);
  TidInstance tid = workloads::LadderTid(gen, rungs);
  const CInstance pc = tid.ToPcInstance();

  QuerySession session = QuerySession::FromCInstance(pc);
  IncrementalSession inc(session);
  const QueryId q = inc.RegisterReachability(0, 0, 2 * rungs - 2);

  Rng rng(43);
  for (int round = 0; round < 15; ++round) {
    const int updates = 1 + static_cast<int>(rng.UniformDouble() * 4);
    for (int u = 0; u < updates; ++u) {
      const EventId e = static_cast<EventId>(
          rng.UniformDouble() *
          static_cast<double>(session.pcc().events().size()));
      inc.UpdateProbability(e, rng.UniformDouble());
    }
    const EngineResult result = inc.Probability(q);

    // A fresh session replays the identical construction over the
    // updated probabilities: same circuit, same root, same plan — the
    // incremental answer must be bit-identical, not just close.
    QuerySession fresh = QuerySession::FromCInstance(pc);
    for (EventId e = 0; e < fresh.pcc().events().size(); ++e) {
      fresh.pcc().events().set_probability(
          e, session.pcc().events().probability(e));
    }
    const GateId fresh_root = fresh.ReachabilityLineage(0, 0, 2 * rungs - 2);
    ASSERT_EQ(fresh_root, inc.root(q));
    EXPECT_EQ(result.value,
              JunctionTreeEngine()
                  .Estimate(fresh.pcc().circuit(), fresh_root,
                            fresh.pcc().events())
                  .value)
        << "round " << round;

    // The session-level batch surface agrees bit-identically too.
    const std::vector<EngineResult> live =
        session.ProbabilityBatch({inc.root(q)});
    const std::vector<EngineResult> rebuilt =
        fresh.ProbabilityBatch({fresh_root});
    ASSERT_EQ(live.size(), rebuilt.size());
    EXPECT_EQ(live[0].value, rebuilt[0].value);
  }
  // The stream must have been served incrementally, not by full passes.
  EXPECT_EQ(inc.stats().full_executes, 1u);
  EXPECT_GE(inc.stats().delta_executes, 14u);
  EXPECT_GT(inc.stats().probability_updates, 0u);
}

TEST(IncrementalEquivalenceTest, StructuralMixMatchesRebuild) {
  const uint32_t rungs = 10;
  Rng gen(47);
  TidInstance tid = workloads::LadderTid(gen, rungs);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalSession inc(session);
  const QueryId q = inc.RegisterReachability(0, 0, 2 * rungs - 2);

  Rng rng(53);
  std::vector<InsertedFact> inserted;
  uint32_t next_vertex = 2 * rungs;  // First value beyond the ladder.
  for (int round = 0; round < 12; ++round) {
    const double pick = rng.UniformDouble();
    if (pick < 0.4) {
      const EventId e = static_cast<EventId>(
          rng.UniformDouble() *
          static_cast<double>(session.pcc().events().size()));
      inc.UpdateProbability(e, rng.UniformDouble());
    } else if (pick < 0.7 || inserted.empty()) {
      // Mix covered inserts (between existing rail vertices) with
      // cone-growing ones (fresh vertex hanging off the ladder).
      std::vector<Value> args;
      if (rng.UniformDouble() < 0.5) {
        const uint32_t base =
            static_cast<uint32_t>(rng.UniformDouble() * (2 * rungs - 2));
        args = {base, base + 2 < 2 * rungs ? base + 2 : base + 1};
      } else {
        const uint32_t anchor =
            static_cast<uint32_t>(rng.UniformDouble() * (2 * rungs - 1));
        args = {anchor, next_vertex++};
      }
      inserted.push_back(
          inc.InsertFact(0, args, 0.2 + 0.6 * rng.UniformDouble()));
    } else {
      const size_t pos = static_cast<size_t>(rng.UniformDouble() *
                                             static_cast<double>(
                                                 inserted.size()));
      inc.DeleteFact(inserted[pos].fact);
      inserted.erase(inserted.begin() + pos);
    }

    const EngineResult result = inc.Probability(q);

    // Machinery pin: the incremental answer is bit-identical to a full
    // message pass on the live state (same circuit, root, registry).
    const JunctionTreePlan full_plan =
        JunctionTreePlan::Build(session.pcc().circuit(), inc.root(q));
    EXPECT_EQ(result.value, full_plan.Execute(session.pcc().events()))
        << "round " << round;

    // Rebuild cross-check: a fresh session over a copy of the live
    // instance derives its own decomposition (legitimately different
    // from the repaired one), so agreement is to rounding.
    QuerySession fresh(session.pcc());
    const GateId fresh_root = fresh.ReachabilityLineage(0, 0, 2 * rungs - 2);
    EXPECT_NEAR(result.value,
                JunctionTreeEngine()
                    .Estimate(fresh.pcc().circuit(), fresh_root,
                              fresh.pcc().events())
                    .value,
                1e-9)
        << "round " << round;
  }
  EXPECT_GT(inc.stats().inserts, 0u);
  EXPECT_GT(inc.stats().decomposition_repairs, 0u);
  EXPECT_GT(inc.stats().patched_gates, 0u);
}

// ---------------------------------------------------------------------------
// IncrementalSession: structural-path pins
// ---------------------------------------------------------------------------

TEST(IncrementalSessionTest, SingleInsertTakesRepairPathNotRebuild) {
  Rng gen(59);
  TidInstance tid = workloads::LadderTid(gen, 12);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalSession inc(session);
  inc.RegisterReachability(0, 0, 22);

  // Covered insert: duplicate an existing edge's endpoints, whose
  // Gaifman clique some bag already covers.
  const std::vector<Value> existing_args =
      session.pcc().instance().fact(0).args;
  inc.InsertFact(0, existing_args, 0.5);
  EXPECT_EQ(inc.stats().decomposition_repairs, 1u);
  EXPECT_EQ(inc.stats().decomposition_rebuilds, 0u);

  // Cone-growing insert (fresh vertex): still the repair path — the
  // patched elimination order keeps the ladder narrow.
  inc.InsertFact(0, {0, 2 * 12}, 0.5);
  EXPECT_EQ(inc.stats().decomposition_repairs, 2u);
  EXPECT_EQ(inc.stats().decomposition_rebuilds, 0u);
  EXPECT_EQ(inc.stats().inserts, 2u);
}

TEST(IncrementalSessionTest, NegativeWidthSlackForcesRebuild) {
  Rng gen(61);
  TidInstance tid = workloads::LadderTid(gen, 8);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalOptions options;
  options.repair_width_slack = -1;  // No repaired width can qualify.
  IncrementalSession inc(session, options);
  inc.RegisterReachability(0, 0, 14);

  // A new-vertex insert cannot use the covered path, and the slack
  // rejects the order-patch: the full order search must rerun.
  inc.InsertFact(0, {0, 16}, 0.5);
  EXPECT_EQ(inc.stats().decomposition_rebuilds, 1u);
  EXPECT_EQ(inc.stats().decomposition_repairs, 0u);
}

TEST(IncrementalSessionTest, DeleteIsTombstonedProbabilityZero) {
  Rng gen(67);
  TidInstance tid = workloads::LadderTid(gen, 8);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalSession inc(session);
  const QueryId q = inc.RegisterReachability(0, 0, 14);
  const double before = inc.Probability(q).value;

  InsertedFact ins = inc.InsertFact(0, {0, 2}, 0.7);
  inc.DeleteFact(ins.fact);
  EXPECT_EQ(session.pcc().events().probability(ins.event), 0.0);
  EXPECT_TRUE(inc.patch().IsTombstoned(ins.event));
  EXPECT_EQ(inc.stats().deletes, 1u);

  // Deleting the inserted fact restores the original answer exactly:
  // probability 0 is bit-for-bit the pinned-false table (1.0 / 0.0).
  const double after = inc.Probability(q).value;
  const JunctionTreePlan plan =
      JunctionTreePlan::Build(session.pcc().circuit(), inc.root(q));
  EXPECT_EQ(after,
            plan.Execute(session.pcc().events(), {{ins.event, false}}));
  EXPECT_NEAR(after, before, 1e-12);
}

TEST(IncrementalSessionTest, UntouchedQueryKeepsPlanAcrossInsert) {
  Rng gen(71);
  TidInstance tid = workloads::LadderTid(gen, 12);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalSession inc(session);
  const QueryId q = inc.RegisterReachability(0, 0, 22);
  inc.Probability(q);
  const GateId root_before = inc.root(q);
  const size_t builds_before = inc.plan_cache().builds();

  // A fact in a far-away fresh component cannot change this query's
  // lineage: hash-consing returns the same root, the compiled plan and
  // delta state survive, and the next query is still a delta pass.
  inc.InsertFact(0, {100, 101}, 0.5);
  EXPECT_EQ(inc.root(q), root_before);
  EXPECT_EQ(inc.stats().lineage_recomputes, 0u);
  EXPECT_EQ(inc.stats().plans_invalidated, 0u);
  inc.Probability(q);
  EXPECT_EQ(inc.plan_cache().builds(), builds_before);
  EXPECT_EQ(inc.stats().full_executes, 1u);
  EXPECT_EQ(inc.stats().delta_executes, 1u);
}

// ---------------------------------------------------------------------------
// ConcurrentPlanCache invalidation
// ---------------------------------------------------------------------------

TEST(ConcurrentPlanCacheTest, InvalidateRepublishesWithoutTheRoot) {
  LadderFixture f = LadderFixture::Make(10, 73);
  const GateId r1 = f.root;
  const GateId r2 = f.session.ReachabilityLineage(0, 1, 17);
  ASSERT_NE(r1, r2);
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();

  ConcurrentPlanCache cache;
  const JunctionTreePlan* p1 = cache.GetOrBuild(circuit, r1);
  const JunctionTreePlan* p2 = cache.GetOrBuild(circuit, r2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.builds(), 2u);
  const double v1 = p1->Execute(events);

  cache.Invalidate(r1);
  EXPECT_EQ(cache.Lookup(r1), nullptr);
  EXPECT_EQ(cache.Lookup(r2), p2);
  EXPECT_EQ(cache.size(), 1u);
  // Retire-not-free: the invalidated plan pointer still executes.
  EXPECT_EQ(p1->Execute(events), v1);

  // Invalidating an absent root is a no-op (no republication).
  cache.Invalidate(r1);
  EXPECT_EQ(cache.size(), 1u);

  // The next request rebuilds.
  const JunctionTreePlan* rebuilt = cache.GetOrBuild(circuit, r1);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(rebuilt->Execute(events), v1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ConcurrentPlanCacheTest, ClearDropsEverythingRetireNotFree) {
  LadderFixture f = LadderFixture::Make(8, 79);
  const GateId r1 = f.root;
  const GateId r2 = f.session.ReachabilityLineage(0, 1, 13);
  const BoolCircuit& circuit = f.session.pcc().circuit();
  const EventRegistry& events = f.session.pcc().events();

  ConcurrentPlanCache cache;
  const JunctionTreePlan* p1 = cache.GetOrBuild(circuit, r1);
  const JunctionTreePlan* p2 = cache.GetOrBuild(circuit, r2);
  const double v1 = p1->Execute(events);
  const double v2 = p2->Execute(events);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(r1), nullptr);
  EXPECT_EQ(cache.Lookup(r2), nullptr);
  EXPECT_EQ(p1->Execute(events), v1);
  EXPECT_EQ(p2->Execute(events), v2);
  cache.Clear();  // Idempotent on empty shards.
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

TEST(EpochManagerTest, PublishStampsAndRetiresAfterLastReader) {
  EpochManager epochs;
  EXPECT_EQ(epochs.Current(), nullptr);
  EXPECT_EQ(epochs.current_epoch(), 0u);

  SessionSnapshot first;
  EXPECT_EQ(epochs.Publish(std::move(first)), 1u);
  std::shared_ptr<const SessionSnapshot> held = epochs.Current();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(held->epoch_check, 1u);

  std::weak_ptr<const SessionSnapshot> watch = held;
  SessionSnapshot second;
  EXPECT_EQ(epochs.Publish(std::move(second)), 2u);
  EXPECT_EQ(epochs.Current()->epoch, 2u);

  // The superseded epoch survives while an in-flight reader holds it...
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(held->epoch, 1u);
  // ...and is reclaimed when the last reader drains.
  held.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(EpochManagerTest, PublishedSnapshotServesQueries) {
  Rng gen(83);
  TidInstance tid = workloads::LadderTid(gen, 10);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  IncrementalSession inc(session);
  const QueryId q = inc.RegisterReachability(0, 0, 18);
  const double live = inc.Probability(q).value;

  EpochManager epochs;
  EXPECT_EQ(inc.PublishSnapshot(epochs), 1u);
  std::shared_ptr<const SessionSnapshot> snap = epochs.Current();
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->query_roots.size(), 1u);

  // The snapshot is prewarmed: the root's plan is already cached.
  const JunctionTreePlan* plan = snap->plans->Lookup(snap->query_roots[0]);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->Execute(*snap->registry), live);

  // Updates after publication do not leak into the snapshot.
  inc.UpdateProbability(0, 0.999);
  EXPECT_EQ(plan->Execute(*snap->registry), live);
  EXPECT_NE(inc.Probability(q).value, live);

  // The next epoch sees them.
  EXPECT_EQ(inc.PublishSnapshot(epochs), 2u);
  std::shared_ptr<const SessionSnapshot> snap2 = epochs.Current();
  const JunctionTreePlan* plan2 = snap2->plans->Lookup(snap2->query_roots[0]);
  ASSERT_NE(plan2, nullptr);
  EXPECT_EQ(plan2->Execute(*snap2->registry), inc.Probability(q).value);
  EXPECT_EQ(inc.stats().epochs_published, 2u);
}

// ---------------------------------------------------------------------------
// CircuitPatch
// ---------------------------------------------------------------------------

TEST(CircuitPatchTest, BatchesAndTombstones) {
  EventRegistry events;
  BoolCircuit circuit;
  const EventId a = events.Register("a", 0.5);
  const EventId b = events.Register("b", 0.5);
  CircuitPatch patch;

  patch.BeginBatch(circuit);
  const GateId ga = circuit.AddVar(a);
  const GateId gb = circuit.AddVar(b);
  circuit.AddAnd(ga, gb);
  EXPECT_EQ(patch.SealBatch(circuit), 3u);

  patch.BeginBatch(circuit);
  circuit.AddAnd(ga, gb);  // Hash-consed: nothing appended.
  EXPECT_EQ(patch.SealBatch(circuit), 0u);
  EXPECT_EQ(patch.appended_gates(), 3u);
  EXPECT_EQ(patch.num_batches(), 2u);

  patch.Tombstone(a);
  patch.Tombstone(a);  // Idempotent.
  EXPECT_TRUE(patch.IsTombstoned(a));
  EXPECT_FALSE(patch.IsTombstoned(b));
  EXPECT_EQ(patch.num_tombstones(), 1u);

  const Evidence merged = patch.MergedEvidence({{b, true}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (std::pair<EventId, bool>{a, false}));
  EXPECT_EQ(merged[1], (std::pair<EventId, bool>{b, true}));
}

}  // namespace
}  // namespace tud

// Equivalence suite for the vectorized batched junction-tree execution
// path: ExecuteBatch (one calibrating pass over a shared decomposition
// of the union cone) must agree with sequential single-root Execute on
// randomized circuits, with and without evidence; the gather-table
// kernels must be bit-identical to the wide-bag IndexSteps fallback, in
// full and delta passes; and the session-level
// ProbabilityBatch surface must agree with per-query Probability for
// every engine mode (shared pass, uncached plans, default loop).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/automaton_expr.h"
#include "automata/automaton_library.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "prxml/to_uncertain_tree.h"
#include "queries/query_session.h"
#include "queries/reachability.h"
#include "treedec/elimination.h"
#include "treedec/graph.h"
#include "treedec/tree_decomposition.h"
#include "uncertain/c_instance.h"
#include "uncertain/pcc_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

BoolCircuit RandomCircuit(Rng& rng, uint32_t num_events, uint32_t num_gates,
                          std::vector<GateId>* pool_out) {
  BoolCircuit c;
  std::vector<GateId> pool;
  for (EventId e = 0; e < num_events; ++e) pool.push_back(c.AddVar(e));
  for (uint32_t i = 0; i < num_gates; ++i) {
    GateId a = pool[rng.UniformInt(pool.size())];
    GateId b = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0:
        pool.push_back(c.AddNot(a));
        break;
      case 1:
        pool.push_back(c.AddAnd(a, b));
        break;
      default:
        pool.push_back(c.AddOr(a, b));
        break;
    }
  }
  *pool_out = std::move(pool);
  return c;
}

EventRegistry RandomRegistry(Rng& rng, uint32_t num_events) {
  EventRegistry registry;
  for (uint32_t i = 0; i < num_events; ++i) {
    registry.Register("e" + std::to_string(i),
                      0.05 + 0.9 * rng.UniformDouble());
  }
  return registry;
}

std::vector<GateId> RandomRoots(Rng& rng, const std::vector<GateId>& pool,
                                size_t count) {
  std::vector<GateId> roots;
  roots.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    roots.push_back(pool[rng.UniformInt(pool.size())]);
  }
  return roots;
}

/// Every root's marginal from one ExecuteBatch pass (expected to succeed).
std::vector<double> BatchValues(const JunctionTreePlan& plan,
                                const EventRegistry& registry,
                                const Evidence& evidence = {},
                                EngineStats* stats = nullptr) {
  std::vector<double> values;
  EXPECT_EQ(plan.ExecuteBatch(registry, evidence, &values, stats),
            EngineStatus::kOk);
  return values;
}

/// The root marginal from one ExecuteDelta call (expected to succeed).
double DeltaValue(const JunctionTreePlan& plan, const EventRegistry& registry,
                  const std::vector<EventId>& dirty, PlanDeltaState& state,
                  double full_fraction = 0.5) {
  double value = -1.0;
  EXPECT_EQ(plan.ExecuteDelta(registry, {}, dirty, state, &value, nullptr,
                              full_fraction),
            EngineStatus::kOk);
  return value;
}

class JunctionBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(JunctionBatchTest, ExecuteBatchMatchesSequentialExecute) {
  Rng rng(GetParam());
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 9, 40, &pool);
  EventRegistry registry = RandomRegistry(rng, 9);
  std::vector<GateId> roots = RandomRoots(rng, pool, 8);

  JunctionTreePlan batch = JunctionTreePlan::BuildBatch(c, roots);
  EngineStats stats;
  std::vector<double> batched = BatchValues(batch, registry, {}, &stats);
  ASSERT_EQ(batched.size(), roots.size());
  EXPECT_EQ(stats.batch_size, roots.size());
  EXPECT_GT(stats.bags_visited, 0u);

  for (size_t i = 0; i < roots.size(); ++i) {
    JunctionTreePlan single = JunctionTreePlan::Build(c, roots[i]);
    EXPECT_NEAR(batched[i], single.Execute(registry), 1e-9)
        << "root " << i << " (gate " << roots[i] << ")";
  }
}

TEST_P(JunctionBatchTest, ExecuteBatchMatchesSequentialWithEvidence) {
  Rng rng(GetParam() + 500);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 35, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  std::vector<GateId> roots = RandomRoots(rng, pool, 6);
  const Evidence evidence = {{0, true}, {3, false}};

  JunctionTreePlan batch = JunctionTreePlan::BuildBatch(c, roots);
  std::vector<double> batched = BatchValues(batch, registry, evidence);
  for (size_t i = 0; i < roots.size(); ++i) {
    JunctionTreePlan single = JunctionTreePlan::Build(c, roots[i]);
    EXPECT_NEAR(batched[i], single.Execute(registry, evidence), 1e-9)
        << "root " << i;
  }
}

TEST_P(JunctionBatchTest, GatherTablesMatchBitLoops) {
  Rng rng(GetParam() + 1000);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 35, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  const GateId root = pool.back();
  const Evidence evidence = {{1, false}};

  JunctionTreePlan fast = JunctionTreePlan::Build(c, root);
  JunctionTreePlan bitloops = JunctionTreePlan::Build(c, root);
  bitloops.ForceBitLoopsForTest();

  // Both kernels multiply the same factors in the same order, so the
  // answers are bit-identical, not merely close.
  EXPECT_EQ(bitloops.Execute(registry), fast.Execute(registry));
  EXPECT_EQ(bitloops.Execute(registry, evidence),
            fast.Execute(registry, evidence));
}

TEST_P(JunctionBatchTest, BitLoopDeltaMatchesFullExecute) {
  // ExecuteDelta recomputes dirty bags with the same kernels as a full
  // pass. Under ForceBitLoopsForTest (no gather tables) and with static
  // fusion off (thresholds 0/0), those kernels are the IndexSteps
  // sweeps over raw bit positions; either way delta must equal a full
  // Execute of the same plan exactly.
  Rng rng(GetParam() + 1200);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 35, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  const GateId root = pool.back();

  JunctionTreePlan bitloops = JunctionTreePlan::Build(c, root);
  bitloops.ForceBitLoopsForTest();
  JunctionTreePlan::SetKernelThresholdsForTest(0, 0);
  JunctionTreePlan unfused = JunctionTreePlan::Build(c, root);
  JunctionTreePlan::SetKernelThresholdsForTest(16, 16);

  for (const JunctionTreePlan* plan : {&bitloops, &unfused}) {
    PlanDeltaState state;
    EXPECT_EQ(DeltaValue(*plan, registry, {}, state),
              plan->Execute(registry));
    for (int round = 0; round < 6; ++round) {
      const EventId e = static_cast<EventId>(rng.UniformInt(8));
      registry.set_probability(e, 0.05 + 0.9 * rng.UniformDouble());
      // full_fraction 1: never fall back to a full pass.
      EXPECT_EQ(DeltaValue(*plan, registry, {e}, state, 1.0),
                plan->Execute(registry))
          << "round " << round;
    }
    EXPECT_EQ(state.full_passes, 1u);
    EXPECT_EQ(state.delta_passes, 6u);
  }
}

TEST_P(JunctionBatchTest, UnfusedStaticsMatchFusedTables) {
  // Thresholds at zero disable static-table fusion and gather
  // precomputation entirely, driving every bag down the unfused /
  // raw-bit-position path the widest bags use.
  Rng rng(GetParam() + 1500);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 35, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  const GateId root = pool.back();
  std::vector<GateId> roots = RandomRoots(rng, pool, 5);

  JunctionTreePlan fused = JunctionTreePlan::Build(c, root);
  JunctionTreePlan fused_batch = JunctionTreePlan::BuildBatch(c, roots);
  JunctionTreePlan::SetKernelThresholdsForTest(0, 0);
  JunctionTreePlan unfused = JunctionTreePlan::Build(c, root);
  JunctionTreePlan unfused_batch = JunctionTreePlan::BuildBatch(c, roots);
  JunctionTreePlan::SetKernelThresholdsForTest(16, 16);

  EXPECT_NEAR(unfused.Execute(registry), fused.Execute(registry), 1e-12);
  std::vector<double> a = BatchValues(fused_batch, registry);
  std::vector<double> b = BatchValues(unfused_batch, registry);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST_P(JunctionBatchTest, EngineBatchModesAgreeWithExhaustive) {
  Rng rng(GetParam() + 2000);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 7, 30, &pool);
  EventRegistry registry = RandomRegistry(rng, 7);
  std::vector<GateId> roots = RandomRoots(rng, pool, 5);
  const Evidence evidence = {{2, true}};

  JunctionTreeEngine shared(/*cache_plans=*/true);
  JunctionTreeEngine uncached;
  ExhaustiveEngine exhaustive;

  std::vector<EngineResult> s = shared.EstimateBatch(c, roots, registry,
                                                     evidence);
  std::vector<EngineResult> u = uncached.EstimateBatch(c, roots, registry,
                                                       evidence);
  // The default (loop) implementation through the base-class pointer.
  std::vector<EngineResult> d = static_cast<ProbabilityEngine&>(exhaustive)
                                    .EstimateBatch(c, roots, registry,
                                                   evidence);
  ASSERT_EQ(s.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_NEAR(s[i].value, d[i].value, 1e-9) << "shared vs exhaustive";
    EXPECT_NEAR(u[i].value, d[i].value, 1e-9) << "uncached vs exhaustive";
    EXPECT_EQ(s[i].stats.batch_size, roots.size());
    EXPECT_EQ(d[i].stats.batch_size, roots.size());
    EXPECT_GT(s[i].stats.bags_visited, 0u);
    EXPECT_GT(s[i].stats.max_table, 0u);
  }
  // Reissuing the identical batch hits the memoised batch plan.
  std::vector<EngineResult> again = shared.EstimateBatch(c, roots, registry,
                                                         evidence);
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].value, s[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunctionBatchTest, ::testing::Range(0, 8));

TEST(JunctionBatchTest, ConstantAndDuplicateRoots) {
  EventRegistry registry;
  registry.Register("a", 0.25);
  registry.Register("b", 0.5);
  BoolCircuit c;
  GateId va = c.AddVar(0);
  GateId vb = c.AddVar(1);
  GateId both = c.AddAnd(va, vb);
  GateId yes = c.AddConst(true);
  GateId no = c.AddConst(false);

  JunctionTreePlan plan =
      JunctionTreePlan::BuildBatch(c, {yes, both, no, both, va});
  std::vector<double> p = BatchValues(plan, registry);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_NEAR(p[1], 0.125, 1e-12);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
  EXPECT_NEAR(p[3], 0.125, 1e-12);
  EXPECT_NEAR(p[4], 0.25, 1e-12);
}

TEST(JunctionBatchTest, AllConstantBatchIsTrivial) {
  EventRegistry registry;
  BoolCircuit c;
  GateId yes = c.AddConst(true);
  GateId no = c.AddConst(false);
  JunctionTreePlan plan = JunctionTreePlan::BuildBatch(c, {no, yes});
  std::vector<double> p = BatchValues(plan, registry);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

// The memo key is the canonical battery, not the caller's vector: a
// permuted or duplicated battery is the same battery, and must hit the
// cached decision instead of building (and caching) a second plan.
TEST(JunctionBatchTest, PermutedAndDuplicatedBatteryHitsCache) {
  Rng rng(31);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 30, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  std::vector<GateId> roots = RandomRoots(rng, pool, 6);
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());

  JunctionTreeEngine engine(/*cache_plans=*/true);
  std::vector<EngineResult> first =
      engine.EstimateBatch(c, roots, registry, {});
  EXPECT_EQ(engine.batch_builds(), 1u);
  EXPECT_EQ(engine.batch_cache_size(), 1u);

  // Reversed order: same decision, results in caller order.
  std::vector<GateId> reversed(roots.rbegin(), roots.rend());
  std::vector<EngineResult> r =
      engine.EstimateBatch(c, reversed, registry, {});
  EXPECT_EQ(engine.batch_builds(), 1u);
  EXPECT_EQ(engine.batch_cache_size(), 1u);
  for (size_t i = 0; i < reversed.size(); ++i) {
    EXPECT_DOUBLE_EQ(r[i].value, first[roots.size() - 1 - i].value);
  }

  // Duplicates collapse onto the canonical battery and map back.
  std::vector<GateId> doubled = roots;
  doubled.insert(doubled.end(), roots.begin(), roots.end());
  std::vector<EngineResult> d =
      engine.EstimateBatch(c, doubled, registry, {});
  EXPECT_EQ(engine.batch_builds(), 1u);
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_DOUBLE_EQ(d[i].value, first[i].value);
    EXPECT_DOUBLE_EQ(d[i + roots.size()].value, first[i].value);
  }
}

// Eviction is FIFO one entry at a time, not a wholesale wipe: a hot
// battery inserted early must still be cached after enough distinct
// batteries to exceed the memo capacity, as long as it stays younger
// than the churn (capacity 64, churn 40 here).
TEST(JunctionBatchTest, HotBatterySurvivesCachePressure) {
  Rng rng(32);
  std::vector<GateId> pool;
  BoolCircuit c = RandomCircuit(rng, 8, 120, &pool);
  EventRegistry registry = RandomRegistry(rng, 8);
  JunctionTreeEngine engine(/*cache_plans=*/true);

  std::vector<GateId> hot = RandomRoots(rng, pool, 5);
  std::sort(hot.begin(), hot.end());
  hot.erase(std::unique(hot.begin(), hot.end()), hot.end());
  std::vector<EngineResult> expected =
      engine.EstimateBatch(c, hot, registry, {});
  EXPECT_EQ(engine.batch_builds(), 1u);

  // 40 single-root batteries churn the memo but stay far from evicting
  // the hot entry (the cache holds 64 decisions). Structural hashing
  // may deduplicate pool gates, so count the distinct batteries.
  std::vector<GateId> churned;
  for (uint32_t i = 0; i < 40; ++i) {
    engine.EstimateBatch(c, {pool[i]}, registry, {});
    churned.push_back(pool[i]);
  }
  std::sort(churned.begin(), churned.end());
  churned.erase(std::unique(churned.begin(), churned.end()), churned.end());
  const uint64_t builds_after_churn = engine.batch_builds();
  EXPECT_EQ(builds_after_churn, 1u + churned.size());

  std::vector<EngineResult> again =
      engine.EstimateBatch(c, hot, registry, {});
  EXPECT_EQ(engine.batch_builds(), builds_after_churn)
      << "hot battery was evicted by unrelated churn";
  for (size_t i = 0; i < hot.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].value, expected[i].value);
  }

  // Push past capacity: the memo caps at 64 entries and keeps serving.
  for (uint32_t i = 40; i < 90; ++i) {
    engine.EstimateBatch(c, {pool[i]}, registry, {});
  }
  EXPECT_LE(engine.batch_cache_size(), 64u);
  std::vector<EngineResult> final_check =
      engine.EstimateBatch(c, hot, registry, {});
  for (size_t i = 0; i < hot.size(); ++i) {
    EXPECT_DOUBLE_EQ(final_check[i].value, expected[i].value);
  }
}

TEST(QuerySessionBatchTest, ProbabilityBatchMatchesProbability) {
  Schema schema;
  schema.AddRelation("E", 2);
  Rng rng(42);
  TidInstance tid(schema);
  const uint32_t rungs = 12;
  for (uint32_t i = 0; i + 2 < 2 * rungs; i += 2) {
    tid.AddFact(0, {i, i + 2}, 0.5 + 0.4 * rng.UniformDouble());
    tid.AddFact(0, {i + 1, i + 3}, 0.5 + 0.4 * rng.UniformDouble());
    tid.AddFact(0, {i, i + 1}, 0.3 + 0.4 * rng.UniformDouble());
  }
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));

  std::vector<GateId> lineages;
  for (uint32_t t = 1; t < rungs; t += 2) {
    lineages.push_back(session.ReachabilityLineage(0, 0, 2 * t));
  }
  std::vector<EngineResult> batched = session.ProbabilityBatch(lineages);
  ASSERT_EQ(batched.size(), lineages.size());
  for (size_t i = 0; i < lineages.size(); ++i) {
    EXPECT_NEAR(batched[i].value, session.Probability(lineages[i]).value,
                1e-9)
        << "target " << i;
    EXPECT_EQ(batched[i].stats.batch_size, lineages.size());
  }

  // Evidence is shared across the whole batch.
  const Evidence evidence = {{0, false}};
  std::vector<EngineResult> pinned =
      session.ProbabilityBatch(lineages, evidence);
  for (size_t i = 0; i < lineages.size(); ++i) {
    EXPECT_NEAR(pinned[i].value,
                session.Probability(lineages[i], evidence).value, 1e-9);
  }
}

TEST(QuerySessionBatchTest, SubLineageMarginalsUseSharedPass) {
  // A question battery over ONE lineage's sub-gates (the crowd-style
  // "which internal hypothesis to ask about next" workload): the union
  // cone is the single lineage cone, so the engine must answer all of
  // them in one shared calibrating pass instead of per-root plans.
  Schema schema;
  schema.AddRelation("E", 2);
  Rng rng(7);
  TidInstance tid(schema);
  const uint32_t rungs = 16;
  for (uint32_t i = 0; i + 2 < 2 * rungs; i += 2) {
    tid.AddFact(0, {i, i + 2}, 0.5 + 0.4 * rng.UniformDouble());
    tid.AddFact(0, {i + 1, i + 3}, 0.5 + 0.4 * rng.UniformDouble());
    tid.AddFact(0, {i, i + 1}, 0.3 + 0.4 * rng.UniformDouble());
  }
  QuerySession session = QuerySession::FromCInstance(
      tid.ToPcInstance(),
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  GateId lineage = session.ReachabilityLineage(0, 0, 2 * rungs - 2);
  std::vector<GateId> cone =
      session.pcc().circuit().ReachableFrom(lineage);
  std::vector<GateId> roots;
  for (size_t i = 0; i < cone.size() && roots.size() < 16;
       i += cone.size() / 16) {
    roots.push_back(cone[i]);
  }
  roots.push_back(lineage);

  std::vector<EngineResult> batched = session.ProbabilityBatch(roots);
  ASSERT_EQ(batched.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_NEAR(batched[i].value, session.Probability(roots[i]).value, 1e-9)
        << "root " << i;
    // The calibrating pass visits every bag upward plus the pruned
    // downward sweep — strictly more than one upward pass, and the
    // same shared-plan stats on every result; per-root fallback would
    // report per-root cones instead.
    EXPECT_GT(batched[i].stats.bags_visited, batched[i].stats.num_bags);
    EXPECT_EQ(batched[i].stats.num_gates, batched[0].stats.num_gates);
  }
}

TEST(TreeQuerySessionBatchTest, ProbabilityBatchMatchesProbability) {
  EventRegistry registry;
  EventId e0 = registry.Register("e0", 0.4);
  EventId e1 = registry.Register("e1", 0.6);
  UncertainBinaryTree tree;
  GateId v0 = tree.circuit().AddVar(e0);
  GateId v1 = tree.circuit().AddVar(e1);
  TreeNodeId l0 = tree.AddLeaf({{1, v0}, {0, tree.circuit().AddNot(v0)}});
  TreeNodeId l1 = tree.AddLeaf({{2, v1}, {0, tree.circuit().AddNot(v1)}});
  tree.AddInternal({{0, tree.circuit().AddConst(true)}}, l0, l1);

  TreeQuerySession session(
      std::move(tree), registry,
      std::make_unique<JunctionTreeEngine>(/*cache_plans=*/true));
  std::vector<AutomatonExpr> exprs = {
      AutomatonExpr::Atom(MakeExistsLabel(3, 1)),
      AutomatonExpr::Atom(MakeExistsLabel(3, 2)),
      AutomatonExpr::Atom(MakeExistsLabel(3, 1)) &&
          !AutomatonExpr::Atom(MakeExistsLabel(3, 2)),
  };
  std::vector<EngineResult> batched = session.ProbabilityBatch(exprs);
  ASSERT_EQ(batched.size(), exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    EXPECT_NEAR(batched[i].value, session.Probability(exprs[i]).value, 1e-9)
        << "expr " << i;
  }
  EXPECT_NEAR(batched[2].value, 0.4 * (1 - 0.6), 1e-9);
}

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Mix(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Mix(double value) { Mix(std::bit_cast<uint64_t>(value)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Digest of the single-root plan of `root`: its width, bag count, the
// members and parent of every bag, its total cell count and the bits of
// its answer. The bags are those of the decomposition Build derives,
// recomputed through the public treedec calls (the binarised cone's
// primal graph, min-degree with the min-fill fallback past width 10),
// and checked against the built plan's width and bag count.
uint64_t PlanDigest(const BoolCircuit& circuit, GateId root,
                    const EventRegistry& registry) {
  const JunctionTreePlan plan = JunctionTreePlan::Build(circuit, root);
  EXPECT_EQ(plan.build_status(), EngineStatus::kOk);
  const auto [cone, cone_root] = circuit.ExtractCone(root);
  const auto [bin, remap] = cone.Binarize();
  EXPECT_NE(bin.kind(remap[cone_root]), GateKind::kConst);
  const Graph graph = Graph::FromEdges(
      static_cast<uint32_t>(bin.NumGates()), bin.PrimalEdges());
  EliminationOrder elimination = MinDegreeOrder(graph);
  if (elimination.width > 10) {
    EliminationOrder fill = PeeledMinFillOrder(graph);
    if (fill.width < elimination.width) elimination = std::move(fill);
  }
  const TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(graph, elimination.order);
  EXPECT_EQ(td.Width(), plan.width());
  EXPECT_EQ(td.NumBags(), plan.num_bags());

  Fnv fnv;
  fnv.Mix(static_cast<uint64_t>(plan.width()));
  fnv.Mix(static_cast<uint64_t>(plan.num_bags()));
  for (BagId b = 0; b < td.NumBags(); ++b) {
    fnv.Mix(static_cast<uint64_t>(td.parent(b)));
    fnv.Mix(static_cast<uint64_t>(td.bag(b).size()));
    for (VertexId v : td.bag(b)) fnv.Mix(static_cast<uint64_t>(v));
  }
  fnv.Mix(plan.total_cells());
  fnv.Mix(plan.Execute(registry));
  return fnv.hash();
}

// Plans pinned bit for bit: the same decompositions, tables and answers
// as the plans of the earlier hash-set primal graph and symbolic
// factorisation.
TEST(JunctionTreeGoldenTest, PlanDigests) {
  const TidInstance ladder =
      workloads::MakeInstance(*workloads::ParseInstanceSpec("ladder:48"));
  PccInstance ladder_pcc = PccInstance::FromCInstance(ladder.ToPcInstance());
  const uint32_t domain =
      static_cast<uint32_t>(ladder_pcc.instance().DomainSize());
  Rng rng(19);
  std::vector<GateId> ladder_roots;
  std::vector<uint64_t> digests;
  while (ladder_roots.size() < 8) {
    const Value s = static_cast<Value>(rng.UniformInt(domain));
    const Value t = static_cast<Value>(rng.UniformInt(domain));
    if (s == t) continue;
    const GateId root = ComputeReachabilityLineage(ladder_pcc, 0, s, t);
    if (ladder_pcc.circuit().kind(root) == GateKind::kConst) continue;
    ladder_roots.push_back(root);
    digests.push_back(
        PlanDigest(ladder_pcc.circuit(), root, ladder_pcc.events()));
  }

  const workloads::InstanceSpec ktree_spec =
      *workloads::ParseInstanceSpec("ktree:64x2");
  PccInstance ktree_pcc = PccInstance::FromCInstance(
      workloads::MakeInstance(ktree_spec).ToPcInstance());
  const auto [ks, kt] = workloads::CanonicalEndpoints(ktree_spec);
  digests.push_back(PlanDigest(ktree_pcc.circuit(),
                               ComputeReachabilityLineage(ktree_pcc, 0, ks, kt),
                               ktree_pcc.events()));

  // A two-atom tree-automaton lineage whose min-degree order is wider
  // than Build accepts, so its plan comes from the min-fill fallback.
  Rng doc_rng(6);
  const PrXmlDocument doc = workloads::MakeWikidataPrxml(doc_rng, 48, 1);
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  const Label alphabet = tree.AlphabetSize();
  const Label occupation = labels.Find("occupation");
  TreeQuerySession session(std::move(tree), doc.events(),
                           std::make_unique<JunctionTreeEngine>());
  const GateId automaton_root = session.Lineage(
      AutomatonExpr::Atom(MakeExistsLabel(alphabet, occupation)) ||
      AutomatonExpr::Atom(MakeEveryBUnderA(alphabet, occupation,
                                           labels.Find("musician"))));
  EXPECT_GT(JunctionTreeAnalysis::Analyze(session.tree().circuit(),
                                          automaton_root)
                .MinDegreeWidth(),
            10);
  digests.push_back(
      PlanDigest(session.tree().circuit(), automaton_root, doc.events()));

  // One shared plan over the union of three ladder cones.
  const JunctionTreePlan batch = JunctionTreePlan::BuildBatch(
      ladder_pcc.circuit(),
      std::vector<GateId>(ladder_roots.begin(), ladder_roots.begin() + 3));
  ASSERT_EQ(batch.build_status(), EngineStatus::kOk) << batch.width();
  std::vector<double> values;
  ASSERT_EQ(batch.ExecuteBatch(ladder_pcc.events(), {}, &values),
            EngineStatus::kOk);
  Fnv fnv;
  fnv.Mix(static_cast<uint64_t>(batch.width()));
  fnv.Mix(static_cast<uint64_t>(batch.num_bags()));
  fnv.Mix(batch.total_cells());
  for (double value : values) fnv.Mix(value);
  digests.push_back(fnv.hash());

  // 8 ladder:48 pairs, ktree:64x2, the tree-automaton fallback, the
  // batch.
  const std::vector<uint64_t> kGolden = {
      0x58294f7850cc682eull, 0x4ab9efc4cd63bef6ull, 0x844ba49f6774f5b6ull,
      0x9e9f57b08078de16ull, 0xdce2184dcff769e7ull, 0x4b9ef844501515ccull,
      0x385d0828bf11f51cull, 0x3115eedd8da8ccf6ull, 0xdf24c51f79205c21ull,
      0x924ec9a89e507117ull, 0x0da9930c10eda12dull,
  };
  EXPECT_EQ(digests, kGolden);
}

}  // namespace
}  // namespace tud

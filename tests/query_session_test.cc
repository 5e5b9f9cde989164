// QuerySession: N queries against one instance must share one tree
// encoding and still agree, query by query, with the fresh-derivation
// path (ComputeCqLineage / ComputeReachabilityLineage + message
// passing). TreeQuerySession: the automaton route through the session
// must match the direct provenance-run pipeline, world by world.

#include <optional>
#include <string>
#include <vector>

#include "automata/automaton_library.h"
#include "automata/provenance_run.h"
#include "events/valuation.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "queries/lineage.h"
#include "queries/query_session.h"
#include "queries/reachability.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"

namespace tud {
namespace {

Schema RstSchema(RelationId* r, RelationId* s, RelationId* t) {
  Schema schema;
  *r = schema.AddRelation("R", 1);
  *s = schema.AddRelation("S", 2);
  *t = schema.AddRelation("T", 1);
  return schema;
}

TidInstance SmallRstTid(Rng& rng, RelationId r, RelationId s, RelationId t,
                        const Schema& schema, uint32_t chain) {
  TidInstance tid(schema);
  for (uint32_t i = 0; i < chain; ++i) {
    tid.AddFact(r, {i}, 0.2 + 0.6 * rng.UniformDouble());
    tid.AddFact(s, {i, i + 1}, 0.2 + 0.6 * rng.UniformDouble());
    tid.AddFact(t, {i + 1}, 0.2 + 0.6 * rng.UniformDouble());
  }
  return tid;
}

TEST(QuerySessionTest, CqQueryMatchesFreshDerivation) {
  RelationId r, s, t;
  Schema schema = RstSchema(&r, &s, &t);
  Rng rng(5);
  TidInstance tid = SmallRstTid(rng, r, s, t, schema, 5);
  CInstance pc = tid.ToPcInstance();
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(r, s, t);

  // Fresh path: per-query decomposition.
  PccInstance fresh = PccInstance::FromCInstance(pc);
  GateId fresh_lineage = ComputeCqLineage(q, fresh);
  double expected =
      JunctionTreeEngine().Estimate(fresh.circuit(), fresh_lineage,
                                    fresh.events()).value;

  QuerySession session = QuerySession::FromCInstance(pc);
  EngineResult result = session.Query(q);
  EXPECT_NEAR(result.value, expected, 1e-9);
  EXPECT_EQ(result.error_bound, 0.0);
}

TEST(QuerySessionTest, ManyQueriesShareOneDecomposition) {
  Schema schema;
  RelationId e = schema.AddRelation("E", 2);
  Rng rng(11);
  TidInstance tid(schema);
  const uint32_t n = 8;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    tid.AddFact(e, {i, i + 1}, 0.3 + 0.5 * rng.UniformDouble());
  }
  CInstance pc = tid.ToPcInstance();

  QuerySession session = QuerySession::FromCInstance(pc);
  const DecomposedInstance* dec = &session.Decomposition();
  for (uint32_t target = 1; target < n; ++target) {
    // Fresh path for this query alone.
    PccInstance fresh = PccInstance::FromCInstance(pc);
    GateId fresh_lineage = ComputeReachabilityLineage(fresh, e, 0, target);
    double expected = JunctionTreeEngine()
                          .Estimate(fresh.circuit(), fresh_lineage,
                                    fresh.events())
                          .value;

    LineageStats stats;
    GateId lineage = session.ReachabilityLineage(e, 0, target, &stats);
    EngineResult result = session.Probability(lineage);
    EXPECT_NEAR(result.value, expected, 1e-9) << "target " << target;
    EXPECT_GE(stats.decomposition_width, 0);
    // The decomposition is derived once and reused verbatim.
    EXPECT_EQ(&session.Decomposition(), dec);
  }
}

TEST(QuerySessionTest, ReachabilityLineageValidPerWorld) {
  Schema schema;
  RelationId e = schema.AddRelation("E", 2);
  TidInstance tid(schema);
  tid.AddFact(e, {0, 1}, 0.5);
  tid.AddFact(e, {1, 2}, 0.5);
  tid.AddFact(e, {0, 3}, 0.5);
  tid.AddFact(e, {3, 2}, 0.5);
  CInstance pc = tid.ToPcInstance();

  QuerySession session = QuerySession::FromCInstance(pc);
  GateId lineage = session.ReachabilityLineage(e, 0, 2);
  const size_t num_events = session.pcc().events().size();
  for (uint64_t mask = 0; mask < (1ULL << num_events); ++mask) {
    Valuation v = Valuation::FromMask(mask, num_events);
    Instance world = session.pcc().World(v);
    EXPECT_EQ(session.pcc().circuit().Evaluate(lineage, v),
              EvaluateReachability(world, e, 0, 2))
        << "mask " << mask;
  }
}

TEST(QuerySessionTest, EvidenceConditionsTheQuery) {
  RelationId r, s, t;
  Schema schema = RstSchema(&r, &s, &t);
  Rng rng(21);
  TidInstance tid = SmallRstTid(rng, r, s, t, schema, 3);
  CInstance pc = tid.ToPcInstance();
  ConjunctiveQuery q = ConjunctiveQuery::RstPath(r, s, t);

  QuerySession session = QuerySession::FromCInstance(pc);
  GateId lineage = session.CqLineage(q);
  const Evidence evidence = {{0, true}};
  double expected = JunctionTreeEngine()
                        .Estimate(session.pcc().circuit(), lineage,
                                  session.pcc().events(), evidence)
                        .value;
  EXPECT_NEAR(session.Probability(lineage, evidence).value, expected, 1e-9);
}

TEST(TreeQuerySessionTest, MatchesDirectPipelineWorldByWorld) {
  EventRegistry registry;
  EventId e0 = registry.Register("e0", 0.4);
  EventId e1 = registry.Register("e1", 0.6);
  UncertainBinaryTree tree;
  GateId v0 = tree.circuit().AddVar(e0);
  GateId v1 = tree.circuit().AddVar(e1);
  TreeNodeId l0 = tree.AddLeaf({{1, v0}, {0, tree.circuit().AddNot(v0)}});
  TreeNodeId l1 = tree.AddLeaf({{2, v1}, {0, tree.circuit().AddNot(v1)}});
  tree.AddInternal({{0, tree.circuit().AddConst(true)}}, l0, l1);

  AutomatonExpr query = AutomatonExpr::Atom(MakeExistsLabel(3, 1)) &&
                        !AutomatonExpr::Atom(MakeExistsLabel(3, 2));
  CompiledAutomaton compiled = query.Compile();

  TreeQuerySession session(tree, registry);
  GateId lineage = session.Lineage(query);
  for (uint64_t mask = 0; mask < 4; ++mask) {
    Valuation v = Valuation::FromMask(mask, 2);
    BinaryTree world = session.tree().World(v);
    EXPECT_EQ(session.tree().circuit().Evaluate(lineage, v),
              compiled.Accepts(world))
        << "mask " << mask;
  }

  // P(has `1` and no `2`) = p(e0) * (1 - p(e1)), by independence.
  EngineResult result = session.Probability(query);
  EXPECT_NEAR(result.value, 0.4 * (1 - 0.6), 1e-9);
}

TEST(TreeQuerySessionTest, RepeatedQueriesReuseCompilationAndGates) {
  EventRegistry registry;
  EventId e0 = registry.Register("e0", 0.5);
  UncertainBinaryTree tree;
  GateId v0 = tree.circuit().AddVar(e0);
  TreeNodeId l0 = tree.AddLeaf({{1, v0}, {0, tree.circuit().AddNot(v0)}});
  TreeNodeId l1 = tree.AddLeaf({{0, tree.circuit().AddConst(true)}});
  tree.AddInternal({{0, tree.circuit().AddConst(true)}}, l0, l1);

  TreeQuerySession session(std::move(tree), registry);
  AutomatonExpr query = AutomatonExpr::Atom(MakeExistsLabel(2, 1));
  double first = session.Probability(query).value;
  const CompiledAutomaton* compiled_once = &session.Compiled(query);
  const size_t gates_after_first = session.tree().circuit().NumGates();

  // Same expression again: same compiled automaton object, and the
  // provenance run re-emits structurally identical gates, which the
  // circuit's structural hash dedups — no growth.
  double second = session.Probability(query).value;
  EXPECT_EQ(&session.Compiled(query), compiled_once);
  EXPECT_EQ(session.tree().circuit().NumGates(), gates_after_first);
  EXPECT_NEAR(first, second, 0.0);
  EXPECT_NEAR(first, 0.5, 1e-9);
}

}  // namespace
}  // namespace tud

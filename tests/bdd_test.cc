#include <cmath>

#include "bdd/bdd.h"
#include "gtest/gtest.h"
#include "inference/engine.h"
#include "util/rng.h"

namespace tud {
namespace {

TEST(BddTest, TerminalsAndVar) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.NumNodes(), 2u);
  BddRef x = mgr.Var(0);
  EXPECT_FALSE(mgr.Evaluate(x, {false, false, false}));
  EXPECT_TRUE(mgr.Evaluate(x, {true, false, false}));
}

TEST(BddTest, BooleanOperations) {
  BddManager mgr(2);
  BddRef x = mgr.Var(0);
  BddRef y = mgr.Var(1);
  BddRef conj = mgr.And(x, y);
  BddRef disj = mgr.Or(x, y);
  BddRef neg = mgr.Not(x);
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      std::vector<bool> v = {a, b};
      EXPECT_EQ(mgr.Evaluate(conj, v), a && b);
      EXPECT_EQ(mgr.Evaluate(disj, v), a || b);
      EXPECT_EQ(mgr.Evaluate(neg, v), !a);
    }
  }
}

TEST(BddTest, ReductionRules) {
  BddManager mgr(2);
  BddRef x = mgr.Var(0);
  // x OR x = x, x AND NOT x = false: canonical representation means
  // pointer equality.
  EXPECT_EQ(mgr.Or(x, x), x);
  EXPECT_EQ(mgr.And(x, mgr.Not(x)), kBddFalse);
  EXPECT_EQ(mgr.Or(x, mgr.Not(x)), kBddTrue);
  // Ite(x, y, y) = y.
  BddRef y = mgr.Var(1);
  EXPECT_EQ(mgr.Ite(x, y, y), y);
}

TEST(BddTest, CountModels) {
  BddManager mgr(3);
  BddRef x = mgr.Var(0);
  BddRef y = mgr.Var(1);
  EXPECT_EQ(mgr.CountModels(kBddTrue), 8u);
  EXPECT_EQ(mgr.CountModels(kBddFalse), 0u);
  EXPECT_EQ(mgr.CountModels(x), 4u);
  EXPECT_EQ(mgr.CountModels(mgr.And(x, y)), 2u);
  EXPECT_EQ(mgr.CountModels(mgr.Or(x, y)), 6u);
}

TEST(BddTest, WmcSimple) {
  BddManager mgr(2);
  BddRef x = mgr.Var(0);
  BddRef y = mgr.Var(1);
  std::vector<double> probs = {0.3, 0.6};
  EXPECT_NEAR(mgr.Wmc(mgr.And(x, y), probs), 0.18, 1e-12);
  EXPECT_NEAR(mgr.Wmc(mgr.Or(x, y), probs), 0.3 + 0.6 - 0.18, 1e-12);
  EXPECT_NEAR(mgr.Wmc(mgr.Not(x), probs), 0.7, 1e-12);
  EXPECT_NEAR(mgr.Wmc(kBddTrue, probs), 1.0, 1e-12);
}

BoolCircuit RandomCircuit(Rng& rng, uint32_t num_events, uint32_t num_gates,
                          GateId* root) {
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
  *root = pool.back();
  return c;
}

class BddCircuitTest : public ::testing::TestWithParam<int> {};

TEST_P(BddCircuitTest, FromCircuitPreservesSemantics) {
  Rng rng(GetParam());
  const uint32_t kEvents = 6;
  GateId root;
  BoolCircuit c = RandomCircuit(rng, kEvents, 25, &root);
  BddManager mgr(kEvents);
  std::vector<uint32_t> levels(kEvents);
  for (uint32_t i = 0; i < kEvents; ++i) levels[i] = i;
  BddRef f = mgr.FromCircuit(c, root, levels);
  for (uint64_t mask = 0; mask < (1u << kEvents); ++mask) {
    std::vector<bool> bits(kEvents);
    for (uint32_t i = 0; i < kEvents; ++i) bits[i] = (mask >> i) & 1;
    EXPECT_EQ(mgr.Evaluate(f, bits),
              c.Evaluate(root, Valuation::FromMask(mask, kEvents)))
        << mask;
  }
}

TEST_P(BddCircuitTest, WmcMatchesExhaustive) {
  Rng rng(GetParam() + 100);
  const uint32_t kEvents = 6;
  GateId root;
  BoolCircuit c = RandomCircuit(rng, kEvents, 25, &root);
  EventRegistry registry;
  std::vector<double> probs;
  for (uint32_t i = 0; i < kEvents; ++i) {
    double p = 0.1 + 0.8 * rng.UniformDouble();
    registry.Register("e" + std::to_string(i), p);
    probs.push_back(p);
  }
  BddManager mgr(kEvents);
  std::vector<uint32_t> levels(kEvents);
  for (uint32_t i = 0; i < kEvents; ++i) levels[i] = i;
  BddRef f = mgr.FromCircuit(c, root, levels);
  EXPECT_NEAR(mgr.Wmc(f, probs),
              ExhaustiveEngine().Estimate(c, root, registry).value,
              1e-10);
}

TEST_P(BddCircuitTest, VariableOrderDoesNotChangeWmc) {
  Rng rng(GetParam() + 200);
  const uint32_t kEvents = 5;
  GateId root;
  BoolCircuit c = RandomCircuit(rng, kEvents, 20, &root);
  std::vector<double> probs = {0.2, 0.4, 0.5, 0.6, 0.8};

  // Identity order.
  BddManager mgr1(kEvents);
  std::vector<uint32_t> id_levels = {0, 1, 2, 3, 4};
  double w1 = 0.0;
  {
    BddRef f = mgr1.FromCircuit(c, root, id_levels);
    w1 = mgr1.Wmc(f, probs);
  }
  // Reversed order (probabilities must follow the levels).
  BddManager mgr2(kEvents);
  std::vector<uint32_t> rev_levels = {4, 3, 2, 1, 0};
  std::vector<double> rev_probs = {0.8, 0.6, 0.5, 0.4, 0.2};
  BddRef g = mgr2.FromCircuit(c, root, rev_levels);
  EXPECT_NEAR(mgr2.Wmc(g, rev_probs), w1, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddCircuitTest, ::testing::Range(0, 20));

TEST(BddTest, HashConsingKeepsCanonicalForm) {
  BddManager mgr(4);
  BddRef x0 = mgr.Var(0);
  BddRef x1 = mgr.Var(1);
  // (x0 & x1) built two different ways must be the same node.
  BddRef a = mgr.And(x0, x1);
  BddRef b = mgr.Ite(x0, x1, kBddFalse);
  EXPECT_EQ(a, b);
}


TEST(BddTest, RestrictFixesVariables) {
  BddManager mgr(3);
  BddRef x = mgr.Var(0);
  BddRef y = mgr.Var(1);
  BddRef z = mgr.Var(2);
  BddRef f = mgr.Or(mgr.And(x, y), z);
  // f[x := 1] = y OR z; f[x := 0] = z.
  EXPECT_EQ(mgr.Restrict(f, 0, true), mgr.Or(y, z));
  EXPECT_EQ(mgr.Restrict(f, 0, false), z);
  // Restricting a variable outside the support is the identity.
  BddRef g = mgr.And(x, y);
  EXPECT_EQ(mgr.Restrict(g, 2, true), g);
}

TEST(BddTest, ExistsQuantification) {
  BddManager mgr(2);
  BddRef x = mgr.Var(0);
  BddRef y = mgr.Var(1);
  // ∃x. (x AND y) = y;  ∃x. x = true;  ∃y. (x XOR y) = true.
  EXPECT_EQ(mgr.Exists(mgr.And(x, y), 0), y);
  EXPECT_EQ(mgr.Exists(x, 0), kBddTrue);
  BddRef xor_xy = mgr.Or(mgr.And(x, mgr.Not(y)), mgr.And(mgr.Not(x), y));
  EXPECT_EQ(mgr.Exists(xor_xy, 1), kBddTrue);
}

TEST(BddTest, RestrictCommutesWithEvaluation) {
  Rng rng(33);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 5, 20, &root);
  BddManager mgr(5);
  std::vector<uint32_t> levels = {0, 1, 2, 3, 4};
  BddRef f = mgr.FromCircuit(c, root, levels);
  BddRef f1 = mgr.Restrict(f, 2, true);
  for (uint64_t mask = 0; mask < 32; ++mask) {
    std::vector<bool> bits(5);
    for (int i = 0; i < 5; ++i) bits[i] = (mask >> i) & 1;
    std::vector<bool> forced = bits;
    forced[2] = true;
    EXPECT_EQ(mgr.Evaluate(f1, bits), mgr.Evaluate(f, forced)) << mask;
  }
}

}  // namespace
}  // namespace tud

#include <cmath>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "prxml/xml_tree.h"
#include "uncertain/worlds.h"
#include "util/rng.h"

namespace tud {
namespace {

TEST(XmlTreeTest, Construction) {
  XmlTree t;
  XmlNodeId root = t.AddRoot("doc");
  XmlNodeId a = t.AddChild(root, "a");
  XmlNodeId b = t.AddChild(a, "b");
  EXPECT_EQ(t.NumNodes(), 3u);
  EXPECT_EQ(t.parent(b), a);
  EXPECT_EQ(t.children(root).size(), 1u);
}

TEST(TreePatternTest, MatchesChildAndDescendant) {
  XmlTree t;
  XmlNodeId root = t.AddRoot("doc");
  XmlNodeId person = t.AddChild(root, "person");
  t.AddChild(person, "name");

  EXPECT_TRUE(TreePattern::LabelExists("name").Matches(t));
  EXPECT_FALSE(TreePattern::LabelExists("title").Matches(t));
  EXPECT_TRUE(TreePattern::AncestorDescendant("doc", "name").Matches(t));
  EXPECT_FALSE(TreePattern::AncestorDescendant("name", "doc").Matches(t));

  // Child axis is strict: doc/name does not hold, doc/person does.
  TreePattern child_pattern;
  PatternNodeId r = child_pattern.AddRoot("doc");
  child_pattern.AddChild(r, "name", PatternAxis::kChild);
  EXPECT_FALSE(child_pattern.Matches(t));
  TreePattern person_pattern;
  r = person_pattern.AddRoot("doc");
  person_pattern.AddChild(r, "person", PatternAxis::kChild);
  EXPECT_TRUE(person_pattern.Matches(t));
}

TEST(TreePatternTest, WildcardAndBranching) {
  XmlTree t;
  XmlNodeId root = t.AddRoot("doc");
  XmlNodeId p = t.AddChild(root, "person");
  t.AddChild(p, "name");
  t.AddChild(p, "age");

  TreePattern both;
  PatternNodeId r = both.AddRoot("");
  both.AddChild(r, "name", PatternAxis::kChild);
  both.AddChild(r, "age", PatternAxis::kChild);
  EXPECT_TRUE(both.Matches(t));

  TreePattern missing;
  r = missing.AddRoot("");
  missing.AddChild(r, "name", PatternAxis::kChild);
  missing.AddChild(r, "email", PatternAxis::kChild);
  EXPECT_FALSE(missing.Matches(t));
}

// ---------------------------------------------------------------------------
// The paper's Figure 1 document.
// ---------------------------------------------------------------------------

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test() {
    e_jane_ = doc_.events().Register("eJane", 0.9);
    PNodeId root = doc_.AddRoot("Q298423");

    // ind child: "occupation: musician" with probability 0.4.
    PNodeId ind = doc_.AddChild(root, PNodeKind::kInd, "");
    PNodeId occupation =
        doc_.AddChild(ind, PNodeKind::kOrdinary, "occupation");
    doc_.SetEdgeProbability(occupation, 0.4);
    doc_.AddChild(occupation, PNodeKind::kOrdinary, "musician");

    // cie children guarded by eJane: place of birth, surname.
    PNodeId cie1 = doc_.AddChild(root, PNodeKind::kCie, "");
    PNodeId pob =
        doc_.AddChild(cie1, PNodeKind::kOrdinary, "place of birth");
    doc_.SetEdgeLiterals(pob, {{e_jane_, true}});
    doc_.AddChild(pob, PNodeKind::kOrdinary, "Crescent");

    PNodeId cie2 = doc_.AddChild(root, PNodeKind::kCie, "");
    PNodeId surname = doc_.AddChild(cie2, PNodeKind::kOrdinary, "surname");
    doc_.SetEdgeLiterals(surname, {{e_jane_, true}});
    doc_.AddChild(surname, PNodeKind::kOrdinary, "Manning");

    // mux child: given name = Bradley (0.4) or Chelsea (0.6).
    PNodeId given =
        doc_.AddChild(root, PNodeKind::kOrdinary, "given name");
    PNodeId mux = doc_.AddChild(given, PNodeKind::kMux, "");
    PNodeId bradley = doc_.AddChild(mux, PNodeKind::kOrdinary, "Bradley");
    doc_.SetEdgeProbability(bradley, 0.4);
    PNodeId chelsea = doc_.AddChild(mux, PNodeKind::kOrdinary, "Chelsea");
    doc_.SetEdgeProbability(chelsea, 0.6);

    doc_.Finalize();
  }

  double PatternProbability(const TreePattern& pattern) {
    GateId lineage = PatternLineage(pattern, doc_);
    return JunctionTreeEngine().Estimate(doc_.circuit(), lineage,
                                         doc_.events()).value;
  }

  PrXmlDocument doc_;
  EventId e_jane_;
};

TEST_F(Figure1Test, DocumentShape) {
  EXPECT_FALSE(doc_.IsLocal());  // Has cie nodes.
  EXPECT_EQ(doc_.NumOrdinaryNodes(), 10u);
}

TEST_F(Figure1Test, MarginalProbabilities) {
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("musician")), 0.4,
              1e-12);
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("Chelsea")), 0.6,
              1e-12);
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("Bradley")), 0.4,
              1e-12);
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("Manning")), 0.9,
              1e-12);
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("Crescent")), 0.9,
              1e-12);
  // The root and "given name" are certain.
  EXPECT_NEAR(PatternProbability(TreePattern::LabelExists("given name")),
              1.0, 1e-12);
}

TEST_F(Figure1Test, JaneCorrelation) {
  // Surname and place of birth are perfectly correlated through eJane:
  // P(both) = P(either) = 0.9, not 0.81.
  TreePattern both;
  PatternNodeId r = both.AddRoot("Q298423");
  both.AddChild(r, "surname", PatternAxis::kChild);
  both.AddChild(r, "place of birth", PatternAxis::kChild);
  EXPECT_NEAR(PatternProbability(both), 0.9, 1e-12);
}

TEST_F(Figure1Test, MuxChoicesAreExclusive) {
  TreePattern impossible;
  PatternNodeId r = impossible.AddRoot("given name");
  impossible.AddChild(r, "Bradley", PatternAxis::kChild);
  impossible.AddChild(r, "Chelsea", PatternAxis::kChild);
  EXPECT_NEAR(PatternProbability(impossible), 0.0, 1e-12);
}

TEST_F(Figure1Test, WorldEnumerationMatchesLineage) {
  TreePattern pattern = TreePattern::AncestorDescendant("Q298423", "Manning");
  GateId lineage = PatternLineage(pattern, doc_);
  double by_enumeration = ProbabilityByEnumeration(
      doc_.events(), [&](const Valuation& v) {
        return pattern.Matches(doc_.World(v));
      });
  double by_circuit =
      ExhaustiveEngine().Estimate(doc_.circuit(), lineage, doc_.events()).value;
  EXPECT_NEAR(by_circuit, by_enumeration, 1e-12);
}

TEST_F(Figure1Test, ScopesMatchPaperIllustration) {
  auto scopes = doc_.NodeScopes();
  // Scope of eJane among the *ordinary* nodes: "surname" and "place of
  // birth" and their descendants, exactly as the paper illustrates.
  // (The distributional cie nodes on the connecting region are
  // implementation artifacts and not part of the comparison.)
  for (PNodeId n = 0; n < doc_.NumNodes(); ++n) {
    if (doc_.kind(n) != PNodeKind::kOrdinary) continue;
    bool expected = doc_.label(n) == "place of birth" ||
                    doc_.label(n) == "Crescent" ||
                    doc_.label(n) == "surname" ||
                    doc_.label(n) == "Manning";
    bool in_scope = !scopes[n].empty();
    EXPECT_EQ(in_scope, expected) << "node " << n << " '" << doc_.label(n)
                                  << "'";
  }
  EXPECT_EQ(doc_.MaxScopeSize(), 1u);
}

// ---------------------------------------------------------------------------
// Local documents: world semantics, fast path, property sweeps.
// ---------------------------------------------------------------------------

class LocalDocTest : public ::testing::Test {
 protected:
  LocalDocTest() {
    PNodeId root = doc_.AddRoot("doc");
    PNodeId ind = doc_.AddChild(root, PNodeKind::kInd, "");
    PNodeId a = doc_.AddChild(ind, PNodeKind::kOrdinary, "a");
    doc_.SetEdgeProbability(a, 0.5);
    PNodeId mux = doc_.AddChild(a, PNodeKind::kMux, "");
    PNodeId b = doc_.AddChild(mux, PNodeKind::kOrdinary, "b");
    doc_.SetEdgeProbability(b, 0.25);
    PNodeId c = doc_.AddChild(mux, PNodeKind::kOrdinary, "c");
    doc_.SetEdgeProbability(c, 0.25);
    doc_.Finalize();
  }
  PrXmlDocument doc_;
};

TEST_F(LocalDocTest, IsLocalAndScopeFree) {
  EXPECT_TRUE(doc_.IsLocal());
  EXPECT_EQ(doc_.MaxScopeSize(), 0u);
}

TEST_F(LocalDocTest, FastPathMatchesLineagePipeline) {
  TreePattern patterns[] = {
      TreePattern::LabelExists("a"), TreePattern::LabelExists("b"),
      TreePattern::LabelExists("c"),
      TreePattern::AncestorDescendant("a", "b"),
      TreePattern::AncestorDescendant("doc", "c")};
  for (const TreePattern& p : patterns) {
    double fast = LocalPatternProbability(p, doc_);
    GateId lineage = PatternLineage(p, doc_);
    double exact =
        ExhaustiveEngine().Estimate(doc_.circuit(), lineage,
                                    doc_.events()).value;
    EXPECT_NEAR(fast, exact, 1e-12) << p.ToString();
  }
}

TEST_F(LocalDocTest, KnownProbabilities) {
  // P(a) = 0.5; P(b) = 0.5 * 0.25; P(b or c present) = 0.5 * 0.5.
  EXPECT_NEAR(LocalPatternProbability(TreePattern::LabelExists("a"), doc_),
              0.5, 1e-12);
  EXPECT_NEAR(LocalPatternProbability(TreePattern::LabelExists("b"), doc_),
              0.125, 1e-12);
}

TEST(LocalDocDeathTest, FastPathRejectsCie) {
  PrXmlDocument doc;
  EventId e = doc.events().Register("e", 0.5);
  PNodeId root = doc.AddRoot("doc");
  PNodeId cie = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId a = doc.AddChild(cie, PNodeKind::kOrdinary, "a");
  doc.SetEdgeLiterals(a, {{e, true}});
  doc.Finalize();
  EXPECT_DEATH(LocalPatternProbability(TreePattern::LabelExists("a"), doc),
               "local");
}

// Random local documents: the three evaluation routes agree.
PrXmlDocument RandomLocalDoc(Rng& rng, uint32_t num_ordinary) {
  PrXmlDocument doc;
  std::vector<PNodeId> ordinary = {doc.AddRoot("L0")};
  const char* labels[] = {"L0", "L1", "L2"};
  for (uint32_t i = 1; i < num_ordinary; ++i) {
    PNodeId parent = ordinary[rng.UniformInt(ordinary.size())];
    std::string label = labels[rng.UniformInt(3)];
    switch (rng.UniformInt(3)) {
      case 0: {  // Plain ordinary child.
        ordinary.push_back(
            doc.AddChild(parent, PNodeKind::kOrdinary, label));
        break;
      }
      case 1: {  // Via ind.
        PNodeId ind = doc.AddChild(parent, PNodeKind::kInd, "");
        PNodeId child = doc.AddChild(ind, PNodeKind::kOrdinary, label);
        doc.SetEdgeProbability(child, 0.2 + 0.6 * rng.UniformDouble());
        ordinary.push_back(child);
        break;
      }
      default: {  // Via mux with two alternatives.
        PNodeId mux = doc.AddChild(parent, PNodeKind::kMux, "");
        PNodeId child = doc.AddChild(mux, PNodeKind::kOrdinary, label);
        doc.SetEdgeProbability(child, 0.4);
        PNodeId other = doc.AddChild(
            mux, PNodeKind::kOrdinary, labels[rng.UniformInt(3)]);
        doc.SetEdgeProbability(other, 0.3);
        ordinary.push_back(child);
        ordinary.push_back(other);
        ++i;  // Two ordinary nodes added.
        break;
      }
    }
  }
  doc.Finalize();
  return doc;
}

class RandomLocalDocTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLocalDocTest, AllThreeEnginesAgree) {
  Rng rng(GetParam());
  PrXmlDocument doc = RandomLocalDoc(rng, 6);
  if (doc.events().size() > 14) GTEST_SKIP() << "too many events";

  TreePattern patterns[] = {
      TreePattern::LabelExists("L1"),
      TreePattern::AncestorDescendant("L0", "L2"),
      TreePattern::AncestorDescendant("L1", "L1")};
  for (const TreePattern& pattern : patterns) {
    double by_worlds = ProbabilityByEnumeration(
        doc.events(), [&](const Valuation& v) {
          return pattern.Matches(doc.World(v));
        });
    GateId lineage = PatternLineage(pattern, doc);
    double by_lineage =
        ExhaustiveEngine().Estimate(doc.circuit(), lineage, doc.events()).value;
    double by_mp =
        JunctionTreeEngine().Estimate(doc.circuit(), lineage,
                                      doc.events()).value;
    double by_fast = LocalPatternProbability(pattern, doc);
    EXPECT_NEAR(by_lineage, by_worlds, 1e-9);
    EXPECT_NEAR(by_mp, by_worlds, 1e-9);
    EXPECT_NEAR(by_fast, by_worlds, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLocalDocTest, ::testing::Range(0, 15));

// Documents with cie events: lineage still matches enumeration.
class RandomCieDocTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCieDocTest, LineageMatchesEnumeration) {
  Rng rng(GetParam() + 5000);
  PrXmlDocument doc;
  EventId e0 = doc.events().Register("g0", 0.3 + 0.4 * rng.UniformDouble());
  EventId e1 = doc.events().Register("g1", 0.3 + 0.4 * rng.UniformDouble());
  PNodeId root = doc.AddRoot("doc");
  // Two far-apart subtrees correlated by shared events.
  for (int i = 0; i < 2; ++i) {
    PNodeId mid =
        doc.AddChild(root, PNodeKind::kOrdinary, "mid" + std::to_string(i));
    PNodeId cie = doc.AddChild(mid, PNodeKind::kCie, "");
    PNodeId leaf = doc.AddChild(cie, PNodeKind::kOrdinary, "leaf");
    bool positive = rng.Bernoulli(0.5);
    doc.SetEdgeLiterals(leaf, {{e0, positive}, {e1, true}});
  }
  doc.Finalize();

  TreePattern pattern;
  PatternNodeId r = pattern.AddRoot("doc");
  pattern.AddChild(r, "leaf", PatternAxis::kDescendant);
  GateId lineage = PatternLineage(pattern, doc);
  double by_worlds = ProbabilityByEnumeration(
      doc.events(), [&](const Valuation& v) {
        return pattern.Matches(doc.World(v));
      });
  EXPECT_NEAR(ExhaustiveEngine().Estimate(doc.circuit(), lineage,
                                          doc.events()).value,
              by_worlds, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCieDocTest, ::testing::Range(0, 10));

TEST(ScopeTest, SharedEventScopeGrowsWithReuse) {
  // One event reused on k cie edges under distinct subtrees: every
  // occurrence subtree is in scope; the connecting root region too.
  PrXmlDocument doc;
  EventId e = doc.events().Register("e", 0.5);
  PNodeId root = doc.AddRoot("doc");
  for (int i = 0; i < 3; ++i) {
    PNodeId cie = doc.AddChild(root, PNodeKind::kCie, "");
    PNodeId child =
        doc.AddChild(cie, PNodeKind::kOrdinary, "c" + std::to_string(i));
    doc.SetEdgeLiterals(child, {{e, true}});
  }
  doc.Finalize();
  auto scopes = doc.NodeScopes();
  // Each cie child node is in scope of e.
  size_t in_scope = 0;
  for (PNodeId n = 0; n < doc.NumNodes(); ++n) {
    if (!scopes[n].empty()) ++in_scope;
  }
  EXPECT_GE(in_scope, 3u);
  EXPECT_EQ(doc.MaxScopeSize(), 1u);

  // Two distinct events reused across subtrees double the max scope.
  PrXmlDocument doc2;
  EventId a = doc2.events().Register("a", 0.5);
  EventId b = doc2.events().Register("b", 0.5);
  PNodeId root2 = doc2.AddRoot("doc");
  for (int i = 0; i < 2; ++i) {
    PNodeId cie = doc2.AddChild(root2, PNodeKind::kCie, "");
    PNodeId child =
        doc2.AddChild(cie, PNodeKind::kOrdinary, "c" + std::to_string(i));
    doc2.SetEdgeLiterals(child, {{a, true}, {b, i == 0}});
  }
  doc2.Finalize();
  EXPECT_EQ(doc2.MaxScopeSize(), 2u);
}

TEST(PrXmlDeathTest, MissingAnnotationsRejected) {
  PrXmlDocument doc;
  PNodeId root = doc.AddRoot("doc");
  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  doc.AddChild(ind, PNodeKind::kOrdinary, "a");  // No probability set.
  EXPECT_DEATH(doc.Finalize(), "missing probability");
}

TEST(PrXmlDeathTest, MuxProbabilitiesMustSumToAtMostOne) {
  PrXmlDocument doc;
  PNodeId root = doc.AddRoot("doc");
  PNodeId mux = doc.AddChild(root, PNodeKind::kMux, "");
  PNodeId a = doc.AddChild(mux, PNodeKind::kOrdinary, "a");
  doc.SetEdgeProbability(a, 0.7);
  PNodeId b = doc.AddChild(mux, PNodeKind::kOrdinary, "b");
  doc.SetEdgeProbability(b, 0.7);
  EXPECT_DEATH(doc.Finalize(), "sum");
}


TEST(DetNodeTest, DetChildrenAlwaysPresent) {
  PrXmlDocument doc;
  PNodeId root = doc.AddRoot("doc");
  PNodeId det = doc.AddChild(root, PNodeKind::kDet, "");
  doc.AddChild(det, PNodeKind::kOrdinary, "a");
  doc.AddChild(det, PNodeKind::kOrdinary, "b");
  doc.Finalize();
  EXPECT_TRUE(doc.IsLocal());
  EXPECT_EQ(doc.events().size(), 0u);
  Valuation v(0);
  XmlTree world = doc.World(v);
  EXPECT_EQ(world.NumNodes(), 3u);  // det is transparent.
  EXPECT_NEAR(LocalPatternProbability(TreePattern::LabelExists("a"), doc),
              1.0, 1e-12);
}

TEST(NestedDistributionalTest, IndUnderMuxUnderInd) {
  // Distributional nodes nested three deep: guards multiply along the
  // chain; validated against enumeration.
  PrXmlDocument doc;
  PNodeId root = doc.AddRoot("doc");
  PNodeId ind1 = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId mux = doc.AddChild(ind1, PNodeKind::kMux, "");
  doc.SetEdgeProbability(mux, 0.8);
  PNodeId ind2 = doc.AddChild(mux, PNodeKind::kInd, "");
  doc.SetEdgeProbability(ind2, 0.5);
  PNodeId leaf = doc.AddChild(ind2, PNodeKind::kOrdinary, "leaf");
  doc.SetEdgeProbability(leaf, 0.5);
  doc.Finalize();

  double expected = 0.8 * 0.5 * 0.5;
  EXPECT_NEAR(
      LocalPatternProbability(TreePattern::LabelExists("leaf"), doc),
      expected, 1e-12);
  double by_worlds = ProbabilityByEnumeration(
      doc.events(), [&](const Valuation& v) {
        return TreePattern::LabelExists("leaf").Matches(doc.World(v));
      });
  EXPECT_NEAR(by_worlds, expected, 1e-12);
}

TEST(PrXmlDeathTest, EdgeAnnotationsOnWrongParents) {
  PrXmlDocument doc;
  EventId e = doc.events().Register("e", 0.5);
  PNodeId root = doc.AddRoot("doc");
  PNodeId plain = doc.AddChild(root, PNodeKind::kOrdinary, "a");
  EXPECT_DEATH(doc.SetEdgeProbability(plain, 0.5), "ind/mux");
  EXPECT_DEATH(doc.SetEdgeLiterals(plain, {{e, true}}), "cie");
  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId child = doc.AddChild(ind, PNodeKind::kOrdinary, "b");
  EXPECT_DEATH(doc.SetEdgeLiterals(child, {{e, true}}), "cie");
}

TEST(PrXmlDeathTest, FinalizeExactlyOnce) {
  PrXmlDocument doc;
  doc.AddRoot("doc");
  doc.Finalize();
  EXPECT_DEATH(doc.Finalize(), "CHECK failed");
  EXPECT_DEATH(doc.AddChild(0, PNodeKind::kOrdinary, "x"), "finalised");
}

TEST(PrXmlDeathTest, RootMustBeOrdinary) {
  PrXmlDocument doc;
  doc.AddRoot("doc");
  // (Roots are forced ordinary by AddRoot; a second root is impossible.)
  EXPECT_DEATH(doc.AddRoot("again"), "CHECK failed");
}

TEST(MuxSemanticTest, MarginalsMatchDeclaredProbabilities) {
  // Three-way mux with leftover "no child" mass: marginals are exactly
  // the declared probabilities even after chain renormalisation.
  PrXmlDocument doc;
  PNodeId root = doc.AddRoot("doc");
  PNodeId mux = doc.AddChild(root, PNodeKind::kMux, "");
  const double probs[3] = {0.2, 0.3, 0.4};
  const char* names[3] = {"x", "y", "z"};
  for (int i = 0; i < 3; ++i) {
    PNodeId c = doc.AddChild(mux, PNodeKind::kOrdinary, names[i]);
    doc.SetEdgeProbability(c, probs[i]);
  }
  doc.Finalize();
  double total = 0;
  for (int i = 0; i < 3; ++i) {
    double p = LocalPatternProbability(
        TreePattern::LabelExists(names[i]), doc);
    EXPECT_NEAR(p, probs[i], 1e-12) << names[i];
    total += p;
  }
  EXPECT_NEAR(total, 0.9, 1e-12);  // 0.1 mass on "no child".
  // Exclusivity: never two children at once.
  ForEachWorld(doc.events(), [&](const Valuation& v, double p) {
    (void)p;
    XmlTree world = doc.World(v);
    EXPECT_LE(world.NumNodes(), 2u);
  });
}

}  // namespace
}  // namespace tud

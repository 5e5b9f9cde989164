#include <string>

#include "gtest/gtest.h"
#include "prxml/fcns.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"
#include "prxml/xml_tree.h"
#include "uncertain/worlds.h"
#include "util/rng.h"

namespace tud {
namespace {

XmlTree RandomXml(Rng& rng, uint32_t num_nodes) {
  const char* labels[] = {"a", "b", "c"};
  XmlTree tree;
  tree.AddRoot(labels[rng.UniformInt(3)]);
  for (uint32_t i = 1; i < num_nodes; ++i) {
    XmlNodeId parent =
        static_cast<XmlNodeId>(rng.UniformInt(tree.NumNodes()));
    tree.AddChild(parent, labels[rng.UniformInt(3)]);
  }
  return tree;
}

int CountXmlLabel(const XmlTree& tree, const std::string& label) {
  int count = 0;
  for (XmlNodeId n = 0; n < tree.NumNodes(); ++n) {
    if (tree.label(n) == label) ++count;
  }
  return count;
}

TEST(FcnsTest, EncodingShape) {
  XmlTree tree;
  XmlNodeId root = tree.AddRoot("r");
  tree.AddChild(root, "a");
  tree.AddChild(root, "b");
  XmlLabelMap labels;
  BinaryTree bin = FcnsEncode(tree, labels);
  // 3 XML nodes + 4 nil leaves (a's child slot, b's child and sibling
  // slots, r's sibling slot... plus b's own child slot): exactly
  // 2 * #xml + 1 binary nodes.
  EXPECT_EQ(bin.NumNodes(), 2 * tree.NumNodes() + 1);
  // Root of the encoding carries the XML root's label.
  EXPECT_EQ(bin.label(bin.root()), labels.Find("r"));
  // Every internal node corresponds to an XML node (non-nil label).
  for (TreeNodeId n = 0; n < bin.NumNodes(); ++n) {
    EXPECT_EQ(bin.IsLeaf(n), bin.label(n) == XmlLabelMap::kNil);
  }
}

TEST(FcnsTest, LabelMapReservesNil) {
  XmlLabelMap labels;
  EXPECT_EQ(labels.Find("missing"), XmlLabelMap::kNil);
  Label a = labels.Intern("a");
  EXPECT_GT(a, 0u);
  EXPECT_EQ(labels.Intern("a"), a);
  EXPECT_EQ(labels.AlphabetSize(), 2u);
}

class FcnsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FcnsPropertyTest, ExistsLabelMatchesXmlCount) {
  Rng rng(GetParam());
  XmlTree tree = RandomXml(rng, 3 + rng.UniformInt(15));
  XmlLabelMap labels;
  BinaryTree bin = FcnsEncode(tree, labels);
  for (const char* name : {"a", "b", "c"}) {
    Label l = labels.Find(name);
    bool expected = CountXmlLabel(tree, name) > 0;
    if (l == XmlLabelMap::kNil) {
      EXPECT_FALSE(expected);
      continue;
    }
    TreeAutomaton automaton =
        MakeFcnsExistsLabel(labels.AlphabetSize(), l);
    EXPECT_EQ(automaton.Accepts(bin), expected) << name;
  }
}

TEST_P(FcnsPropertyTest, XmlDescendantAutomatonMatchesTreePattern) {
  Rng rng(GetParam() + 100);
  XmlTree tree = RandomXml(rng, 3 + rng.UniformInt(15));
  XmlLabelMap labels;
  Label la = labels.Intern("a");
  Label lb = labels.Intern("b");
  BinaryTree bin = FcnsEncode(tree, labels);
  TreeAutomaton automaton =
      MakeFcnsExistsBBelowA(labels.AlphabetSize(), la, lb);
  bool by_pattern = TreePattern::AncestorDescendant("a", "b").Matches(tree);
  EXPECT_EQ(automaton.Accepts(bin), by_pattern) << tree.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FcnsPropertyTest, ::testing::Range(0, 30));

// End-to-end with PrXML possible worlds: the automaton on the FCNS
// encoding of each world agrees with the pattern matcher on the world.
TEST(FcnsTest, AgreesAcrossPrXmlWorlds) {
  PrXmlDocument doc;
  EventId e = doc.events().Register("e", 0.5);
  PNodeId root = doc.AddRoot("a");
  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId mid = doc.AddChild(ind, PNodeKind::kOrdinary, "c");
  doc.SetEdgeProbability(mid, 0.5);
  doc.AddChild(mid, PNodeKind::kOrdinary, "b");
  PNodeId cie = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId other = doc.AddChild(cie, PNodeKind::kOrdinary, "b");
  doc.SetEdgeLiterals(other, {{e, false}});
  doc.Finalize();

  TreePattern pattern = TreePattern::AncestorDescendant("a", "b");
  ForEachWorld(doc.events(), [&](const Valuation& v, double p) {
    (void)p;
    XmlTree world = doc.World(v);
    XmlLabelMap labels;
    Label la = labels.Intern("a");
    Label lb = labels.Intern("b");
    BinaryTree bin = FcnsEncode(world, labels);
    TreeAutomaton automaton =
        MakeFcnsExistsBBelowA(labels.AlphabetSize(), la, lb);
    EXPECT_EQ(automaton.Accepts(bin), pattern.Matches(world));
  });
}

}  // namespace
}  // namespace tud

// ---------------------------------------------------------------------------
// The full §2.1 → §2.2 reduction: PrXML → uncertain tree → automaton
// provenance run → probability.
// ---------------------------------------------------------------------------

#include "automata/automaton_library.h"
#include "automata/provenance_run.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"
#include "prxml/pattern_eval.h"
#include "prxml/to_uncertain_tree.h"

namespace tud {
namespace {

PrXmlDocument SmallMixedDoc() {
  PrXmlDocument doc;
  EventId e = doc.events().Register("trust", 0.7);
  PNodeId root = doc.AddRoot("a");
  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId mid = doc.AddChild(ind, PNodeKind::kOrdinary, "c");
  doc.SetEdgeProbability(mid, 0.5);
  doc.AddChild(mid, PNodeKind::kOrdinary, "b");
  PNodeId mux = doc.AddChild(root, PNodeKind::kMux, "");
  PNodeId x = doc.AddChild(mux, PNodeKind::kOrdinary, "b");
  doc.SetEdgeProbability(x, 0.3);
  PNodeId y = doc.AddChild(mux, PNodeKind::kOrdinary, "c");
  doc.SetEdgeProbability(y, 0.4);
  PNodeId cie = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId z = doc.AddChild(cie, PNodeKind::kOrdinary, "b");
  doc.SetEdgeLiterals(z, {{e, true}});
  doc.Finalize();
  return doc;
}

TEST(PrXmlAutomatonTest, TranslationWorldsMatchDocumentWorlds) {
  PrXmlDocument doc = SmallMixedDoc();
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  ForEachWorld(doc.events(), [&](const Valuation& v, double p) {
    (void)p;
    ASSERT_TRUE(tree.IsWellFormedUnder(v));
    // Count live (non-dead, non-nil) labels in the uncertain tree's
    // world; must equal the document world's node count.
    BinaryTree world = tree.World(v);
    size_t live = 0;
    for (TreeNodeId n = 0; n < world.NumNodes(); ++n) {
      if (world.label(n) != dead && world.label(n) != XmlLabelMap::kNil) {
        ++live;
      }
    }
    EXPECT_EQ(live, doc.World(v).NumNodes());
  });
}

TEST(PrXmlAutomatonTest, AutomatonPipelineMatchesPatternLineage) {
  PrXmlDocument doc = SmallMixedDoc();
  // Query: some XML node labeled a has a strict XML descendant b.
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  Label la = labels.Find("a");
  Label lb = labels.Find("b");
  TreeAutomaton automaton =
      MakeFcnsExistsBBelowA(tree.AlphabetSize(), la, lb);
  GateId lineage = ProvenanceRun(automaton, tree);
  double by_automaton =
      ExhaustiveEngine().Estimate(tree.circuit(), lineage, doc.events()).value;

  PrXmlDocument doc2 = SmallMixedDoc();
  TreePattern pattern = TreePattern::AncestorDescendant("a", "b");
  GateId pattern_lineage = PatternLineage(pattern, doc2);
  double by_pattern = ExhaustiveEngine()
                          .Estimate(doc2.circuit(), pattern_lineage,
                                    doc2.events())
                          .value;
  EXPECT_NEAR(by_automaton, by_pattern, 1e-12);

  // And via the convenience wrapper with message passing.
  XmlLabelMap labels2;
  labels2.Intern("a");
  labels2.Intern("c");
  labels2.Intern("b");
  TreeAutomaton wide = MakeFcnsExistsBBelowA(labels2.AlphabetSize() + 1,
                                             labels2.Find("a"),
                                             labels2.Find("b"));
  EXPECT_NEAR(AutomatonProbability(wide, doc, labels2), by_pattern, 1e-12);
}

TEST(PrXmlAutomatonTest, CountingAutomatonOnUncertainTree) {
  PrXmlDocument doc = SmallMixedDoc();
  XmlLabelMap labels;
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(doc, labels, &dead);
  Label lb = labels.Find("b");
  // P(at least two b-nodes) via automaton == by enumeration.
  TreeAutomaton two_bs = MakeCountAtLeast(tree.AlphabetSize(), lb, 2);
  GateId lineage = ProvenanceRun(two_bs, tree);
  double by_automaton =
      ExhaustiveEngine().Estimate(tree.circuit(), lineage, doc.events()).value;
  double by_worlds = ProbabilityByEnumeration(
      doc.events(), [&](const Valuation& v) {
        XmlTree world = doc.World(v);
        int count = 0;
        for (XmlNodeId n = 0; n < world.NumNodes(); ++n) {
          if (world.label(n) == "b") ++count;
        }
        return count >= 2;
      });
  EXPECT_NEAR(by_automaton, by_worlds, 1e-12);
}

}  // namespace
}  // namespace tud

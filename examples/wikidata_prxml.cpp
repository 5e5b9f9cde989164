// The paper's Figure 1: the PrXML document for the Wikidata entry of
// Chelsea Manning, with local (ind/mux) uncertainty and a global event
// eJane expressing correlated trust in one contributor.
//
//   $ ./examples/wikidata_prxml

#include <cstdio>

#include "inference/conditioning.h"
#include "inference/engine.h"
#include "prxml/pattern_eval.h"
#include "prxml/prxml_document.h"
#include "prxml/tree_pattern.h"

int main() {
  using namespace tud;

  PrXmlDocument doc;
  EventId e_jane = doc.events().Register("eJane", 0.9);

  PNodeId root = doc.AddRoot("Q298423");

  PNodeId ind = doc.AddChild(root, PNodeKind::kInd, "");
  PNodeId occupation = doc.AddChild(ind, PNodeKind::kOrdinary, "occupation");
  doc.SetEdgeProbability(occupation, 0.4);
  doc.AddChild(occupation, PNodeKind::kOrdinary, "musician");

  PNodeId cie1 = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId pob = doc.AddChild(cie1, PNodeKind::kOrdinary, "place of birth");
  doc.SetEdgeLiterals(pob, {{e_jane, true}});
  doc.AddChild(pob, PNodeKind::kOrdinary, "Crescent");

  PNodeId cie2 = doc.AddChild(root, PNodeKind::kCie, "");
  PNodeId surname = doc.AddChild(cie2, PNodeKind::kOrdinary, "surname");
  doc.SetEdgeLiterals(surname, {{e_jane, true}});
  doc.AddChild(surname, PNodeKind::kOrdinary, "Manning");

  PNodeId given = doc.AddChild(root, PNodeKind::kOrdinary, "given name");
  PNodeId mux = doc.AddChild(given, PNodeKind::kMux, "");
  PNodeId bradley = doc.AddChild(mux, PNodeKind::kOrdinary, "Bradley");
  doc.SetEdgeProbability(bradley, 0.4);
  PNodeId chelsea = doc.AddChild(mux, PNodeKind::kOrdinary, "Chelsea");
  doc.SetEdgeProbability(chelsea, 0.6);

  doc.Finalize();

  std::printf("Figure 1 document: %zu nodes (%zu ordinary), %s, "
              "max event scope %zu\n\n",
              doc.NumNodes(), doc.NumOrdinaryNodes(),
              doc.IsLocal() ? "local" : "with global events",
              doc.MaxScopeSize());

  JunctionTreeEngine engine;
  auto prob = [&](const TreePattern& pattern) {
    // PatternLineage is non-const (it adds gates); doc is ours.
    GateId lineage = PatternLineage(pattern, doc);
    return engine.Estimate(doc.circuit(), lineage, doc.events()).value;
  };

  std::printf("P(//musician)        = %.3f   (ind edge, 0.4)\n",
              prob(TreePattern::LabelExists("musician")));
  std::printf("P(//Chelsea)         = %.3f   (mux branch, 0.6)\n",
              prob(TreePattern::LabelExists("Chelsea")));
  std::printf("P(//Bradley)         = %.3f   (mux branch, 0.4)\n",
              prob(TreePattern::LabelExists("Bradley")));
  std::printf("P(//Manning)         = %.3f   (eJane trusted, 0.9)\n",
              prob(TreePattern::LabelExists("Manning")));

  TreePattern both;
  PatternNodeId pr = both.AddRoot("Q298423");
  both.AddChild(pr, "surname", PatternAxis::kChild);
  both.AddChild(pr, "place of birth", PatternAxis::kChild);
  std::printf("P(surname AND place of birth) = %.3f   "
              "(correlated via eJane: 0.9, not 0.81)\n\n",
              prob(both));

  // Conditioning (§4): observe that the surname IS present — then the
  // place of birth is certain too, because both hang off eJane.
  GateId surname_lineage =
      PatternLineage(TreePattern::LabelExists("Manning"), doc);
  GateId pob_lineage =
      PatternLineage(TreePattern::LabelExists("Crescent"), doc);
  EngineResult conditioned = ConditionalProbability(
      doc.circuit(), pob_lineage, surname_lineage, doc.events());
  std::printf("P(place of birth | surname observed) = %.3f\n",
              conditioned.ok() ? conditioned.value : -1.0);
  return 0;
}

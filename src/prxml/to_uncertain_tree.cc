#include "prxml/to_uncertain_tree.h"

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "automata/provenance_run.h"
#include "inference/engine.h"
#include "util/check.h"

namespace tud {

namespace {

// Ordinary children of ordinary node v, each with the list of
// document-circuit edge-guard gates along the distributional chain.
void SkeletonChildren(const PrXmlDocument& doc, PNodeId node,
                      std::vector<GateId>& chain,
                      std::vector<std::pair<PNodeId, std::vector<GateId>>>&
                          out) {
  for (PNodeId c : doc.children(node)) {
    chain.push_back(doc.edge_guard(c));
    if (doc.kind(c) == PNodeKind::kOrdinary) {
      out.emplace_back(c, chain);
    } else {
      SkeletonChildren(doc, c, chain, out);
    }
    chain.pop_back();
  }
}

}  // namespace

UncertainBinaryTree PrXmlToUncertainTree(const PrXmlDocument& document,
                                         XmlLabelMap& labels,
                                         Label* dead_label) {
  TUD_CHECK(document.finalized());
  TUD_CHECK(dead_label != nullptr);
  *dead_label = labels.Intern("__dead__");

  UncertainBinaryTree tree;
  BoolCircuit& circuit = tree.circuit();
  std::vector<GateId> import_cache(document.circuit().NumGates(),
                                   kInvalidGate);
  const GateId always = circuit.AddConst(true);

  // Encodes the sibling chain `siblings[i..]` (each with its chain
  // guards), where `parent_guard` is the path guard (target circuit) of
  // the ordinary parent.
  std::function<TreeNodeId(
      const std::vector<std::pair<PNodeId, std::vector<GateId>>>&, size_t,
      GateId)>
      encode_list = [&](const std::vector<
                            std::pair<PNodeId, std::vector<GateId>>>&
                            siblings,
                        size_t i, GateId parent_guard) -> TreeNodeId {
    if (i >= siblings.size()) {
      return tree.AddLeaf({{XmlLabelMap::kNil, always}});
    }
    const auto& [node, chain] = siblings[i];
    // Path guard: parent guard AND the imported chain guards.
    std::vector<GateId> conj = {parent_guard};
    for (GateId g : chain) {
      conj.push_back(circuit.ImportCone(document.circuit(), g,
                                        &import_cache));
    }
    GateId guard = circuit.AddAnd(std::move(conj));
    std::vector<std::pair<PNodeId, std::vector<GateId>>> children;
    std::vector<GateId> scratch;
    SkeletonChildren(document, node, scratch, children);
    TreeNodeId left = encode_list(children, 0, guard);
    TreeNodeId right = encode_list(siblings, i + 1, parent_guard);
    Label label = labels.Intern(document.label(node));
    return tree.AddInternal(
        {{label, guard}, {*dead_label, circuit.AddNot(guard)}}, left,
        right);
  };

  std::vector<std::pair<PNodeId, std::vector<GateId>>> root_chain = {
      {0, {}}};
  encode_list(root_chain, 0, always);
  return tree;
}

double AutomatonProbability(const TreeAutomaton& automaton,
                            const PrXmlDocument& document,
                            XmlLabelMap& labels) {
  Label dead;
  UncertainBinaryTree tree = PrXmlToUncertainTree(document, labels, &dead);
  TUD_CHECK_LE(tree.AlphabetSize(), automaton.alphabet_size())
      << "automaton alphabet too small for the document's labels";
  // Lower to the compiled engine once; the forest run then streams
  // through the CSR tables.
  GateId lineage =
      ProvenanceRun(CompiledAutomaton::Compile(automaton), tree);
  const EngineResult result =
      JunctionTreeEngine().Estimate(tree.circuit(), lineage, document.events());
  return result.ok() ? result.value : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace tud

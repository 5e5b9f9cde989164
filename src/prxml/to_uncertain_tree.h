#ifndef TUD_PRXML_TO_UNCERTAIN_TREE_H_
#define TUD_PRXML_TO_UNCERTAIN_TREE_H_

#include "automata/tree_automaton.h"
#include "automata/uncertain_tree.h"
#include "prxml/fcns.h"
#include "prxml/prxml_document.h"

namespace tud {

/// The §2.1 → §2.2 reduction: rewriting a PrXML document into an
/// uncertain tree that automata can be run on symbolically ("these
/// formalisms can be rewritten to bounded-treewidth pcc-instances").
///
/// The translation takes the FCNS encoding of the document's *ordinary
/// skeleton* (distributional nodes contracted into edge guards) and
/// makes the labels uncertain: each encoded node carries two
/// alternatives — its real label, guarded by the conjunction of edge
/// guards on its root path, and the reserved `dead_label`, guarded by
/// the negation. Because guards accumulate along paths, the live nodes
/// of any world form a prefix-closed subtree, so the dead-label
/// encoding represents the world exactly (dead nodes simply never match
/// any query label). Nil leaves of the FCNS encoding are certain.
///
/// Combined with ProvenanceRun, this evaluates any automaton-definable
/// query on the document: lineage gates land in the returned tree's
/// circuit (guards are imported from the document's circuit).
///
/// `dead_label` is registered in `labels`; pass the result's
/// AlphabetSize() when building automata.
UncertainBinaryTree PrXmlToUncertainTree(const PrXmlDocument& document,
                                         XmlLabelMap& labels,
                                         Label* dead_label);

/// Convenience: probability that `automaton` accepts the document's
/// world, via the full §2.2 pipeline (translate, provenance-run,
/// message passing through JunctionTreeEngine). NaN when the lineage's
/// plan cannot be built (the engine's kResourceExhausted).
double AutomatonProbability(const TreeAutomaton& automaton,
                            const PrXmlDocument& document,
                            XmlLabelMap& labels);

}  // namespace tud

#endif  // TUD_PRXML_TO_UNCERTAIN_TREE_H_

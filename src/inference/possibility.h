#ifndef TUD_INFERENCE_POSSIBILITY_H_
#define TUD_INFERENCE_POSSIBILITY_H_

#include "circuits/bool_circuit.h"

namespace tud {

/// Possibility and certainty of lineage gates — the paper's two
/// non-probabilistic query-evaluation tasks ("determining query
/// possibility, certainty, or probability", §1).
///
/// Both are decided *exactly* by compiling the gate's cone to an ROBDD
/// (canonical form: satisfiable iff not the false terminal, valid iff
/// the true terminal). Exponential in the worst case like any
/// #SAT-complete task, but linear in the compiled size; on
/// bounded-treewidth lineages the junction-tree route (a
/// JunctionTreeEngine probability > 0 / == 1) gives the same answers
/// with a polynomial guarantee — tests cross-check the two.

/// True iff some valuation satisfies gate `root`.
bool IsSatisfiable(const BoolCircuit& circuit, GateId root);

/// True iff every valuation satisfies gate `root`.
bool IsValid(const BoolCircuit& circuit, GateId root);

}  // namespace tud

#endif  // TUD_INFERENCE_POSSIBILITY_H_

#ifndef TUD_QUERIES_CONJUNCTIVE_QUERY_H_
#define TUD_QUERIES_CONJUNCTIVE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/instance.h"

namespace tud {

/// Query variable id (dense, per query).
using VarId = uint32_t;

/// A term of a query atom: either a variable or a constant.
struct Term {
  bool is_var = true;
  VarId var = 0;
  Value constant = 0;

  static Term V(VarId v) { return Term{true, v, 0}; }
  static Term C(Value c) { return Term{false, 0, c}; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.is_var == b.is_var &&
           (a.is_var ? a.var == b.var : a.constant == b.constant);
  }
};

/// An atom R(t1, ..., tk) of a conjunctive query.
struct QueryAtom {
  RelationId relation = 0;
  std::vector<Term> terms;
};

/// A Boolean conjunctive query: ∃ x1...xn, conjunction of atoms. The
/// paper's running example is q : ∃xy R(x) S(x,y) T(y) — #P-hard on
/// arbitrary TIDs [19], tractable on bounded treewidth (Theorem 1).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  /// Adds an atom; terms must match the relation's arity at evaluation
  /// time.
  void AddAtom(RelationId relation, std::vector<Term> terms);

  size_t NumAtoms() const { return atoms_.size(); }
  const QueryAtom& atom(size_t i) const { return atoms_[i]; }
  const std::vector<QueryAtom>& atoms() const { return atoms_; }

  /// Largest variable id mentioned plus one.
  uint32_t NumVars() const { return num_vars_; }

  /// True iff every variable occurs in at least one atom (required by
  /// the lineage construction; violated only by degenerate queries).
  bool AllVarsOccur() const;

  /// Naive Boolean evaluation by backtracking join over the (certain)
  /// instance. Exponential in the query, polynomial in the data; this is
  /// the per-world ground truth for lineage tests.
  bool EvaluateBool(const Instance& instance) const;

  /// The paper's example query ∃xy R(x) S(x,y) T(y) over relations with
  /// the given ids.
  static ConjunctiveQuery RstPath(RelationId r, RelationId s, RelationId t);

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<QueryAtom> atoms_;
  uint32_t num_vars_ = 0;
};

/// A union of Boolean conjunctive queries (UCQ): holds iff some disjunct
/// holds.
class UnionOfConjunctiveQueries {
 public:
  UnionOfConjunctiveQueries() = default;
  explicit UnionOfConjunctiveQueries(std::vector<ConjunctiveQuery> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  void AddDisjunct(ConjunctiveQuery q) { disjuncts_.push_back(std::move(q)); }
  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }

  bool EvaluateBool(const Instance& instance) const;

 private:
  std::vector<ConjunctiveQuery> disjuncts_;
};

}  // namespace tud

#endif  // TUD_QUERIES_CONJUNCTIVE_QUERY_H_

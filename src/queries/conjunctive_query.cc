#include "queries/conjunctive_query.h"

#include <algorithm>

#include "util/check.h"

namespace tud {

void ConjunctiveQuery::AddAtom(RelationId relation, std::vector<Term> terms) {
  for (const Term& t : terms) {
    if (t.is_var) num_vars_ = std::max(num_vars_, t.var + 1);
  }
  atoms_.push_back(QueryAtom{relation, std::move(terms)});
}

bool ConjunctiveQuery::AllVarsOccur() const {
  std::vector<VarId> vars;
  for (const QueryAtom& atom : atoms_) {
    for (const Term& t : atom.terms) {
      if (t.is_var) vars.push_back(t.var);
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  // Ids 0..NumVars()-1 all occur iff there are NumVars() distinct ids
  // and the largest is NumVars()-1.
  return vars.size() == num_vars_ &&
         (vars.empty() || vars.back() + 1 == num_vars_);
}

namespace {

// Backtracking join: extend the partial assignment atom by atom.
bool Backtrack(const std::vector<QueryAtom>& atoms, size_t index,
               const Instance& instance, std::vector<Value>& assignment,
               std::vector<bool>& assigned) {
  if (index == atoms.size()) return true;
  const QueryAtom& atom = atoms[index];
  for (const Fact& fact : instance.facts()) {
    if (fact.relation != atom.relation) continue;
    if (fact.args.size() != atom.terms.size()) continue;
    // Try to unify the atom with this fact.
    std::vector<VarId> newly_bound;
    bool ok = true;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (!t.is_var) {
        if (t.constant != fact.args[i]) {
          ok = false;
          break;
        }
        continue;
      }
      if (assigned[t.var]) {
        if (assignment[t.var] != fact.args[i]) {
          ok = false;
          break;
        }
      } else {
        assigned[t.var] = true;
        assignment[t.var] = fact.args[i];
        newly_bound.push_back(t.var);
      }
    }
    if (ok && Backtrack(atoms, index + 1, instance, assignment, assigned)) {
      return true;
    }
    for (VarId v : newly_bound) assigned[v] = false;
  }
  return false;
}

}  // namespace

bool ConjunctiveQuery::EvaluateBool(const Instance& instance) const {
  std::vector<Value> assignment(num_vars_, 0);
  std::vector<bool> assigned(num_vars_, false);
  return Backtrack(atoms_, 0, instance, assignment, assigned);
}

ConjunctiveQuery ConjunctiveQuery::RstPath(RelationId r, RelationId s,
                                           RelationId t) {
  ConjunctiveQuery q;
  q.AddAtom(r, {Term::V(0)});
  q.AddAtom(s, {Term::V(0), Term::V(1)});
  q.AddAtom(t, {Term::V(1)});
  return q;
}

std::string ConjunctiveQuery::ToString(const Schema& schema) const {
  std::string out = "∃ ";
  for (VarId v = 0; v < num_vars_; ++v) {
    if (v > 0) out += ",";
    out += "x" + std::to_string(v);
  }
  out += ": ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " ∧ ";
    out += schema.name(atoms_[i].relation) + "(";
    for (size_t j = 0; j < atoms_[i].terms.size(); ++j) {
      if (j > 0) out += ",";
      const Term& t = atoms_[i].terms[j];
      out += t.is_var ? "x" + std::to_string(t.var)
                      : "#" + std::to_string(t.constant);
    }
    out += ")";
  }
  return out;
}

bool UnionOfConjunctiveQueries::EvaluateBool(const Instance& instance) const {
  for (const ConjunctiveQuery& q : disjuncts_) {
    if (q.EvaluateBool(instance)) return true;
  }
  return false;
}

}  // namespace tud

#include "circuits/bool_circuit.h"

#include <algorithm>

#include "util/check.h"

namespace tud {

namespace {

size_t HashGateKey(GateKind kind, EventId var, const GateId* inputs,
                   size_t num_inputs) {
  size_t h = static_cast<size_t>(kind) * 0x9e3779b97f4a7c15ULL;
  h ^= var + 0x9e3779b9 + (h << 6) + (h >> 2);
  for (size_t i = 0; i < num_inputs; ++i) {
    h ^= inputs[i] + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

size_t BoolCircuit::HashKeyHasher::operator()(const HashKey& key) const {
  return HashGateKey(key.kind, key.var, key.inputs.data(),
                     key.inputs.size());
}

size_t BoolCircuit::HashKeyHasher::operator()(const HashKeyView& key) const {
  return HashGateKey(key.kind, key.var, key.inputs, key.num_inputs);
}

bool BoolCircuit::HashKeyEq::operator()(const HashKey& a,
                                        const HashKey& b) const {
  return a.kind == b.kind && a.var == b.var && a.inputs == b.inputs;
}

bool BoolCircuit::HashKeyEq::operator()(const HashKeyView& a,
                                        const HashKey& b) const {
  return a.kind == b.kind && a.var == b.var &&
         std::equal(a.inputs, a.inputs + a.num_inputs, b.inputs.begin(),
                    b.inputs.end());
}

bool BoolCircuit::HashKeyEq::operator()(const HashKey& a,
                                        const HashKeyView& b) const {
  return operator()(b, a);
}

GateId BoolCircuit::AddGate(GateKind kind, bool const_value, EventId event,
                            std::vector<GateId> inputs) {
  GateId id = static_cast<GateId>(kinds_.size());
  // Append-only topological invariant: every input predates its reader.
  for (GateId in : inputs) TUD_DCHECK(in < id);
  kinds_.push_back(kind);
  const_values_.push_back(const_value);
  vars_.push_back(event);
  inputs_.push_back(std::move(inputs));
  return id;
}

void BoolCircuit::Reserve(size_t num_gates) {
  kinds_.reserve(num_gates);
  const_values_.reserve(num_gates);
  vars_.reserve(num_gates);
  inputs_.reserve(num_gates);
  cache_.reserve(num_gates);
}

GateId BoolCircuit::AddConst(bool value) {
  GateId& cached = value ? true_gate_ : false_gate_;
  if (cached == kInvalidGate) {
    cached = AddGate(GateKind::kConst, value, kInvalidEvent, {});
  }
  return cached;
}

GateId BoolCircuit::AddVar(EventId event) {
  TUD_CHECK_NE(event, kInvalidEvent);
  auto it = var_cache_.find(event);
  if (it != var_cache_.end()) return it->second;
  GateId id = AddGate(GateKind::kVar, false, event, {});
  var_cache_.emplace(event, id);
  num_events_ = std::max(num_events_, static_cast<size_t>(event) + 1);
  return id;
}

GateId BoolCircuit::AddNot(GateId input) {
  TUD_CHECK_LT(input, NumGates());
  if (kind(input) == GateKind::kConst) return AddConst(!const_value(input));
  if (kind(input) == GateKind::kNot) return inputs_[input][0];
  HashKey key{GateKind::kNot, kInvalidEvent, {input}};
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  GateId id = AddGate(GateKind::kNot, false, kInvalidEvent, {input});
  cache_.emplace(std::move(key), id);
  return id;
}

GateId BoolCircuit::AddNaryInPlace(GateKind op, std::vector<GateId>& inputs) {
  const bool is_and = op == GateKind::kAnd;
  // Const-fold and compact in place: no temporary set, no copy.
  size_t kept = 0;
  for (size_t r = 0; r < inputs.size(); ++r) {
    const GateId in = inputs[r];
    TUD_CHECK_LT(in, NumGates());
    if (kind(in) == GateKind::kConst) {
      // Absorbing constant (false for AND, true for OR) decides the gate.
      if (const_value(in) != is_and) return AddConst(!is_and);
      continue;  // Neutral constant: drop.
    }
    inputs[kept++] = in;
  }
  inputs.resize(kept);
  std::sort(inputs.begin(), inputs.end());
  inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
  if (inputs.empty()) return AddConst(is_and);
  if (inputs.size() == 1) return inputs[0];  // Passthrough fold.
  auto it = cache_.find(
      HashKeyView{op, kInvalidEvent, inputs.data(), inputs.size()});
  if (it != cache_.end()) return it->second;
  GateId id = AddGate(op, false, kInvalidEvent,
                      std::vector<GateId>(inputs.begin(), inputs.end()));
  cache_.emplace(HashKey{op, kInvalidEvent, inputs_[id]}, id);
  return id;
}

GateId BoolCircuit::RestoreGate(GateKind kind, bool const_value,
                                EventId event, std::vector<GateId> inputs) {
  GateId id = AddGate(kind, const_value, event, std::move(inputs));
  switch (kind) {
    case GateKind::kConst: {
      GateId& cached = const_value ? true_gate_ : false_gate_;
      if (cached == kInvalidGate) cached = id;
      break;
    }
    case GateKind::kVar:
      var_cache_.emplace(event, id);
      num_events_ = std::max(num_events_, static_cast<size_t>(event) + 1);
      break;
    case GateKind::kNot:
    case GateKind::kAnd:
    case GateKind::kOr:
      // emplace keeps the first id on a duplicate key, matching what the
      // original construction's cache held.
      cache_.emplace(HashKey{kind, event, inputs_[id]}, id);
      break;
  }
  return id;
}

GateId BoolCircuit::AddAnd(std::vector<GateId> inputs) {
  return AddNaryInPlace(GateKind::kAnd, inputs);
}

GateId BoolCircuit::AddOr(std::vector<GateId> inputs) {
  return AddNaryInPlace(GateKind::kOr, inputs);
}

GateId BoolCircuit::AddAndInPlace(std::vector<GateId>& scratch) {
  return AddNaryInPlace(GateKind::kAnd, scratch);
}

GateId BoolCircuit::AddOrInPlace(std::vector<GateId>& scratch) {
  return AddNaryInPlace(GateKind::kOr, scratch);
}

GateId BoolCircuit::AddFormula(const BoolFormula& formula) {
  switch (formula.kind()) {
    case BoolFormula::Kind::kConst:
      return AddConst(formula.const_value());
    case BoolFormula::Kind::kVar:
      return AddVar(formula.var());
    case BoolFormula::Kind::kNot:
      return AddNot(AddFormula(formula.children()[0]));
    case BoolFormula::Kind::kAnd:
    case BoolFormula::Kind::kOr: {
      std::vector<GateId> inputs;
      inputs.reserve(formula.children().size());
      for (const BoolFormula& child : formula.children()) {
        inputs.push_back(AddFormula(child));
      }
      return formula.kind() == BoolFormula::Kind::kAnd
                 ? AddAnd(std::move(inputs))
                 : AddOr(std::move(inputs));
    }
  }
  TUD_CHECK(false) << "unreachable";
  return kInvalidGate;
}

bool BoolCircuit::const_value(GateId g) const {
  TUD_CHECK(kind(g) == GateKind::kConst);
  return const_values_[g];
}

EventId BoolCircuit::var(GateId g) const {
  TUD_CHECK(kind(g) == GateKind::kVar);
  return vars_[g];
}

std::vector<bool> BoolCircuit::EvaluateAll(const Valuation& valuation) const {
  std::vector<bool> values(NumGates());
  for (GateId g = 0; g < NumGates(); ++g) {
    switch (kinds_[g]) {
      case GateKind::kConst:
        values[g] = const_values_[g];
        break;
      case GateKind::kVar:
        TUD_CHECK_LT(vars_[g], valuation.size());
        values[g] = valuation.value(vars_[g]);
        break;
      case GateKind::kNot:
        values[g] = !values[inputs_[g][0]];
        break;
      case GateKind::kAnd: {
        bool v = true;
        for (GateId in : inputs_[g]) v = v && values[in];
        values[g] = v;
        break;
      }
      case GateKind::kOr: {
        bool v = false;
        for (GateId in : inputs_[g]) v = v || values[in];
        values[g] = v;
        break;
      }
    }
  }
  return values;
}

bool BoolCircuit::Evaluate(GateId g, const Valuation& valuation) const {
  TUD_CHECK_LT(g, NumGates());
  return EvaluateAll(valuation)[g];
}

std::pair<BoolCircuit, std::vector<GateId>> BoolCircuit::Binarize() const {
  BoolCircuit out;
  out.Reserve(NumGates() + NumGates() / 4);
  std::vector<GateId> remap(NumGates(), kInvalidGate);
  for (GateId g = 0; g < NumGates(); ++g) {
    switch (kinds_[g]) {
      case GateKind::kConst:
        remap[g] = out.AddConst(const_values_[g]);
        break;
      case GateKind::kVar:
        remap[g] = out.AddVar(vars_[g]);
        break;
      case GateKind::kNot:
        remap[g] = out.AddNot(remap[inputs_[g][0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        // Balanced reduction tree over the remapped inputs.
        std::vector<GateId> level;
        level.reserve(inputs_[g].size());
        for (GateId in : inputs_[g]) level.push_back(remap[in]);
        while (level.size() > 1) {
          std::vector<GateId> next;
          next.reserve((level.size() + 1) / 2);
          for (size_t i = 0; i + 1 < level.size(); i += 2) {
            next.push_back(kinds_[g] == GateKind::kAnd
                               ? out.AddAnd(level[i], level[i + 1])
                               : out.AddOr(level[i], level[i + 1]));
          }
          if (level.size() % 2 == 1) next.push_back(level.back());
          level = std::move(next);
        }
        remap[g] = level.empty()
                       ? out.AddConst(kinds_[g] == GateKind::kAnd)
                       : level[0];
        break;
      }
    }
  }
  return {std::move(out), std::move(remap)};
}

std::vector<std::pair<GateId, GateId>> BoolCircuit::PrimalEdges() const {
  std::vector<std::pair<GateId, GateId>> edges;
  for (GateId g = 0; g < NumGates(); ++g) {
    const std::vector<GateId>& ins = inputs_[g];
    for (size_t i = 0; i < ins.size(); ++i) {
      edges.emplace_back(std::min(ins[i], g), std::max(ins[i], g));
      for (size_t j = i + 1; j < ins.size(); ++j) {
        edges.emplace_back(std::min(ins[i], ins[j]),
                           std::max(ins[i], ins[j]));
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<GateId> BoolCircuit::ReachableFrom(GateId root) const {
  TUD_CHECK_LT(root, NumGates());
  std::vector<bool> seen(NumGates(), false);
  std::vector<GateId> stack = {root};
  seen[root] = true;
  while (!stack.empty()) {
    GateId g = stack.back();
    stack.pop_back();
    for (GateId in : inputs_[g]) {
      if (!seen[in]) {
        seen[in] = true;
        stack.push_back(in);
      }
    }
  }
  std::vector<GateId> result;
  for (GateId g = 0; g < NumGates(); ++g) {
    if (seen[g]) result.push_back(g);
  }
  return result;
}

std::pair<BoolCircuit, GateId> BoolCircuit::ExtractCone(GateId root) const {
  std::vector<GateId> reachable = ReachableFrom(root);
  BoolCircuit out;
  out.Reserve(reachable.size());
  std::vector<GateId> remap(NumGates(), kInvalidGate);
  for (GateId g : reachable) {
    switch (kinds_[g]) {
      case GateKind::kConst:
        remap[g] = out.AddConst(const_values_[g]);
        break;
      case GateKind::kVar:
        remap[g] = out.AddVar(vars_[g]);
        break;
      case GateKind::kNot:
        remap[g] = out.AddNot(remap[inputs_[g][0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        std::vector<GateId> ins;
        ins.reserve(inputs_[g].size());
        for (GateId in : inputs_[g]) ins.push_back(remap[in]);
        remap[g] = kinds_[g] == GateKind::kAnd ? out.AddAnd(std::move(ins))
                                               : out.AddOr(std::move(ins));
        break;
      }
    }
  }
  return {std::move(out), remap[root]};
}

GateId BoolCircuit::ImportCone(const BoolCircuit& source, GateId root,
                               std::vector<GateId>* cache) {
  TUD_CHECK(cache != nullptr);
  TUD_CHECK_EQ(cache->size(), source.NumGates());
  if ((*cache)[root] != kInvalidGate) return (*cache)[root];
  for (GateId g : source.ReachableFrom(root)) {
    if ((*cache)[g] != kInvalidGate) continue;
    switch (source.kind(g)) {
      case GateKind::kConst:
        (*cache)[g] = AddConst(source.const_value(g));
        break;
      case GateKind::kVar:
        (*cache)[g] = AddVar(source.var(g));
        break;
      case GateKind::kNot:
        (*cache)[g] = AddNot((*cache)[source.inputs(g)[0]]);
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        std::vector<GateId> ins;
        ins.reserve(source.inputs(g).size());
        for (GateId in : source.inputs(g)) ins.push_back((*cache)[in]);
        (*cache)[g] = source.kind(g) == GateKind::kAnd
                          ? AddAnd(std::move(ins))
                          : AddOr(std::move(ins));
        break;
      }
    }
  }
  return (*cache)[root];
}

bool BoolCircuit::IsMonotone(GateId root) const {
  for (GateId g : ReachableFrom(root)) {
    if (kinds_[g] == GateKind::kNot) return false;
  }
  return true;
}

std::string BoolCircuit::ToString(const EventRegistry& registry) const {
  std::string out;
  for (GateId g = 0; g < NumGates(); ++g) {
    out += "g" + std::to_string(g) + " = ";
    switch (kinds_[g]) {
      case GateKind::kConst:
        out += const_values_[g] ? "TRUE" : "FALSE";
        break;
      case GateKind::kVar:
        out += "var(" + registry.name(vars_[g]) + ")";
        break;
      case GateKind::kNot:
        out += "not(g" + std::to_string(inputs_[g][0]) + ")";
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        out += kinds_[g] == GateKind::kAnd ? "and(" : "or(";
        for (size_t i = 0; i < inputs_[g].size(); ++i) {
          if (i > 0) out += ", ";
          out += "g" + std::to_string(inputs_[g][i]);
        }
        out += ")";
        break;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace tud

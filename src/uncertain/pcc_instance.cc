#include "uncertain/pcc_instance.h"

#include "uncertain/c_instance.h"
#include "util/check.h"

namespace tud {

FactId PccInstance::AddFact(RelationId relation, std::vector<Value> args,
                            GateId annotation) {
  TUD_CHECK_LT(annotation, circuit_.NumGates());
  FactId id = instance_.AddFact(relation, std::move(args));
  annotations_.push_back(annotation);
  return id;
}

GateId PccInstance::annotation(FactId f) const {
  TUD_CHECK_LT(f, annotations_.size());
  return annotations_[f];
}

PccInstance PccInstance::FromCInstance(const CInstance& ci) {
  PccInstance pcc(ci.instance().schema());
  // Copy the event registry (names and probabilities).
  for (EventId e = 0; e < ci.events().size(); ++e) {
    pcc.events().Register(ci.events().name(e), ci.events().probability(e));
  }
  for (FactId f = 0; f < ci.NumFacts(); ++f) {
    GateId gate = pcc.circuit().AddFormula(ci.annotation(f));
    pcc.AddFact(ci.instance().fact(f).relation, ci.instance().fact(f).args,
                gate);
  }
  return pcc;
}

Instance PccInstance::World(const Valuation& valuation) const {
  std::vector<bool> gate_values = circuit_.EvaluateAll(valuation);
  Instance world(instance_.schema());
  for (FactId f = 0; f < instance_.NumFacts(); ++f) {
    if (gate_values[annotations_[f]]) {
      world.AddFact(instance_.fact(f).relation, instance_.fact(f).args);
    }
  }
  return world;
}

VertexId PccInstance::GateVertex(GateId g) const {
  return static_cast<VertexId>(instance_.DomainSize() + g);
}

Graph PccInstance::JointPrimalGraph() const {
  const uint32_t num_vertices = static_cast<uint32_t>(
      instance_.DomainSize() + circuit_.NumGates());
  std::vector<std::pair<VertexId, VertexId>> edges = instance_.GaifmanEdges();
  for (const auto& [a, b] : circuit_.PrimalEdges()) {
    edges.emplace_back(GateVertex(a), GateVertex(b));
  }
  for (FactId f = 0; f < instance_.NumFacts(); ++f) {
    VertexId gate_vertex = GateVertex(annotations_[f]);
    for (Value v : instance_.fact(f).args) {
      edges.emplace_back(v, gate_vertex);
    }
  }
  return Graph::FromEdges(num_vertices, edges);
}

}  // namespace tud

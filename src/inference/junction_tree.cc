#include "inference/junction_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "inference/index_steps.h"
#include "treedec/elimination.h"
#include "treedec/tree_decomposition.h"
#include "util/check.h"

namespace tud {

namespace {

// Static tables for the binarised gate factors. Index bit 0 is the gate
// output, bits 1.. its inputs (scope order).
constexpr double kNotTable[4] = {0, 1, 1, 0};
constexpr double kAndTable[8] = {1, 0, 1, 0, 1, 0, 0, 1};
constexpr double kOrTable[8] = {1, 0, 0, 1, 0, 1, 0, 1};
constexpr double kTrueTable[2] = {0, 1};
constexpr double kFalseTable[2] = {1, 0};

size_t BitOf(const std::vector<VertexId>& bag, VertexId v) {
  auto it = std::lower_bound(bag.begin(), bag.end(), v);
  TUD_CHECK(it != bag.end() && *it == v);
  return static_cast<size_t>(it - bag.begin());
}

// Bags at most this large get their constant gate factors pre-fused
// into one static table / their index maps expanded into gather tables;
// beyond it the 2^k precomputation would not pay for itself (such bags
// only exist when even min-fill came out wide) and the IndexSteps
// sweeps over raw bit positions run instead. Mutable only through the
// SetKernelThresholdsForTest hook.
int g_fuse_max_k = 16;
int g_gather_max_k = 16;

// Pool totals (static cells, gather cells, bit positions) at or above
// this limit would wrap the plan's 32-bit offsets. Mutable only through
// the SetOffsetLimitForTest hook.
constexpr size_t kDefaultOffsetLimit = UINT32_MAX;
size_t g_offset_limit = kDefaultOffsetLimit;

}  // namespace

// ---------------------------------------------------------------------------
// JunctionTreeAnalysis
// ---------------------------------------------------------------------------

JunctionTreeAnalysis JunctionTreeAnalysis::Analyze(const BoolCircuit& circuit,
                                                   GateId root) {
  return AnalyzeBatch(circuit, std::vector<GateId>{root});
}

JunctionTreeAnalysis JunctionTreeAnalysis::AnalyzeBatch(
    const BoolCircuit& circuit, const std::vector<GateId>& roots) {
  TUD_CHECK(!roots.empty());
  JunctionTreeAnalysis a;

  // Work on the binarised union cone of the roots.
  auto [cone, cone_roots] = circuit.ExtractCones(roots);
  auto [bin, remap] = cone.Binarize();
  a.roots_.reserve(roots.size());
  for (GateId r : cone_roots) a.roots_.push_back(remap[r]);

  // Dense vertex ids for the gates reachable from any non-constant
  // root (binarisation folds constants, which can orphan gates).
  std::vector<bool> seen(bin.NumGates(), false);
  std::vector<GateId> stack;
  for (GateId r : a.roots_) {
    if (bin.kind(r) == GateKind::kConst) continue;
    if (!seen[r]) {
      seen[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    GateId g = stack.back();
    stack.pop_back();
    for (GateId in : bin.inputs(g)) {
      if (!seen[in]) {
        seen[in] = true;
        stack.push_back(in);
      }
    }
  }
  a.vertex_of_.assign(bin.NumGates(), UINT32_MAX);
  for (GateId g = 0; g < bin.NumGates(); ++g) {
    if (seen[g]) {
      a.vertex_of_[g] = static_cast<VertexId>(a.gates_.size());
      a.gates_.push_back(g);
    }
  }

  // Primal graph: a clique per gate scope ({gate} and its inputs) —
  // identical to the cliques of the factor scopes the plan assigns to
  // bags (the root-indicator factor is unary and adds no edges).
  a.graph_ = Graph(static_cast<uint32_t>(a.gates_.size()));
  for (VertexId v = 0; v < a.gates_.size(); ++v) {
    const GateId g = a.gates_[v];
    const std::vector<GateId>& ins = bin.inputs(g);
    for (size_t i = 0; i < ins.size(); ++i) {
      const VertexId vi = a.vertex_of_[ins[i]];
      a.graph_.AddEdge(v, vi);
      for (size_t j = i + 1; j < ins.size(); ++j) {
        a.graph_.AddEdge(vi, a.vertex_of_[ins[j]]);
      }
    }
  }
  a.bin_ = std::move(bin);
  return a;
}

int JunctionTreeAnalysis::MinDegreeWidth() {
  if (!has_min_degree_) {
    md_order_ = CircuitMinDegreeOrder(graph_);
    md_width_ = static_cast<int>(
        EliminationWidthAndCost(graph_, md_order_, &md_cost_));
    has_min_degree_ = true;
  }
  return md_width_;
}

double JunctionTreeAnalysis::TableCost() {
  if (trivial()) return 0;
  MinDegreeWidth();  // Computes and caches md_cost_ alongside the width.
  return md_cost_;
}

// ---------------------------------------------------------------------------
// Build: lower every bag to a flat program
// ---------------------------------------------------------------------------

JunctionTreePlan JunctionTreePlan::Build(const BoolCircuit& circuit,
                                         GateId root,
                                         const QueryBudget& budget) {
  return BuildImpl(JunctionTreeAnalysis::Analyze(circuit, root),
                   /*batch=*/false, budget);
}

JunctionTreePlan JunctionTreePlan::Build(JunctionTreeAnalysis analysis,
                                         const QueryBudget& budget) {
  TUD_CHECK_EQ(analysis.roots_.size(), 1u)
      << "single-root Build from a batch analysis; use BuildBatch";
  return BuildImpl(std::move(analysis), /*batch=*/false, budget);
}

JunctionTreePlan JunctionTreePlan::BuildBatch(const BoolCircuit& circuit,
                                              const std::vector<GateId>& roots,
                                              const QueryBudget& budget) {
  return BuildImpl(JunctionTreeAnalysis::AnalyzeBatch(circuit, roots),
                   /*batch=*/true, budget);
}

JunctionTreePlan JunctionTreePlan::BuildBatch(JunctionTreeAnalysis analysis,
                                              const QueryBudget& budget) {
  return BuildImpl(std::move(analysis), /*batch=*/true, budget);
}

JunctionTreePlan JunctionTreePlan::BuildImpl(JunctionTreeAnalysis a,
                                             bool batch,
                                             const QueryBudget& budget) {
  JunctionTreePlan plan;
  plan.batch_ = batch;
  const BoolCircuit& bin = a.bin_;

  if (batch) {
    plan.query_roots_.resize(a.roots_.size());
    for (size_t i = 0; i < a.roots_.size(); ++i) {
      if (bin.kind(a.roots_[i]) == GateKind::kConst) {
        plan.query_roots_[i].trivial_value =
            bin.const_value(a.roots_[i]) ? 1 : 0;
      }
    }
  }
  if (a.trivial()) {
    plan.trivial_ = true;
    if (!batch) {
      plan.trivial_value_ = bin.const_value(a.roots_[0]) ? 1.0 : 0.0;
      plan.num_gates_ = 1;
    }
    return plan;
  }

  const uint32_t n = static_cast<uint32_t>(a.gates_.size());
  plan.num_gates_ = n;

  // 1. Factors: one per gate, plus (single-root plans) the root-is-true
  // evidence indicator. Scope bit 0 is the gate output, bits 1.. its
  // inputs.
  struct TmpFactor {
    const double* table;  ///< Static gate table; nullptr = variable.
    EventId event;        ///< Variable factors only.
    std::vector<VertexId> scope;
  };
  std::vector<TmpFactor> factors;
  factors.reserve(n + 1);
  for (VertexId v = 0; v < n; ++v) {
    const GateId g = a.gates_[v];
    TmpFactor f{nullptr, 0, {v}};
    switch (bin.kind(g)) {
      case GateKind::kConst:
        f.table = bin.const_value(g) ? kTrueTable : kFalseTable;
        break;
      case GateKind::kVar:
        f.event = bin.var(g);
        break;
      case GateKind::kNot:
        TUD_CHECK_EQ(bin.inputs(g).size(), 1u);
        f.scope.push_back(a.vertex_of_[bin.inputs(g)[0]]);
        f.table = kNotTable;
        break;
      case GateKind::kAnd:
      case GateKind::kOr:
        TUD_CHECK_EQ(bin.inputs(g).size(), 2u)
            << "gate fan-in must be binarised first";
        for (GateId in : bin.inputs(g)) {
          f.scope.push_back(a.vertex_of_[in]);
        }
        f.table = bin.kind(g) == GateKind::kAnd ? kAndTable : kOrTable;
        break;
    }
    factors.push_back(std::move(f));
  }
  if (!batch) {
    factors.push_back(TmpFactor{kTrueTable, 0, {a.vertex_of_[a.roots_[0]]}});
  }

  // 2. Tree decomposition: the analysis's O(1)-per-operation bucket
  // min-degree order — on circuit primal graphs it matches min-fill's
  // width at a fraction of the cost — and only when that comes out wide
  // (where an extra unit of width doubles every message table) pay for
  // min-fill and keep the narrower.
  constexpr int kAcceptWidth = 10;
  a.MinDegreeWidth();  // Ensures the cached min-degree order.
  std::vector<VertexId> order = std::move(a.md_order_);
  std::vector<BagId> bag_of_vertex;
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(a.graph_, order, &bag_of_vertex);
  if (td.Width() > kAcceptWidth) {
    std::vector<VertexId> fill_order = PeeledMinFillOrder(a.graph_);
    std::vector<BagId> fill_bag_of;
    TreeDecomposition fill_td = TreeDecomposition::FromEliminationOrder(
        a.graph_, fill_order, &fill_bag_of);
    if (fill_td.Width() < td.Width()) {
      order = std::move(fill_order);
      td = std::move(fill_td);
      bag_of_vertex = std::move(fill_bag_of);
    }
  }
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[order[i]] = i;
  plan.width_ = td.Width();

  // Admission: everything below lowers the decomposition into 2^|bag|
  // tables, so the refusals happen *here*, before a single table cell
  // is allocated. A too-wide decomposition is an intrinsic failure
  // (kResourceExhausted, cacheable as a negative entry); a cell cap or
  // deadline/cancellation from the caller's budget marks the plan
  // budget-limited so caches know not to publish it.
  for (BagId b = 0; b < td.NumBags(); ++b) {
    // ldexp, not a shift: bags of a rejected-width decomposition can
    // exceed 63 vertices.
    plan.total_cells_ += std::ldexp(1.0, static_cast<int>(td.bag(b).size()));
  }
  if (td.Width() > 25) {
    plan.build_status_ = EngineStatus::kResourceExhausted;
    return plan;
  }
  const EngineStatus admitted =
      Admit(budget, (batch ? 2.0 : 1.0) * plan.total_cells_);
  if (admitted != EngineStatus::kOk) {
    plan.build_status_ = admitted;
    plan.build_limited_by_budget_ = true;
    return plan;
  }

  // 3. Assign each factor to the bag of the earliest-eliminated vertex
  // of its scope (that bag contains the whole scope: the scope is a
  // clique).
  const size_t num_bags = td.NumBags();
  std::vector<std::vector<uint32_t>> bag_factors(num_bags);
  for (uint32_t fi = 0; fi < factors.size(); ++fi) {
    const std::vector<VertexId>& scope = factors[fi].scope;
    VertexId earliest = scope[0];
    for (VertexId v : scope) {
      if (position[v] < position[earliest]) earliest = v;
    }
    bag_factors[bag_of_vertex[earliest]].push_back(fi);
  }

  // Decompositions from elimination orders have one bag per vertex, and
  // the separator towards the parent is exactly bag(v) \ {v}; knowing
  // each bag's defining vertex removes the set intersections from the
  // message pass.
  std::vector<VertexId> vertex_of_bag(num_bags, UINT32_MAX);
  for (VertexId v = 0; v < n; ++v) vertex_of_bag[bag_of_vertex[v]] = v;

  // 4. Lower each bag to its flat program: pre-fused static table,
  // variable-factor bit positions, child-message and marginalisation
  // index maps (gather tables plus the raw bit positions as fallback).
  // Every pool is sized exactly from the bag sizes and child counts
  // first, so the loop below writes through precomputed offsets and no
  // table grows by doubling: a fused bag owns 2^k static cells, a bag
  // at most g_gather_max_k wide owns 2^k gather cells per child edge
  // and one more for its marginalisation, and every separator (the
  // child bag minus its defining vertex) stores k_child - 1 bit
  // positions at both of its ends.
  size_t static_cells = 0, gather_cells = 0, pool_bits = 0;
  size_t num_var_factors = 0, num_static_factors = 0;
  for (BagId b = 0; b < num_bags; ++b) {
    const size_t k = td.bag(b).size();
    const size_t cells = size_t{1} << k;
    const bool is_root = td.parent(b) == kInvalidBag;
    for (uint32_t fi : bag_factors[b]) {
      if (factors[fi].table == nullptr) {
        ++num_var_factors;
      } else if (static_cast<int>(k) > g_fuse_max_k) {
        ++num_static_factors;
        pool_bits += factors[fi].scope.size();
      }
    }
    if (static_cast<int>(k) <= g_fuse_max_k) static_cells += cells;
    if (static_cast<int>(k) <= g_gather_max_k) {
      gather_cells += cells * (td.children(b).size() + (is_root ? 0 : 1));
    }
    for (BagId c : td.children(b)) pool_bits += td.bag(c).size() - 1;
    if (!is_root) pool_bits += k - 1;
  }
  // Static, gather and bit offsets are 32-bit with UINT32_MAX (kNone)
  // as the "absent" sentinel, like the arena offsets checked in step 6:
  // a plan whose pools would not fit is refused with a typed status
  // before anything is allocated, never built with wrapped offsets.
  if (static_cells >= g_offset_limit || gather_cells >= g_offset_limit ||
      pool_bits >= g_offset_limit) {
    plan.build_status_ = EngineStatus::kResourceExhausted;
    return plan;
  }
  plan.static_.assign(static_cells, 1.0);
  plan.gather_.resize(gather_cells);
  plan.bit_pool_.resize(pool_bits);
  plan.var_factors_.reserve(num_var_factors);
  plan.var_factor_bag_.reserve(num_var_factors);
  plan.static_factors_.reserve(num_static_factors);
  plan.children_.reserve(num_bags - 1);
  uint32_t static_next = 0, gather_next = 0, pool_next = 0;

  // Expands the index map of `bits` over a 2^k-cell bag into the next
  // gather table.
  auto make_gather = [&plan, &gather_next](const uint8_t* bits,
                                           uint32_t count, uint32_t k) {
    const uint32_t off = gather_next;
    uint32_t* map = plan.gather_.data() + off;
    IndexSteps(bits, count).Fill(size_t{1} << k, map);
    gather_next += uint32_t{1} << k;
    return off;
  };

  plan.bags_.assign(num_bags, Bag{});
  for (BagId b = 0; b < num_bags; ++b) {
    Bag& bag = plan.bags_[b];
    const std::vector<VertexId>& members = td.bag(b);
    bag.k = static_cast<uint8_t>(members.size());
    bag.is_root = td.parent(b) == kInvalidBag;
    plan.max_k_ = std::max<uint32_t>(plan.max_k_, bag.k);
    const size_t size = size_t{1} << bag.k;

    // Variable factors and static factors of this bag. The constant
    // gate factors are pre-fused into one static table so Execute only
    // multiplies variable factors and messages in; wide bags keep them
    // as separate factors over their bit positions instead.
    const bool fuse = bag.k <= g_fuse_max_k;
    double* st = nullptr;
    if (fuse) {
      bag.static_off = static_next;
      st = plan.static_.data() + static_next;
      static_next += static_cast<uint32_t>(size);
    } else {
      bag.sfac_begin = static_cast<uint32_t>(plan.static_factors_.size());
    }
    bag.var_begin = static_cast<uint32_t>(plan.var_factors_.size());
    for (uint32_t fi : bag_factors[b]) {
      const TmpFactor& f = factors[fi];
      if (f.table == nullptr) {
        plan.var_factors_.push_back(VarFactor{
            f.event, static_cast<uint32_t>(BitOf(members, f.scope[0]))});
        plan.var_factor_bag_.push_back(b);
        plan.num_events_ =
            std::max<size_t>(plan.num_events_, size_t{f.event} + 1);
        continue;
      }
      uint8_t local[3];  // Gate scopes: output plus at most two inputs.
      TUD_CHECK_LE(f.scope.size(), 3u);
      uint8_t* bits = fuse ? local : plan.bit_pool_.data() + pool_next;
      for (size_t i = 0; i < f.scope.size(); ++i) {
        bits[i] = static_cast<uint8_t>(BitOf(members, f.scope[i]));
      }
      if (fuse) {
        const double* table = f.table;
        IndexSteps(bits, f.scope.size())
            .ForEach(size, [st, table](size_t idx, uint32_t fidx) {
              st[idx] *= table[fidx];
            });
      } else {
        plan.static_factors_.push_back(StaticFactor{
            f.table, pool_next, static_cast<uint32_t>(f.scope.size())});
        pool_next += static_cast<uint32_t>(f.scope.size());
      }
    }
    bag.var_end = static_cast<uint32_t>(plan.var_factors_.size());
    if (!fuse) {
      bag.sfac_end = static_cast<uint32_t>(plan.static_factors_.size());
    }

    // Child messages: each message is over the child's separator, whose
    // members all live in this bag.
    bag.child_begin = static_cast<uint32_t>(plan.children_.size());
    for (BagId c : td.children(b)) {
      ChildEdge edge{c, kNone, kNone, pool_next, 0};
      const VertexId child_vertex = vertex_of_bag[c];
      uint8_t* bits = plan.bit_pool_.data() + pool_next;
      for (VertexId v : td.bag(c)) {
        if (v != child_vertex) {
          TUD_CHECK_LT(edge.bits_count + 1, td.bag(c).size());
          bits[edge.bits_count++] = static_cast<uint8_t>(BitOf(members, v));
        }
      }
      pool_next += edge.bits_count;
      if (bag.k <= g_gather_max_k) {
        edge.gather = make_gather(bits, edge.bits_count, bag.k);
      }
      plan.children_.push_back(edge);
    }
    bag.child_end = static_cast<uint32_t>(plan.children_.size());

    // Marginalisation towards the parent: sum out this bag's defining
    // vertex.
    if (!bag.is_root) {
      const VertexId own_vertex = vertex_of_bag[b];
      bag.out_bits_begin = pool_next;
      uint8_t* bits = plan.bit_pool_.data() + pool_next;
      for (size_t i = 0; i < members.size(); ++i) {
        if (members[i] != own_vertex) {
          TUD_CHECK_LT(bag.out_count + 1, members.size());
          bits[bag.out_count++] = static_cast<uint8_t>(i);
        }
      }
      pool_next += bag.out_count;
      if (bag.k <= g_gather_max_k) {
        bag.out_gather = make_gather(bits, bag.out_count, bag.k);
      }
    }
  }
  TUD_CHECK(static_next == static_cells && gather_next == gather_cells &&
            pool_next == pool_bits)
      << "plan pools not sized exactly";

  // The rootward path index ExecuteDelta walks: bag -> parent bag id.
  plan.parent_of_.assign(num_bags, kNone);
  for (BagId b = 0; b < num_bags; ++b) {
    if (td.parent(b) != kInvalidBag) {
      plan.parent_of_[b] = static_cast<uint32_t>(td.parent(b));
    }
  }

  // 5. Batch plans: locate each root's query bag and prune the downward
  // pass to the subtrees that contain one.
  std::vector<bool> is_query_bag(num_bags, false);
  if (batch) {
    for (size_t i = 0; i < a.roots_.size(); ++i) {
      QueryRoot& qr = plan.query_roots_[i];
      if (qr.trivial_value >= 0) continue;
      const VertexId v = a.vertex_of_[a.roots_[i]];
      qr.bag = bag_of_vertex[v];
      qr.bit = static_cast<uint32_t>(BitOf(td.bag(qr.bag), v));
      is_query_bag[qr.bag] = true;
    }
    // Children have larger bag ids than parents, so descending id order
    // visits children first.
    for (uint32_t b = static_cast<uint32_t>(num_bags); b-- > 0;) {
      Bag& bag = plan.bags_[b];
      bag.subtree_has_query = is_query_bag[b];
      for (uint32_t ce = bag.child_begin; ce != bag.child_end; ++ce) {
        bag.subtree_has_query = bag.subtree_has_query ||
                                plan.bags_[plan.children_[ce].child]
                                    .subtree_has_query;
      }
    }
  }

  // 6. Arena layout, sized once per plan: resolved variable-factor
  // values, every message slot (and, for batch plans, downward messages
  // and kept query-bag tables), then the scratch table region.
  plan.vals_off_ = 0;
  size_t off = 2 * plan.var_factors_.size();
  for (BagId b = 0; b < num_bags; ++b) {
    Bag& bag = plan.bags_[b];
    if (!bag.is_root) {
      bag.up_off = static_cast<uint32_t>(off);
      off += size_t{1} << bag.out_count;
    }
  }
  if (batch) {
    for (BagId b = 0; b < num_bags; ++b) {
      Bag& bag = plan.bags_[b];
      if (bag.subtree_has_query && !bag.is_root) {
        bag.down_off = static_cast<uint32_t>(off);
        off += size_t{1} << bag.out_count;
      }
      if (is_query_bag[b]) {
        bag.table_off = static_cast<uint32_t>(off);
        off += size_t{1} << bag.k;
      }
    }
  }
  plan.scratch_off_ = off;
  off += (batch ? 2 : 1) * (size_t{1} << plan.max_k_);
  plan.arena_size_ = off;
  TUD_CHECK_LT(plan.arena_size_, size_t{UINT32_MAX})
      << "plan arena too large for 32-bit offsets";

  // Child edges read their message slot through a cached offset.
  for (ChildEdge& edge : plan.children_) {
    edge.msg_off = plan.bags_[edge.child].up_off;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Execute kernels
// ---------------------------------------------------------------------------

void JunctionTreePlan::ComputeBagTable(const Bag& bag, const double* vals,
                                       const double* arena,
                                       double* table) const {
  ComputeBagBase(bag, vals, table);
  for (uint32_t ce = bag.child_begin; ce != bag.child_end; ++ce) {
    MultiplyChild(bag, children_[ce], arena, table);
  }
}

void JunctionTreePlan::ComputeBagBase(const Bag& bag, const double* vals,
                                      double* table) const {
  const size_t size = size_t{1} << bag.k;
  if (bag.static_off != kNone) {
    std::memcpy(table, static_.data() + bag.static_off,
                size * sizeof(double));
  } else {
    std::fill_n(table, size, 1.0);
    for (uint32_t si = bag.sfac_begin; si != bag.sfac_end; ++si) {
      const StaticFactor& sf = static_factors_[si];
      const double* factor = sf.table;
      IndexSteps(bit_pool_.data() + sf.bits_begin, sf.bits_count)
          .ForEach(size, [table, factor](size_t i, uint32_t fidx) {
            table[i] *= factor[fidx];
          });
    }
  }
  for (uint32_t vf = bag.var_begin; vf != bag.var_end; ++vf) {
    const uint32_t bit = var_factors_[vf].bit;
    const double v0 = vals[2 * vf];
    const double v1 = vals[2 * vf + 1];
    for (size_t i = 0; i < size; ++i) {
      table[i] *= ((i >> bit) & 1) != 0 ? v1 : v0;
    }
  }
}

void JunctionTreePlan::MarginalizeOut(const Bag& bag, const double* table,
                                      double* out) const {
  const size_t size = size_t{1} << bag.k;
  std::fill_n(out, size_t{1} << bag.out_count, 0.0);
  if (bag.out_gather != kNone) {
    const uint32_t* map = gather_.data() + bag.out_gather;
    for (size_t i = 0; i < size; ++i) out[map[i]] += table[i];
  } else {
    IndexSteps(bit_pool_.data() + bag.out_bits_begin, bag.out_count)
        .ForEach(size, [out, table](size_t i, uint32_t midx) {
          out[midx] += table[i];
        });
  }
}

void JunctionTreePlan::ResolveVarValues(const EventRegistry& registry,
                                        const Evidence& evidence,
                                        double* vals) const {
  const size_t num = var_factors_.size();
  if (evidence.empty()) {
    for (size_t i = 0; i < num; ++i) {
      const double p = registry.probability(var_factors_[i].event);
      vals[2 * i] = 1.0 - p;
      vals[2 * i + 1] = p;
    }
    return;
  }
  // Flat dense-EventId pin table (replacing the former per-Execute
  // unordered_map): 0 = free, 1 = pinned false, 2 = pinned true. Pinned
  // events contribute no probability weight, so the result is the
  // conditional P(root | pins).
  std::vector<int8_t> pinned(num_events_, 0);
  for (const auto& [e, v] : evidence) {
    if (e < num_events_) pinned[e] = v ? 2 : 1;
  }
  for (size_t i = 0; i < num; ++i) {
    const int8_t pin = pinned[var_factors_[i].event];
    if (pin == 0) {
      const double p = registry.probability(var_factors_[i].event);
      vals[2 * i] = 1.0 - p;
      vals[2 * i + 1] = p;
    } else {
      vals[2 * i] = pin == 1 ? 1.0 : 0.0;
      vals[2 * i + 1] = pin == 2 ? 1.0 : 0.0;
    }
  }
}

EngineStatus JunctionTreePlan::Admit(const QueryBudget& budget,
                                     double cells) {
  // The cap is an OOM guard, not just a progress meter: a pass whose
  // table work cannot fit is refused before its arena exists.
  if (budget.max_table_cells != 0 &&
      static_cast<double>(budget.max_table_cells) < cells) {
    return EngineStatus::kResourceExhausted;
  }
  if (budget.cancelled()) return EngineStatus::kCancelled;
  if (budget.past_deadline()) return EngineStatus::kDeadlineExceeded;
  return EngineStatus::kOk;
}

double* JunctionTreePlan::AcquireArena(
    PlanScratch* scratch, std::unique_ptr<double[]>* owned) const {
  // With a caller scratch the arena allocation is amortised away
  // entirely — the serving workers' steady state.
  if (scratch != nullptr) return scratch->Acquire(arena_size_);
  if (fault::ShouldFailAllocation()) throw std::bad_alloc();
  owned->reset(new double[arena_size_]);
  return owned->get();
}

EngineStatus JunctionTreePlan::ExecuteGoverned(const EventRegistry& registry,
                                               const Evidence& evidence,
                                               PlanScratch* scratch,
                                               const QueryBudget& budget,
                                               double* value) const {
  if (build_status_ != EngineStatus::kOk) return build_status_;
  if (trivial_) {
    *value = trivial_value_;
    return EngineStatus::kOk;
  }
  TUD_CHECK(!batch_) << "single-root ExecuteGoverned on a batch plan";
  const EngineStatus admitted = Admit(budget, total_cells_);
  if (admitted != EngineStatus::kOk) return admitted;
  std::unique_ptr<double[]> owned;
  double* arena = AcquireArena(scratch, &owned);
  BudgetMeter meter(budget);
  return UpwardPass(registry, evidence, arena, meter, value);
}

EngineStatus JunctionTreePlan::UpwardPass(const EventRegistry& registry,
                                          const Evidence& evidence,
                                          double* arena, BudgetMeter& meter,
                                          double* value) const {
  // Children have larger BagIds than parents, so descending id order is
  // bottom-up; the scratch table region is reused across the (many,
  // mostly tiny) bags.
  double* vals = arena + vals_off_;
  ResolveVarValues(registry, evidence, vals);
  for (uint32_t b = static_cast<uint32_t>(bags_.size()); b-- > 0;) {
    const Bag& bag = bags_[b];
    fault::MaybeDelayBag();
    const EngineStatus st = meter.Charge(uint64_t{1} << bag.k);
    if (st != EngineStatus::kOk) return st;
    const double total = UpStep(bag, vals, arena);
    if (bag.is_root) {
      *value = total;
      return EngineStatus::kOk;
    }
  }
  TUD_CHECK(false) << "tree decomposition had no root bag";
  return EngineStatus::kOk;
}

double JunctionTreePlan::UpStep(const Bag& bag, const double* vals,
                                double* arena) const {
  double* table = arena + scratch_off_;
  ComputeBagTable(bag, vals, arena, table);
  if (!bag.is_root) {
    MarginalizeOut(bag, table, arena + bag.up_off);
    return 0.0;
  }
  double total = 0.0;
  const size_t size = size_t{1} << bag.k;
  for (size_t i = 0; i < size; ++i) total += table[i];
  return total;
}

EngineStatus JunctionTreePlan::ExecuteDelta(
    const EventRegistry& registry, const Evidence& evidence,
    const std::vector<EventId>& dirty_events, PlanDeltaState& state,
    double* value, EngineStats* stats, double full_fraction,
    const QueryBudget& budget) const {
  // Every non-kOk return must poison the stored pass: the caller has
  // typically consumed its dirty marks already (the incremental session
  // advances its cursor before executing), so a surviving `valid` arena
  // would serve stale values on the next call.
  if (build_status_ != EngineStatus::kOk) {
    state.valid = false;
    return build_status_;
  }
  if (trivial_) {
    if (stats != nullptr) FillStats(stats);
    *value = trivial_value_;
    return EngineStatus::kOk;
  }
  TUD_CHECK(!batch_) << "ExecuteDelta on a batch plan";
  // The delta path may recompute fewer cells than a full pass, but the
  // persistent state arena holds the *whole* pass either way, so the cap
  // is checked against the full table count.
  const EngineStatus admitted = Admit(budget, total_cells_);
  if (admitted != EngineStatus::kOk) {
    state.valid = false;
    return admitted;
  }
  BudgetMeter meter(budget);

  bool full = !state.valid || state.arena.size() != arena_size_ ||
              state.evidence != evidence;
  size_t recomputed = 0;
  if (!full) {
    double* arena = state.arena.data();
    double* vals = arena + vals_off_;

    // Mark the dirty events, skipping the ones pinned by evidence: a
    // pinned factor reads 0/1 indicators, not the registry, so a
    // probability change underneath a pin changes nothing.
    state.dirty_events.assign(num_events_, 0);
    for (EventId e : dirty_events) {
      if (e >= num_events_) continue;
      bool pinned = false;
      for (const auto& [pe, pv] : evidence) {
        if (pe == e) {
          pinned = true;
          break;
        }
      }
      if (!pinned) state.dirty_events[e] = 1;
    }

    // Refresh the resolved value pairs of dirty factors; each factor
    // whose values actually changed dirties its owning bag and the
    // bag's whole path to the root (everything else reuses the stored
    // messages — the recomputed bags read them through the arena just
    // like a full pass would).
    state.dirty_bags.assign(bags_.size(), 0);
    size_t dirty_count = 0;
    for (size_t i = 0; i < var_factors_.size(); ++i) {
      const EventId e = var_factors_[i].event;
      if (state.dirty_events[e] == 0) continue;
      const double p = registry.probability(e);
      const double v0 = 1.0 - p;
      if (vals[2 * i] == v0 && vals[2 * i + 1] == p) continue;
      vals[2 * i] = v0;
      vals[2 * i + 1] = p;
      uint32_t b = var_factor_bag_[i];
      while (b != kNone && state.dirty_bags[b] == 0) {
        state.dirty_bags[b] = 1;
        ++dirty_count;
        b = parent_of_[b];
      }
    }

    if (dirty_count == 0) {
      // No value actually moved: the stored pass is still exact.
      ++state.delta_passes;
      if (stats != nullptr) {
        FillStats(stats);
        stats->bags_visited = 0;
      }
      *value = state.result;
      return EngineStatus::kOk;
    }
    if (static_cast<double>(dirty_count) >
        full_fraction * static_cast<double>(bags_.size())) {
      // Most of the tree is dirty: one clean sweep beats repropagating
      // it piecemeal.
      full = true;
    } else {
      // Recompute only the dirty bags, bottom-up, with the exact same
      // per-bag kernels as a full pass — every clean bag's message is
      // bit-identical to what the full pass would recompute, so the
      // result is too.
      for (uint32_t b = static_cast<uint32_t>(bags_.size()); b-- > 0;) {
        const Bag& bag = bags_[b];
        if (state.dirty_bags[b] != 0) {
          fault::MaybeDelayBag();
          const EngineStatus st = meter.Charge(uint64_t{1} << bag.k);
          if (st != EngineStatus::kOk) {
            // The arena now mixes refreshed values with stale messages:
            // poison the state so the next call runs a full pass.
            state.valid = false;
            return st;
          }
          const double total = UpStep(bag, vals, arena);
          ++recomputed;
          if (bag.is_root) state.result = total;
        }
        if (bag.is_root) break;
      }
      ++state.delta_passes;
      state.bags_recomputed += recomputed;
      if (stats != nullptr) {
        FillStats(stats);
        stats->bags_visited = recomputed;
      }
      *value = state.result;
      return EngineStatus::kOk;
    }
  }

  state.arena.resize(arena_size_);
  state.valid = false;  // Invalid until the pass completes.
  const EngineStatus st = UpwardPass(registry, evidence, state.arena.data(),
                                     meter, &state.result);
  if (st != EngineStatus::kOk) return st;
  state.evidence = evidence;
  state.valid = true;
  ++state.full_passes;
  if (stats != nullptr) FillStats(stats);
  *value = state.result;
  return EngineStatus::kOk;
}

EngineStatus JunctionTreePlan::ExecuteBatch(const EventRegistry& registry,
                                            const Evidence& evidence,
                                            std::vector<double>* values,
                                            EngineStats* stats,
                                            PlanScratch* scratch,
                                            const QueryBudget& budget) const {
  if (build_status_ != EngineStatus::kOk) return build_status_;
  TUD_CHECK(batch_) << "ExecuteBatch requires a BuildBatch plan";
  std::vector<double> result(query_roots_.size(), 0.0);
  size_t visited = 0;
  if (!trivial_) {
    // Calibration is an upward and a (pruned) downward pass: admit only
    // if twice the table count fits the cap, before touching the arena.
    const EngineStatus admitted = Admit(budget, 2.0 * total_cells_);
    if (admitted != EngineStatus::kOk) return admitted;
    BudgetMeter meter(budget);
    std::unique_ptr<double[]> owned;
    double* arena = AcquireArena(scratch, &owned);
    double* vals = arena + vals_off_;
    ResolveVarValues(registry, evidence, vals);
    double* base = arena + scratch_off_;
    double* tmp = base + (size_t{1} << max_k_);

    // Upward (collect) pass; query bags keep their full table.
    for (uint32_t b = static_cast<uint32_t>(bags_.size()); b-- > 0;) {
      const Bag& bag = bags_[b];
      fault::MaybeDelayBag();
      const EngineStatus st = meter.Charge(uint64_t{1} << bag.k);
      if (st != EngineStatus::kOk) return st;
      ++visited;
      double* table =
          bag.table_off != kNone ? arena + bag.table_off : base;
      ComputeBagTable(bag, vals, arena, table);
      if (!bag.is_root) MarginalizeOut(bag, table, arena + bag.up_off);
    }

    // Downward (distribute) pass, pruned to subtrees containing query
    // bags. The message to child c is the bag's base (static x variable
    // factors x parent's downward message) times every *other* child's
    // upward message, marginalised onto c's separator — products, never
    // divisions, so deterministic zeros are safe.
    for (uint32_t b = 0; b < bags_.size(); ++b) {
      const Bag& bag = bags_[b];
      if (!bag.subtree_has_query) continue;
      bool any = false;
      for (uint32_t ce = bag.child_begin; ce != bag.child_end && !any; ++ce) {
        any = bags_[children_[ce].child].subtree_has_query;
      }
      if (!any) continue;
      fault::MaybeDelayBag();
      const EngineStatus st = meter.Charge(uint64_t{1} << bag.k);
      if (st != EngineStatus::kOk) return st;
      ComputeBagBase(bag, vals, base);
      if (bag.down_off != kNone) {
        ApplyDown(bag, arena + bag.down_off, base);
      }
      ++visited;
      const size_t size = size_t{1} << bag.k;
      for (uint32_t ce = bag.child_begin; ce != bag.child_end; ++ce) {
        const Bag& child = bags_[children_[ce].child];
        if (!child.subtree_has_query) continue;
        std::memcpy(tmp, base, size * sizeof(double));
        for (uint32_t other = bag.child_begin; other != bag.child_end;
             ++other) {
          if (other == ce) continue;
          MultiplyChild(bag, children_[other], arena, tmp);
        }
        MarginalizeEdge(bag, children_[ce], tmp,
                        arena + child.down_off);
      }
    }

    // Per-root beliefs: kept upward table times the downward message,
    // marginalised to the root vertex's bit and normalised (the
    // normaliser is 1 up to rounding; with evidence it stays 1 because
    // pinned indicator factors carry no weight).
    for (size_t qi = 0; qi < query_roots_.size(); ++qi) {
      const QueryRoot& qr = query_roots_[qi];
      if (qr.trivial_value >= 0) {
        result[qi] = qr.trivial_value;
        continue;
      }
      const Bag& bag = bags_[qr.bag];
      const double* table = arena + bag.table_off;
      const double* down =
          bag.down_off != kNone ? arena + bag.down_off : nullptr;
      const size_t size = size_t{1} << bag.k;
      double p1 = 0.0, total = 0.0;
      auto accumulate = [&p1, &total, bit = qr.bit](size_t i, double w) {
        total += w;
        if (((i >> bit) & 1) != 0) p1 += w;
      };
      if (down == nullptr) {
        for (size_t i = 0; i < size; ++i) accumulate(i, table[i]);
      } else {
        IndexSteps(bit_pool_.data() + bag.out_bits_begin, bag.out_count)
            .ForEach(size, [&](size_t i, uint32_t midx) {
              accumulate(i, table[i] * down[midx]);
            });
      }
      result[qi] = total > 0.0 ? p1 / total : 0.0;
    }
  } else {
    for (size_t qi = 0; qi < query_roots_.size(); ++qi) {
      result[qi] = query_roots_[qi].trivial_value;
    }
  }
  if (stats != nullptr) {
    stats->batch_size = query_roots_.size();
    stats->bags_visited = visited;
    stats->max_table = trivial_ ? 0 : size_t{1} << max_k_;
  }
  *values = std::move(result);
  return EngineStatus::kOk;
}

void JunctionTreePlan::ApplyDown(const Bag& bag, const double* down,
                                 double* table) const {
  const size_t size = size_t{1} << bag.k;
  if (bag.out_gather != kNone) {
    const uint32_t* map = gather_.data() + bag.out_gather;
    for (size_t i = 0; i < size; ++i) table[i] *= down[map[i]];
  } else {
    IndexSteps(bit_pool_.data() + bag.out_bits_begin, bag.out_count)
        .ForEach(size, [table, down](size_t i, uint32_t midx) {
          table[i] *= down[midx];
        });
  }
}

void JunctionTreePlan::MultiplyChild(const Bag& bag, const ChildEdge& edge,
                                     const double* arena,
                                     double* table) const {
  const size_t size = size_t{1} << bag.k;
  const double* msg = arena + edge.msg_off;
  if (edge.gather != kNone) {
    const uint32_t* map = gather_.data() + edge.gather;
    for (size_t i = 0; i < size; ++i) table[i] *= msg[map[i]];
  } else {
    IndexSteps(bit_pool_.data() + edge.bits_begin, edge.bits_count)
        .ForEach(size, [table, msg](size_t i, uint32_t midx) {
          table[i] *= msg[midx];
        });
  }
}

void JunctionTreePlan::MarginalizeEdge(const Bag& bag, const ChildEdge& edge,
                                       const double* table,
                                       double* out) const {
  const size_t size = size_t{1} << bag.k;
  std::fill_n(out, size_t{1} << edge.bits_count, 0.0);
  if (edge.gather != kNone) {
    const uint32_t* map = gather_.data() + edge.gather;
    for (size_t i = 0; i < size; ++i) out[map[i]] += table[i];
  } else {
    IndexSteps(bit_pool_.data() + edge.bits_begin, edge.bits_count)
        .ForEach(size, [out, table](size_t i, uint32_t midx) {
          out[midx] += table[i];
        });
  }
}

// ---------------------------------------------------------------------------
// Diagnostics and test hooks
// ---------------------------------------------------------------------------

void JunctionTreePlan::FillStats(EngineStats* stats) const {
  if (stats == nullptr) return;
  *stats = EngineStats{};
  stats->width = trivial_ ? 0 : width_;
  stats->num_bags = bags_.size();
  stats->num_gates = num_gates_;
  stats->batch_size = batch_size();
  stats->max_table = trivial_ ? 0 : size_t{1} << max_k_;
  stats->bags_visited = bags_.size();
}

void JunctionTreePlan::ForceBitLoopsForTest() {
  for (Bag& bag : bags_) bag.out_gather = kNone;
  for (ChildEdge& edge : children_) edge.gather = kNone;
}

void JunctionTreePlan::SetKernelThresholdsForTest(int fuse_max_k,
                                                  int gather_max_k) {
  if (fuse_max_k >= 0) g_fuse_max_k = fuse_max_k;
  if (gather_max_k >= 0) g_gather_max_k = gather_max_k;
}

void JunctionTreePlan::SetOffsetLimitForTest(size_t limit) {
  g_offset_limit = limit != 0 ? limit : kDefaultOffsetLimit;
}

// ---------------------------------------------------------------------------
// ConcurrentPlanCache
// ---------------------------------------------------------------------------

ConcurrentPlanCache::~ConcurrentPlanCache() {
  for (Shard& shard : shards_) {
    // No concurrent readers may remain at destruction (standard object
    // lifetime); reclaim the published snapshot alongside the retired
    // ones.
    delete shard.published.load(std::memory_order_relaxed);
  }
}

const JunctionTreePlan* ConcurrentPlanCache::Lookup(GateId root) const {
  const Shard& shard = ShardFor(root);
  const Map* snapshot = shard.published.load(std::memory_order_acquire);
  if (snapshot == nullptr) return nullptr;
  auto it = snapshot->find(root);
  return it == snapshot->end() ? nullptr : it->second.plan.get();
}

const JunctionTreePlan* ConcurrentPlanCache::GetOrBuild(
    const BoolCircuit& circuit, GateId root, const QueryBudget& budget) {
  TUD_CHECK_LT(root, circuit.NumGates());
  Shard& shard = ShardFor(root);

  // Hot path: one acquire load of the immutable snapshot, no locks.
  if (const Map* snapshot = shard.published.load(std::memory_order_acquire)) {
    auto it = snapshot->find(root);
    if (it != snapshot->end()) {
      TUD_CHECK(it->second.root_kind == circuit.kind(root))
          << "cached plan does not match the circuit it is executed against";
      return it->second.plan.get();
    }
  }

  // Cold path: become the builder or wait on the builder's latch, so a
  // thundering herd of identical cold queries costs exactly one Build.
  std::shared_ptr<Inflight> latch;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(shard.write_mu);
    // Re-check under the lock: the plan may have been published between
    // the lock-free probe and here.
    if (const Map* snapshot =
            shard.published.load(std::memory_order_relaxed)) {
      auto it = snapshot->find(root);
      if (it != snapshot->end()) {
        TUD_CHECK(it->second.root_kind == circuit.kind(root))
            << "cached plan does not match the circuit it is executed "
               "against";
        return it->second.plan.get();
      }
    }
    auto it = shard.inflight.find(root);
    if (it == shard.inflight.end()) {
      latch = std::make_shared<Inflight>();
      shard.inflight.emplace(root, latch);
      builder = true;
    } else {
      latch = it->second;
    }
  }

  if (!builder) {
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->done; });
    if (latch->failed) {
      throw std::runtime_error(
          "junction-tree plan build failed (builder threw)");
    }
    if (latch->plan == nullptr) {
      // The builder's plan was refused by *its* budget and not
      // published; retry under this caller's own budget (either as the
      // new builder or against a now-published entry).
      lock.unlock();
      return GetOrBuild(circuit, root, budget);
    }
    return latch->plan;
  }

  // Build outside every lock: other roots keep hitting, other threads
  // for this root park on the latch. If Build throws (a real or
  // injected bad_alloc), fail the latch so waiters raise instead of
  // hanging, clear the inflight slot so the next request retries, and
  // rethrow to this caller.
  std::shared_ptr<const JunctionTreePlan> plan;
  try {
    plan = std::make_shared<const JunctionTreePlan>(
        JunctionTreePlan::Build(circuit, root, budget));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.write_mu);
      shard.inflight.erase(root);
    }
    {
      std::lock_guard<std::mutex> lock(latch->mu);
      latch->done = true;
      latch->failed = true;
    }
    latch->cv.notify_all();
    throw;
  }
  builds_.fetch_add(1, std::memory_order_relaxed);
  const JunctionTreePlan* raw = plan.get();
  // Intrinsic outcomes (healthy plans *and* too-wide failures) are
  // published — the failure is a property of the root, so caching it
  // spares every later caller the width discovery. Budget-limited
  // refusals are kept unpublished: another caller's budget may admit
  // this root, and a negative entry would wrongly fail it.
  const bool publish = !plan->build_limited_by_budget();
  {
    std::lock_guard<std::mutex> lock(shard.write_mu);
    if (publish) {
      const Map* old = shard.published.load(std::memory_order_relaxed);
      auto next = std::make_unique<Map>(old != nullptr ? *old : Map{});
      (*next)[root] = Entry{std::move(plan), circuit.kind(root)};
      shard.published.store(next.release(), std::memory_order_release);
      if (old != nullptr) {
        shard.retired.emplace_back(old);
      }
    } else {
      shard.unpublished.push_back(std::move(plan));
    }
    shard.inflight.erase(root);
  }
  {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->done = true;
    latch->plan = publish ? raw : nullptr;
  }
  latch->cv.notify_all();
  return raw;
}

void ConcurrentPlanCache::Invalidate(GateId root) {
  Shard& shard = ShardFor(root);
  std::lock_guard<std::mutex> lock(shard.write_mu);
  const Map* old = shard.published.load(std::memory_order_relaxed);
  if (old == nullptr) return;
  auto it = old->find(root);
  if (it == old->end()) return;
  auto next = std::make_unique<Map>(*old);
  next->erase(root);
  shard.published.store(next.release(), std::memory_order_release);
  // Retire-not-free: the superseded snapshot (and, through its
  // shared_ptr entries, the invalidated plan) stays alive for readers
  // that already hold it; only new lookups miss.
  shard.retired.emplace_back(old);
}

void ConcurrentPlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.write_mu);
    const Map* old = shard.published.load(std::memory_order_relaxed);
    if (old == nullptr) continue;
    shard.published.store(nullptr, std::memory_order_release);
    shard.retired.emplace_back(old);
  }
}

size_t ConcurrentPlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    const Map* snapshot = shard.published.load(std::memory_order_acquire);
    if (snapshot != nullptr) total += snapshot->size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// One-shot conveniences
// ---------------------------------------------------------------------------

EngineResult EstimateWithPlan(const JunctionTreePlan& plan, const char* engine,
                              const EventRegistry& registry,
                              const Evidence& evidence, PlanScratch* scratch,
                              const QueryBudget& budget) {
  EngineResult result;
  result.engine = engine;
  plan.FillStats(&result.stats);
  result.status =
      plan.ExecuteGoverned(registry, evidence, scratch, budget, &result.value);
  if (!result.ok()) result.error_bound = 1.0;
  return result;
}

double JunctionTreeProbability(const BoolCircuit& circuit, GateId root,
                               const EventRegistry& registry,
                               EngineStats* stats) {
  return JunctionTreeProbabilityWithEvidence(circuit, root, registry, {},
                                             stats);
}

double JunctionTreeProbabilityWithEvidence(const BoolCircuit& circuit,
                                           GateId root,
                                           const EventRegistry& registry,
                                           const Evidence& evidence,
                                           EngineStats* stats) {
  JunctionTreePlan plan = JunctionTreePlan::Build(circuit, root);
  plan.FillStats(stats);
  return plan.Execute(registry, evidence);
}

}  // namespace tud

#include "inference/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "bdd/bdd.h"
#include "events/valuation.h"
#include "inference/conditioning.h"
#include "inference/hybrid.h"
#include "inference/junction_tree.h"
#include "util/check.h"

namespace tud {

namespace {

/// Restricts the cone by pinning the evidence literals to constants:
/// the probability of the restricted root is exactly the conditional
/// P(root | pins) (pinned events carry no weight). Engines without a
/// native evidence path all condition this way.
std::pair<BoolCircuit, GateId> PinEvidence(const BoolCircuit& circuit,
                                           GateId root,
                                           const EventRegistry& registry,
                                           const Evidence& evidence) {
  std::vector<std::optional<bool>> fixed(registry.size());
  for (const auto& [e, v] : evidence) {
    TUD_CHECK_LT(e, fixed.size());
    fixed[e] = v;
  }
  return RestrictCircuit(circuit, root, fixed);
}

/// Runs `fn(cone circuit, cone root)` on the circuit with the evidence
/// pinned (PinEvidence), or on the caller's circuit when there is none.
template <typename Fn>
EngineResult OnPinnedCircuit(const BoolCircuit& circuit, GateId root,
                             const EventRegistry& registry,
                             const Evidence& evidence, Fn&& fn) {
  if (evidence.empty()) return fn(circuit, root);
  auto [restricted, restricted_root] =
      PinEvidence(circuit, root, registry, evidence);
  return fn(restricted, restricted_root);
}

/// The distinct events under `root`, in first-reached order.
std::vector<EventId> ConeEvents(const BoolCircuit& circuit, GateId root) {
  std::vector<bool> seen(circuit.NumEvents(), false);
  std::vector<EventId> events;
  for (GateId g : circuit.ReachableFrom(root)) {
    if (circuit.kind(g) != GateKind::kVar) continue;
    EventId e = circuit.var(g);
    if (!seen[e]) {
      seen[e] = true;
      events.push_back(e);
    }
  }
  return events;
}

/// AutoEngine's ladder: the largest cone (in events) each exact
/// enumeration rung takes, the widest min-degree estimate it sends to
/// message passing, and the delegates' core selection and sample counts.
constexpr size_t kAutoExhaustiveMaxEvents = 10;
constexpr size_t kAutoBddMaxEvents = 18;
constexpr int kAutoMaxWidth = 16;
constexpr int kAutoHybridTargetWidth = 8;
constexpr size_t kAutoHybridMaxCore = 12;
constexpr uint32_t kAutoHybridSamples = 2000;
constexpr uint32_t kAutoSamplingSamples = 20000;
constexpr uint64_t kAutoSeed = 1;

/// BuildImpl's hard cap on exact message passing (bags of up to 26
/// vertices): a union whose min-degree estimate exceeds it cannot be
/// built, so the cost model prices it as infinite. The built plan's
/// width never exceeds the min-degree estimate (min-fill only replaces
/// the order when strictly narrower), so gating on the estimate is safe.
constexpr int kMaxExactMessagePassingWidth = 25;

/// The Steiner-subtree grouping pass: partitions roots into groups whose
/// cones overlap substantially, the middle path between all-shared and
/// all-per-root. Greedy over roots in descending cone size: each root
/// joins the existing group owning at least half of its cone's internal
/// gates, else founds a new group, then claims its unowned gates. Only
/// And/Or/Not gates count — structural hash-consing makes *every* pair
/// of lineages over one instance share its event variable gates, so
/// counting variables would glue unrelated cones into one group. The
/// grouping is a heuristic proposal only: each multi-root group still
/// has to win the cost comparison before a shared plan is built, so a
/// misgrouping costs nothing but the probe.
std::vector<std::vector<uint32_t>> GroupRootsByConeOverlap(
    const BoolCircuit& circuit, const std::vector<GateId>& roots) {
  const size_t n = roots.size();
  std::vector<std::vector<GateId>> cones(n);
  for (size_t i = 0; i < n; ++i) {
    for (GateId g : circuit.ReachableFrom(roots[i])) {
      const GateKind kind = circuit.kind(g);
      if (kind == GateKind::kAnd || kind == GateKind::kOr ||
          kind == GateKind::kNot) {
        cones[i].push_back(g);
      }
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return cones[a].size() > cones[b].size();
  });
  std::vector<int32_t> owner(circuit.NumGates(), -1);
  std::vector<std::vector<uint32_t>> groups;
  std::vector<size_t> overlap;
  for (uint32_t i : order) {
    overlap.assign(groups.size(), 0);
    for (GateId g : cones[i]) {
      if (owner[g] >= 0) ++overlap[owner[g]];
    }
    int32_t best = -1;
    size_t best_overlap = 0;
    for (size_t j = 0; j < groups.size(); ++j) {
      if (overlap[j] > best_overlap) {
        best_overlap = overlap[j];
        best = static_cast<int32_t>(j);
      }
    }
    if (best < 0 || best_overlap * 2 < cones[i].size()) {
      best = static_cast<int32_t>(groups.size());
      groups.emplace_back();
    }
    groups[best].push_back(i);
    for (GateId g : cones[i]) {
      if (owner[g] < 0) owner[g] = best;
    }
  }
  // Deterministic output independent of the claim order.
  for (std::vector<uint32_t>& group : groups) {
    std::sort(group.begin(), group.end());
  }
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<uint32_t>& a,
               const std::vector<uint32_t>& b) { return a[0] < b[0]; });
  return groups;
}

}  // namespace

bool ValidRequest(const BoolCircuit& circuit, GateId root,
                  const EventRegistry& registry, const Evidence& evidence) {
  if (root >= circuit.NumGates()) return false;
  for (const auto& [e, v] : evidence) {
    (void)v;
    if (e >= registry.size()) return false;
  }
  return true;
}

EngineResult ProbabilityEngine::Estimate(const BoolCircuit& circuit,
                                         GateId root,
                                         const EventRegistry& registry,
                                         const Evidence& evidence,
                                         const QueryBudget& budget) {
  if (!ValidRequest(circuit, root, registry, evidence)) {
    return MakeStatusResult(name(), EngineStatus::kInvalidArgument);
  }
  if (budget.cancelled()) {
    return MakeStatusResult(name(), EngineStatus::kCancelled);
  }
  if (budget.past_deadline()) {
    return MakeStatusResult(name(), EngineStatus::kDeadlineExceeded);
  }
  return EstimateImpl(circuit, root, registry, evidence, budget);
}

std::vector<EngineResult> ProbabilityEngine::EstimateBatch(
    const BoolCircuit& circuit, const std::vector<GateId>& roots,
    const EventRegistry& registry, const Evidence& evidence,
    const QueryBudget& budget) {
  bool valid = true;
  for (GateId root : roots) {
    if (!ValidRequest(circuit, root, registry, evidence)) valid = false;
  }
  if (!valid) {
    std::vector<EngineResult> results(
        roots.size(), MakeStatusResult(name(), EngineStatus::kInvalidArgument));
    return results;
  }
  if (budget.cancelled()) {
    return std::vector<EngineResult>(
        roots.size(), MakeStatusResult(name(), EngineStatus::kCancelled));
  }
  if (budget.past_deadline()) {
    return std::vector<EngineResult>(
        roots.size(),
        MakeStatusResult(name(), EngineStatus::kDeadlineExceeded));
  }
  return EstimateBatchImpl(circuit, roots, registry, evidence, budget);
}

std::vector<EngineResult> ProbabilityEngine::EstimateBatchImpl(
    const BoolCircuit& circuit, const std::vector<GateId>& roots,
    const EventRegistry& registry, const Evidence& evidence,
    const QueryBudget& budget) {
  std::vector<EngineResult> results;
  results.reserve(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    results.push_back(EstimateImpl(circuit, roots[i], registry, evidence,
                                   budget));
    results.back().stats.batch_size = roots.size();
    const EngineStatus st = results.back().status;
    if (st == EngineStatus::kDeadlineExceeded ||
        st == EngineStatus::kCancelled) {
      // The clock ran out / the caller gave up: short-circuit the rest
      // of the battery instead of burning the same trip N more times.
      while (results.size() < roots.size()) {
        results.push_back(MakeStatusResult(name(), st));
        results.back().stats.batch_size = roots.size();
      }
      break;
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// Exact adapters
// ---------------------------------------------------------------------------

EngineResult ExhaustiveEngine::EstimateImpl(const BoolCircuit& circuit,
                                            GateId root,
                                            const EventRegistry& registry,
                                            const Evidence& evidence,
                                            const QueryBudget& budget) {
  return OnPinnedCircuit(
      circuit, root, registry, evidence,
      [&](const BoolCircuit& c, GateId r) {
        const std::vector<EventId> used = ConeEvents(c, r);
        EngineResult result;
        result.engine = name();
        result.stats.cone_events = used.size();
        auto fail = [&](EngineStatus st) {
          result.status = st;
          result.error_bound = 1.0;
          return result;
        };
        if (used.size() > 30u) return fail(EngineStatus::kResourceExhausted);
        // One table cell per enumerated valuation.
        BudgetMeter meter(budget);
        double total = 0.0;
        Valuation valuation(registry.size());
        for (uint64_t mask = 0; mask < (1ULL << used.size()); ++mask) {
          const EngineStatus st = meter.Charge(1);
          if (st != EngineStatus::kOk) return fail(st);
          double p = 1.0;
          for (size_t i = 0; i < used.size(); ++i) {
            bool bit = (mask >> i) & 1;
            valuation.set_value(used[i], bit);
            double pe = registry.probability(used[i]);
            p *= bit ? pe : (1.0 - pe);
          }
          if (c.Evaluate(r, valuation)) total += p;
        }
        result.value = total;
        return result;
      });
}

// One reusable Execute arena per OS thread: the message pass becomes
// allocation-free in steady state no matter how many threads share the
// engine, without any cross-thread coordination.
static PlanScratch* ThreadScratch() {
  static thread_local PlanScratch scratch;
  return &scratch;
}

JunctionTreeEngine::JunctionTreeEngine(bool cache_plans)
    : cache_plans_(cache_plans) {
  if (cache_plans_) cache_ = std::make_unique<ConcurrentPlanCache>();
}

JunctionTreeEngine::~JunctionTreeEngine() = default;

void JunctionTreeEngine::BindCircuit(const BoolCircuit& circuit) {
  // Plan caching is only sound against one append-only circuit: a gate's
  // cone never changes once created, but another circuit's gate ids mean
  // something else entirely. The bind is an atomic CAS so any number of
  // threads can race to be first.
  const BoolCircuit* expected = nullptr;
  if (!bound_circuit_.compare_exchange_strong(expected, &circuit,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    TUD_CHECK(expected == &circuit)
        << "a plan-caching JunctionTreeEngine is bound to its first circuit";
  }
}

EngineResult JunctionTreeEngine::EstimateImpl(const BoolCircuit& circuit,
                                              GateId root,
                                              const EventRegistry& registry,
                                              const Evidence& evidence,
                                              const QueryBudget& budget) {
  // The budget gates both the Build (a decomposition whose tables would
  // blow the cell cap is refused before any arena exists) and the
  // per-bag message pass; a failed plan is a status, never an abort.
  if (!cache_plans_) {
    return EstimateWithPlan(JunctionTreePlan::Build(circuit, root, budget),
                            name(), registry, evidence, ThreadScratch(),
                            budget);
  }
  // Build-once publication and the root-kind revalidation (guarding the
  // case pointer identity cannot: the bound circuit destroyed and a
  // different one reallocated at the same address) both live in the
  // concurrent cache.
  BindCircuit(circuit);
  return EstimateWithPlan(*cache_->GetOrBuild(circuit, root, budget), name(),
                          registry, evidence, ThreadScratch(), budget);
}

std::vector<EngineResult> JunctionTreeEngine::EstimateBatchImpl(
    const BoolCircuit& circuit, const std::vector<GateId>& roots,
    const EventRegistry& registry, const Evidence& evidence,
    const QueryBudget& budget) {
  std::vector<EngineResult> results(roots.size());
  if (roots.empty()) return results;

  // The batch cost model (see the class comment): canonicalize the
  // battery, look the decision up, decide on a miss (whole-set cost
  // comparison, then the cone-overlap grouping pass), execute each
  // group's shared plan or per-root fallback, and scatter the results
  // back to caller order.

  // Canonical key: sorted + deduped, with a remap back to caller order —
  // a permuted or duplicated battery is the same battery.
  std::vector<GateId> key(roots);
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  std::vector<size_t> slot_of(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    slot_of[i] = static_cast<size_t>(
        std::lower_bound(key.begin(), key.end(), roots[i]) - key.begin());
  }

  std::shared_ptr<const CachedBatchPlan> decision;
  if (cache_plans_) {
    BindCircuit(circuit);
    for (GateId root : roots) TUD_CHECK_LT(root, circuit.NumGates());
    std::shared_ptr<const BatchMap> snapshot = BatchSnapshot();
    if (snapshot != nullptr) {
      auto it = snapshot->find(key);
      if (it != snapshot->end()) {
        // Root-kind revalidation on every hit, as for single plans: it
        // guards the case pointer identity cannot (the bound circuit was
        // destroyed and another reallocated at the same address).
        for (size_t i = 0; i < key.size(); ++i) {
          TUD_CHECK(it->second.root_kinds[i] == circuit.kind(key[i]))
              << "cached batch plan does not match the circuit it is "
                 "executed against";
        }
        // Aliasing shared_ptr: the entry lives as long as its snapshot.
        decision =
            std::shared_ptr<const CachedBatchPlan>(snapshot, &it->second);
      }
    }
  }
  if (decision == nullptr) {
    auto built = std::make_shared<CachedBatchPlan>(DecideBatch(circuit, key));
    batch_builds_.fetch_add(1, std::memory_order_relaxed);
    built->root_kinds.reserve(key.size());
    for (GateId root : key) built->root_kinds.push_back(circuit.kind(root));
    if (cache_plans_) {
      // Copy-on-write publication under the writer mutex. Concurrent
      // misses for the same new root set may both build; one insert
      // wins, the other becomes the winner's value — benign, identical
      // plans.
      std::lock_guard<std::mutex> lock(batch_mu_);
      auto next = batch_published_ != nullptr
                      ? std::make_shared<BatchMap>(*batch_published_)
                      : std::make_shared<BatchMap>();
      if (next->size() >= kMaxBatchPlans && next->find(key) == next->end()) {
        // FIFO eviction: drop only the oldest entry (smallest insertion
        // seq) — hot batteries survive cache pressure instead of the
        // whole memo being wiped.
        auto victim = next->begin();
        for (auto it = std::next(next->begin()); it != next->end(); ++it) {
          if (it->second.seq < victim->second.seq) victim = it;
        }
        next->erase(victim);
      }
      built->seq = ++batch_seq_;
      next->insert_or_assign(key, *built);
      batch_published_ = std::move(next);
    }
    decision = std::move(built);
  }

  // Execute every group into canonical slots, then map back to caller
  // order (duplicates land on the same canonical result).
  std::vector<EngineResult> canonical(key.size());
  for (const BatchGroup& group : decision->groups) {
    bool fall_back_per_root = group.plan == nullptr;
    if (group.plan != nullptr) {
      EngineStats group_stats;
      group.plan->FillStats(&group_stats);
      std::vector<double> values;
      EngineStatus st = group.plan->ExecuteBatch(
          registry, evidence, &values, &group_stats, ThreadScratch(), budget);
      if (st == EngineStatus::kOk) {
        for (size_t j = 0; j < group.members.size(); ++j) {
          EngineResult& r = canonical[group.members[j]];
          r.engine = name();
          r.value = values[j];
          r.stats = group_stats;
        }
      } else if (st == EngineStatus::kResourceExhausted) {
        // The shared plan (memoised by a budget-free decision) is over
        // this call's cell cap, or failed to build; each root's own plan
        // may still fit.
        fall_back_per_root = true;
      } else {
        for (uint32_t m : group.members) {
          canonical[m] = MakeStatusResult(name(), st);
          canonical[m].stats = group_stats;
        }
      }
    }
    if (fall_back_per_root) {
      // Per-root members: cached plans at exactly the sequential cost.
      for (uint32_t m : group.members) {
        canonical[m] = EstimateImpl(circuit, key[m], registry, evidence,
                                    budget);
      }
    }
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    results[i] = canonical[slot_of[i]];
    EngineStats& s = results[i].stats;
    s.batch_size = roots.size();
    s.batch_path = decision->path;
    s.batch_shared_cost = decision->shared_cost;
    s.batch_per_root_cost = decision->per_root_cost;
    s.batch_groups = decision->groups.size();
  }
  return results;
}

JunctionTreeEngine::CachedBatchPlan JunctionTreeEngine::DecideBatch(
    const BoolCircuit& circuit, const std::vector<GateId>& roots) const {
  CachedBatchPlan decision;
  const size_t n = roots.size();
  constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

  // The per-root side of the comparison: one upward sweep each over the
  // root's own min-degree decomposition.
  std::vector<double> root_cost(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    root_cost[i] =
        JunctionTreeAnalysis::Analyze(circuit, roots[i]).TableCost();
    decision.per_root_cost += root_cost[i];
  }

  if (n == 1) {
    // A battery of one: the shared pass costs two sweeps where the
    // per-root plan costs one; no decision to make.
    decision.shared_cost = 2.0 * root_cost[0];
    decision.path = BatchPath::kPerRoot;
    decision.groups.push_back(BatchGroup{{0}, nullptr});
    return decision;
  }

  // The shared side: a calibrating upward plus a pruned downward sweep
  // over the union cone's decomposition — a union too wide for exact
  // message passing is infinitely expensive.
  JunctionTreeAnalysis union_analysis =
      JunctionTreeAnalysis::AnalyzeBatch(circuit, roots);
  const bool union_fits =
      union_analysis.trivial() ||
      union_analysis.MinDegreeWidth() <= kMaxExactMessagePassingWidth;
  decision.shared_cost =
      union_fits ? 2.0 * union_analysis.TableCost() : kInfiniteCost;
  if (decision.shared_cost <= decision.per_root_cost) {
    BatchGroup all;
    all.members.resize(n);
    std::iota(all.members.begin(), all.members.end(), 0u);
    all.plan = std::make_shared<const JunctionTreePlan>(
        JunctionTreePlan::BuildBatch(std::move(union_analysis)));
    decision.groups.push_back(std::move(all));
    decision.path = BatchPath::kShared;
    return decision;
  }

  // The whole set loses: propose cone-overlap groups and run the same
  // comparison per group — the middle path between all-shared and
  // all-per-root.
  bool any_shared = false;
  for (std::vector<uint32_t>& members :
       GroupRootsByConeOverlap(circuit, roots)) {
    BatchGroup group;
    group.members = std::move(members);
    if (group.members.size() > 1) {
      std::vector<GateId> subset;
      subset.reserve(group.members.size());
      double sequential = 0;
      for (uint32_t m : group.members) {
        subset.push_back(roots[m]);
        sequential += root_cost[m];
      }
      JunctionTreeAnalysis group_analysis =
          JunctionTreeAnalysis::AnalyzeBatch(circuit, subset);
      const bool fits =
          group_analysis.trivial() ||
          group_analysis.MinDegreeWidth() <= kMaxExactMessagePassingWidth;
      if (fits && 2.0 * group_analysis.TableCost() <= sequential) {
        group.plan = std::make_shared<const JunctionTreePlan>(
            JunctionTreePlan::BuildBatch(std::move(group_analysis)));
        any_shared = true;
      }
    }
    decision.groups.push_back(std::move(group));
  }
  decision.path = any_shared ? BatchPath::kGrouped : BatchPath::kPerRoot;
  return decision;
}

std::shared_ptr<const JunctionTreeEngine::BatchMap>
JunctionTreeEngine::BatchSnapshot() const {
  std::lock_guard<std::mutex> lock(batch_mu_);
  return batch_published_;
}

size_t JunctionTreeEngine::batch_cache_size() const {
  std::shared_ptr<const BatchMap> snapshot = BatchSnapshot();
  return snapshot == nullptr ? 0 : snapshot->size();
}

EngineResult BddEngine::EstimateImpl(const BoolCircuit& circuit, GateId root,
                                     const EventRegistry& registry,
                                     const Evidence& evidence,
                                     const QueryBudget& budget) {
  EngineResult result;
  result.engine = name();
  auto [cone, cone_root] = evidence.empty()
                               ? circuit.ExtractCone(root)
                               : PinEvidence(circuit, root, registry,
                                             evidence);
  const uint32_t num_levels = static_cast<uint32_t>(registry.size());
  std::vector<uint32_t> levels(num_levels);
  std::vector<double> probs(num_levels);
  for (uint32_t e = 0; e < num_levels; ++e) {
    levels[e] = e;
    probs[e] = registry.probability(e);
  }
  BddManager manager(num_levels);
  result.stats.cone_events = ConeEvents(cone, cone_root).size();
  // The cell cap doubles as a node cap on the compilation, so a
  // blowing-up BDD trips resource_exhausted instead of eating memory.
  BudgetMeter meter(budget);
  EngineStatus st = EngineStatus::kOk;
  std::optional<BddRef> f =
      manager.FromCircuitGoverned(cone, cone_root, levels, meter, &st);
  result.stats.bdd_nodes = manager.NumNodes();
  if (!f.has_value()) {
    result.status = st;
    result.error_bound = 1.0;
    return result;
  }
  result.value = manager.Wmc(*f, probs);
  return result;
}

EngineResult ConditioningEngine::EstimateImpl(const BoolCircuit& circuit,
                                              GateId root,
                                              const EventRegistry& registry,
                                              const Evidence& evidence,
                                              const QueryBudget& budget) {
  if (evidence.empty()) {
    return EstimateWithPlan(JunctionTreePlan::Build(circuit, root, budget),
                            name(), registry, {}, ThreadScratch(), budget);
  }
  // The §4 route: materialise the observation as a gate and condition on
  // it. Works on a copy — the adapter's contract is not to grow the
  // caller's circuit.
  BoolCircuit working = circuit;
  std::vector<GateId> literals;
  literals.reserve(evidence.size());
  for (const auto& [e, v] : evidence) {
    GateId var = working.AddVar(e);
    literals.push_back(v ? var : working.AddNot(var));
  }
  GateId observation = working.AddAnd(std::move(literals));
  return ConditionalProbability(working, root, observation, registry, budget);
}

// ---------------------------------------------------------------------------
// Sampling-based adapters
// ---------------------------------------------------------------------------

EngineResult SamplingEngine::EstimateImpl(const BoolCircuit& circuit,
                                          GateId root,
                                          const EventRegistry& registry,
                                          const Evidence& evidence,
                                          const QueryBudget& budget) {
  // A sample cap lowers the target up front; a deadline or cancellation
  // mid-loop keeps the estimate over the samples actually drawn (a
  // degraded kOk answer with an honest bound), failing only when not a
  // single sample completed.
  uint32_t target = num_samples_;
  if (budget.max_samples != 0) target = std::min(target, budget.max_samples);
  TUD_CHECK_GT(target, 0u);
  return OnPinnedCircuit(
      circuit, root, registry, evidence, [&](const BoolCircuit& c, GateId r) {
        // One sample touches roughly every gate once.
        const uint64_t cells_per_sample = std::max<uint64_t>(1, c.NumGates());
        BudgetMeter meter(budget);
        EngineStatus st = EngineStatus::kOk;
        uint32_t hits = 0;
        uint32_t done = 0;
        for (; done < target; ++done) {
          st = meter.Charge(cells_per_sample);
          if (st != EngineStatus::kOk) break;
          if (c.Evaluate(r, Valuation::Sample(registry, rng_))) ++hits;
        }
        if (done == 0 && st != EngineStatus::kOk) {
          return MakeStatusResult(name(), st);
        }
        EngineResult result;
        result.engine = name();
        result.stats.num_samples = done;
        result.value = static_cast<double>(hits) / done;
        // Normal approximation, with the rule-of-three at the degenerate
        // empirical extremes (p-hat of exactly 0 or 1 would otherwise
        // report error 0, i.e. claim an unconverged estimate is exact).
        const double p = result.value;
        result.error_bound = p > 0.0 && p < 1.0
                                 ? 1.96 * std::sqrt(p * (1.0 - p) / done)
                                 : 3.0 / done;
        return result;
      });
}

EngineResult HybridEngine::EstimateImpl(const BoolCircuit& circuit,
                                        GateId root,
                                        const EventRegistry& registry,
                                        const Evidence& evidence,
                                        const QueryBudget& budget) {
  return OnPinnedCircuit(
      circuit, root, registry, evidence, [&](const BoolCircuit& c, GateId r) {
        return EstimateWithCore(
            c, r, registry, SelectCoreEvents(c, r, target_width_, max_core_),
            budget);
      });
}

EngineResult HybridEngine::EstimateWithCore(const BoolCircuit& circuit,
                                            GateId root,
                                            const EventRegistry& registry,
                                            const std::vector<EventId>& core,
                                            const QueryBudget& budget) {
  if (core.empty()) {
    // Already narrow: one exact message-passing run, no sampling.
    return EstimateWithPlan(JunctionTreePlan::Build(circuit, root, budget),
                            name(), registry, {}, ThreadScratch(), budget);
  }
  uint32_t target = num_samples_;
  if (budget.max_samples != 0) target = std::min(target, budget.max_samples);
  TUD_CHECK_GT(target, 0u);
  // Sample the core events from their priors and run exact message
  // passing on each restricted circuit; the estimate is the average of
  // the exact conditionals.
  BudgetMeter meter(budget);
  EngineResult result;
  result.engine = name();
  result.error_bound = 1.0;
  double total = 0.0;
  double total_sq = 0.0;
  uint32_t done = 0;
  EngineStatus st = EngineStatus::kOk;
  std::vector<std::optional<bool>> fixed(registry.size());
  for (; done < target; ++done) {
    st = meter.CheckNow();
    if (st != EngineStatus::kOk) break;
    for (EventId e : core) fixed[e] = rng_.Bernoulli(registry.probability(e));
    auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
    JunctionTreePlan plan =
        JunctionTreePlan::Build(restricted, restricted_root);
    st = plan.build_status();
    if (st != EngineStatus::kOk) break;
    // The whole restricted table set is about to be materialised; charge
    // it up front so the cell cap trips before the arena is touched.
    st = meter.Charge(static_cast<uint64_t>(plan.total_cells()));
    if (st != EngineStatus::kOk) break;
    double p = 0.0;
    st = plan.ExecuteGoverned(registry, {}, nullptr, meter.budget(), &p);
    if (st != EngineStatus::kOk) break;
    total += p;
    total_sq += p * p;
    result.stats.width = std::max(result.stats.width, plan.width());
  }
  result.stats.num_samples = done;
  if (done == 0) {
    result.status = st;
  } else {
    // A mid-run trip with completed samples stays a degraded kOk answer:
    // the estimate and its bound are honest for the samples drawn.
    result.value = total / done;
    if (done > 1) {
      // 95% half-width from the sample variance of the per-sample exact
      // conditionals (the Rao-Blackwellised estimator's spread).
      double variance = (total_sq - total * total / done) / (done - 1);
      result.error_bound = 1.96 * std::sqrt(std::max(variance, 0.0) / done);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// AutoEngine
// ---------------------------------------------------------------------------

AutoEngine::AutoEngine()
    : hybrid_(kAutoHybridTargetWidth, kAutoHybridMaxCore, kAutoHybridSamples,
              kAutoSeed),
      sampling_(kAutoSamplingSamples, kAutoSeed) {}

EngineResult AutoEngine::EstimateImpl(const BoolCircuit& circuit, GateId root,
                                      const EventRegistry& registry,
                                      const Evidence& evidence,
                                      const QueryBudget& budget) {
  // Pin once, then plan on the restricted circuit: pinning both shrinks
  // the cone and is how every delegate would condition anyway.
  return OnPinnedCircuit(circuit, root, registry, evidence,
                         [&](const BoolCircuit& c, GateId r) {
                           return Plan(c, r, registry, budget);
                         });
}

EngineResult AutoEngine::Plan(const BoolCircuit& circuit, GateId root,
                              const EventRegistry& registry,
                              const QueryBudget& budget) {
  const size_t cone_events = ConeEvents(circuit, root).size();
  const Evidence none;
  // Under a budget a rung that trips kResourceExhausted falls through to
  // the next cheaper rung (counted in stats.degradations); a deadline or
  // cancellation surfaces directly — no cheaper rung can beat a clock
  // that has already run out.
  uint32_t degradations = 0;
  auto finish = [&](EngineResult result) {
    result.stats.cone_events = cone_events;
    result.stats.degradations = degradations;
    return result;
  };
  auto hard_trip = [](EngineStatus st) {
    return st == EngineStatus::kDeadlineExceeded ||
           st == EngineStatus::kCancelled ||
           st == EngineStatus::kInvalidArgument;
  };

  if (cone_events <= kAutoExhaustiveMaxEvents) {
    EngineResult result =
        exhaustive_.Estimate(circuit, root, registry, none, budget);
    if (result.status != EngineStatus::kResourceExhausted) {
      return finish(std::move(result));
    }
    ++degradations;
  }
  if (cone_events <= kAutoBddMaxEvents) {
    EngineResult result = bdd_.Estimate(circuit, root, registry, none, budget);
    if (result.status != EngineStatus::kResourceExhausted) {
      return finish(std::move(result));
    }
    ++degradations;
  }

  // Cheap width estimate of the binarised cone's primal graph — the
  // analysis *is* the first half of a junction-tree Build, so when
  // message passing is chosen the decomposition work is handed to the
  // plan instead of being recomputed.
  JunctionTreeAnalysis analysis = JunctionTreeAnalysis::Analyze(circuit, root);
  const int width = analysis.trivial() ? 0 : analysis.MinDegreeWidth();
  if (width <= kAutoMaxWidth) {
    EngineResult result = EstimateWithPlan(
        JunctionTreePlan::Build(std::move(analysis), budget), "junction_tree",
        registry, {}, ThreadScratch(), budget);
    if (result.ok() || hard_trip(result.status)) {
      return finish(std::move(result));
    }
    // The exact plan priced (or ran) over the cell cap, or failed to
    // build: degrade to the core/tentacle estimator, then to bounded
    // sampling.
    ++degradations;
  }
  std::vector<EventId> core = SelectCoreEvents(
      circuit, root, kAutoHybridTargetWidth, kAutoHybridMaxCore);
  if (!core.empty()) {
    // Only worth the per-sample exact runs if the core actually tames
    // the width; SelectCoreEvents stops early when it cannot.
    std::vector<std::optional<bool>> fixed(registry.size());
    for (EventId e : core) fixed[e] = true;
    auto [restricted, restricted_root] =
        RestrictCircuit(circuit, root, fixed);
    const int rwidth =
        JunctionTreeAnalysis::Analyze(restricted, restricted_root)
            .MinDegreeWidth();
    if (rwidth <= kAutoMaxWidth) {
      // Hand the selected core over: the hybrid engine would otherwise
      // repeat the whole SelectCoreEvents restrict/min-fill loop.
      EngineResult result =
          hybrid_.EstimateWithCore(circuit, root, registry, core, budget);
      if (result.status != EngineStatus::kResourceExhausted) {
        return finish(std::move(result));
      }
      ++degradations;
    }
  }
  EngineResult result =
      sampling_.Estimate(circuit, root, registry, none, budget);
  return finish(std::move(result));
}

std::unique_ptr<ProbabilityEngine> MakeAutoEngine() {
  return std::make_unique<AutoEngine>();
}

}  // namespace tud

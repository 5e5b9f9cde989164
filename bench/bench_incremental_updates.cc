// Update-vs-rebuild curves for the incremental maintenance subsystem:
// the same update stream answered three ways, from cheapest to the
// from-scratch baseline. Emits incremental/* rows (harness JSON) whose
// numbers the committed BENCH_automata.json quotes:
//
//   incremental/prob_update_requery/<spec>   IncrementalSession update +
//                                            dirty-bag delta requery
//   incremental/prob_update_full_execute/<spec>
//                                            update + full message pass
//                                            on the cached plan
//   incremental/prob_update_rebuild/<spec>   update + rebuild the plan
//                                            (decompose + compile) and
//                                            query — what a session with
//                                            no incremental layer pays
//   incremental/insert_repair/<spec>         InsertFact (decomposition
//                                            repair + lineage patch) +
//                                            requery
//   incremental/insert_rebuild/<spec>        same state rebuilt from
//                                            scratch (fresh session,
//                                            fresh decomposition,
//                                            lineage, plan) + query
//   persist/wal_append/<spec>                durable UpdateProbability:
//                                            encode + CRC + write(2) +
//                                            apply, per mutation
//   persist/recovery_replay/<spec>           Recover(): checkpoint load
//                                            + WAL replay, per replayed
//                                            record
//   persist/checkpoint_write/<spec>          full-state checkpoint
//                                            (serialize + CRC + write +
//                                            fsync + rename + rotate)
//
// The prob_update rows carry a speedup_vs_rebuild counter; the repair
// rows carry the repair/rebuild counters that pin the structural path.
//
// Usage: bench_incremental_updates [num_updates] [output.json] [spec...]
//   num_updates    probability updates per timed mode (default 2000)
//   output.json    harness-format output (default BENCH_incremental.json)
//   spec...        instance specs (default: ladder:48 ktree:64x2)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "incremental/incremental_session.h"
#include "persist/durable_session.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

using clock_type = std::chrono::steady_clock;

double SecondsSince(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

bench::BenchResult Row(std::string name, double seconds, size_t ops) {
  bench::BenchResult r;
  r.name = std::move(name);
  r.iters = ops;
  r.ns_per_iter = seconds * 1e9 / static_cast<double>(ops);
  return r;
}

void PrintRow(const bench::BenchResult& r) {
  std::printf("%-52s %14.0f ns/op  %8llu ops", r.name.c_str(), r.ns_per_iter,
              static_cast<unsigned long long>(r.iters));
  for (const auto& [key, value] : r.counters)
    std::printf("  %s=%.3f", key.c_str(), value);
  std::printf("\n");
}

/// The three probability-update modes over one spec. Each mode applies
/// the same deterministic update stream (fresh Rng per mode) so the
/// work differs only in how the answer is maintained.
void BenchProbabilityUpdates(const workloads::InstanceSpec& spec,
                             size_t num_updates,
                             std::vector<bench::BenchResult>* results) {
  const auto [source, target] = workloads::CanonicalEndpoints(spec);

  // One shared prepared state per mode — construction is untimed.
  TidInstance tid = workloads::MakeInstance(spec);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId query =
      inc.RegisterReachability(0, source, target);
  inc.Probability(query);  // Warm: plan built, delta state valid.
  EventRegistry& events = session.pcc().events();
  const GateId root = inc.root(query);
  const BoolCircuit& circuit = session.pcc().circuit();
  const size_t num_events = events.size();

  // Rebuild is orders of magnitude slower per op: run a smaller stream
  // so one mode does not dominate wall clock.
  const size_t rebuild_ops =
      std::max<size_t>(num_updates / 100, std::min<size_t>(num_updates, 10));
  double sink = 0;

  // --- Mode 1: update + rebuild-and-query (decompose + compile + pass).
  double rebuild_seconds;
  {
    Rng rng(101);
    const auto start = clock_type::now();
    for (size_t i = 0; i < rebuild_ops; ++i) {
      events.set_probability(
          static_cast<EventId>(rng.UniformDouble() * num_events),
          rng.UniformDouble());
      sink += JunctionTreeEngine().Estimate(circuit, root, events).value;
    }
    rebuild_seconds = SecondsSince(start);
  }

  // --- Mode 2: update + full message pass on the already-built plan.
  double full_seconds;
  {
    const JunctionTreePlan plan = JunctionTreePlan::Build(circuit, root);
    Rng rng(101);
    const auto start = clock_type::now();
    for (size_t i = 0; i < num_updates; ++i) {
      events.set_probability(
          static_cast<EventId>(rng.UniformDouble() * num_events),
          rng.UniformDouble());
      sink += plan.Execute(events);
    }
    full_seconds = SecondsSince(start);
  }

  // --- Mode 3: update + incremental requery (dirty-bag delta pass).
  double requery_seconds;
  {
    Rng rng(101);
    const auto start = clock_type::now();
    for (size_t i = 0; i < num_updates; ++i) {
      inc.UpdateProbability(
          static_cast<EventId>(rng.UniformDouble() * num_events),
          rng.UniformDouble());
      sink += inc.Probability(query).value;
    }
    requery_seconds = SecondsSince(start);
  }
  if (!std::isfinite(sink)) std::abort();  // Keep the loops observable.

  // The last updates of modes 2 and 3 left identical registry state:
  // the maintained answer must be bit-identical to a fresh full pass.
  const double maintained = inc.Probability(query).value;
  const double fresh =
      JunctionTreeEngine().Estimate(circuit, root, events).value;
  if (maintained != fresh) {
    std::fprintf(stderr, "MISMATCH on %s: %.17g != %.17g\n",
                 spec.Name().c_str(), maintained, fresh);
    std::abort();
  }

  const double rebuild_ns =
      rebuild_seconds * 1e9 / static_cast<double>(rebuild_ops);
  const double requery_ns =
      requery_seconds * 1e9 / static_cast<double>(num_updates);
  const incremental::IncrementalStats& stats = inc.stats();

  bench::BenchResult requery =
      Row("incremental/prob_update_requery/" + spec.Name(), requery_seconds,
          num_updates);
  requery.counters = {
      {"speedup_vs_rebuild", rebuild_ns / requery_ns},
      {"delta_executes", static_cast<double>(stats.delta_executes)},
      {"full_executes", static_cast<double>(stats.full_executes)},
      {"bags_recomputed_per_query",
       static_cast<double>(stats.bags_recomputed) /
           static_cast<double>(std::max<uint64_t>(stats.delta_executes, 1))},
  };
  results->push_back(requery);
  PrintRow(results->back());

  results->push_back(Row("incremental/prob_update_full_execute/" + spec.Name(),
                         full_seconds, num_updates));
  PrintRow(results->back());

  results->push_back(Row("incremental/prob_update_rebuild/" + spec.Name(),
                         rebuild_seconds, rebuild_ops));
  PrintRow(results->back());
}

/// Structural inserts: the repair path versus a from-scratch rebuild of
/// the same grown state, interleaved so both see the same trajectory.
void BenchStructuralInserts(const workloads::InstanceSpec& spec,
                            size_t num_inserts,
                            std::vector<bench::BenchResult>* results) {
  const auto [source, target] = workloads::CanonicalEndpoints(spec);
  TidInstance tid = workloads::MakeInstance(spec);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  incremental::IncrementalSession inc(session);
  const incremental::QueryId query =
      inc.RegisterReachability(0, source, target);
  inc.Probability(query);

  Rng rng(103);
  double repair_seconds = 0, rebuild_seconds = 0;
  uint32_t next_vertex =
      static_cast<uint32_t>(session.pcc().instance().DomainSize());
  for (size_t i = 0; i < num_inserts; ++i) {
    // Alternate covered inserts (duplicate an existing edge) with
    // cone-growing ones (fresh vertex hanging off an existing one).
    std::vector<Value> args;
    if (i % 2 == 0) {
      const Fact& fact = session.pcc().instance().fact(
          static_cast<FactId>(rng.UniformDouble() *
                              session.pcc().instance().NumFacts()));
      args = fact.args;
    } else {
      const uint32_t anchor = static_cast<uint32_t>(
          rng.UniformDouble() * session.pcc().instance().DomainSize());
      args = {anchor, next_vertex++};
    }

    auto start = clock_type::now();
    inc.InsertFact(0, std::move(args), 0.3 + 0.4 * rng.UniformDouble());
    const double repaired = inc.Probability(query).value;
    repair_seconds += SecondsSince(start);

    // The baseline rebuilds the identical post-insert state from
    // scratch: fresh session over a copy, fresh decomposition, fresh
    // lineage DP, fresh plan.
    start = clock_type::now();
    QuerySession fresh(session.pcc());
    const GateId fresh_root = fresh.ReachabilityLineage(0, source, target);
    const double rebuilt = JunctionTreeEngine()
                               .Estimate(fresh.pcc().circuit(), fresh_root,
                                         fresh.pcc().events())
                               .value;
    rebuild_seconds += SecondsSince(start);

    if (std::fabs(repaired - rebuilt) > 1e-9) {
      std::fprintf(stderr, "STRUCTURAL MISMATCH on %s insert %zu: %.17g vs %.17g\n",
                   spec.Name().c_str(), i, repaired, rebuilt);
      std::abort();
    }
  }

  const incremental::IncrementalStats& stats = inc.stats();
  bench::BenchResult repair = Row("incremental/insert_repair/" + spec.Name(),
                                  repair_seconds, num_inserts);
  repair.counters = {
      {"speedup_vs_rebuild", rebuild_seconds / repair_seconds},
      {"decomposition_repairs",
       static_cast<double>(stats.decomposition_repairs)},
      {"decomposition_rebuilds",
       static_cast<double>(stats.decomposition_rebuilds)},
      {"patched_gates", static_cast<double>(stats.patched_gates)},
  };
  results->push_back(repair);
  PrintRow(results->back());

  results->push_back(Row("incremental/insert_rebuild/" + spec.Name(),
                         rebuild_seconds, num_inserts));
  PrintRow(results->back());
}

/// Durability costs over one spec: the WAL append tax on a probability
/// update, recovery (checkpoint load + replay) throughput, and the
/// full-state checkpoint write. The instance is loaded *through* the
/// durable path (every fact an InsertFact record), so recovery replays
/// realistic structural records too.
void BenchPersistence(const workloads::InstanceSpec& spec, size_t num_updates,
                      std::vector<bench::BenchResult>* results) {
  namespace fs = std::filesystem;
  const auto [source, target] = workloads::CanonicalEndpoints(spec);
  TidInstance tid = workloads::MakeInstance(spec);

  const std::string dir =
      (fs::temp_directory_path() / ("tud_bench_persist_" + spec.Name()))
          .string();
  fs::remove_all(dir);

  const persist::PersistOptions options;
  std::unique_ptr<persist::DurableSession> durable;
  if (persist::DurableSession::Create(dir, tid.instance().schema(), options,
                                      &durable) != EngineStatus::kOk) {
    std::fprintf(stderr, "persist bench: Create failed\n");
    std::abort();
  }
  for (FactId f = 0; f < tid.NumFacts(); ++f) {
    const Fact& fact = tid.instance().fact(f);
    if (durable->InsertFact(fact.relation, fact.args, tid.probability(f)) !=
        EngineStatus::kOk) {
      std::abort();
    }
  }
  if (durable->RegisterReachability(0, source, target) != EngineStatus::kOk)
    std::abort();
  double sink = durable->Probability(0).value;  // Warm plan + delta state.
  const size_t num_events = durable->session().pcc().events().size();

  // --- WAL append: the durable update stream (validate + encode + CRC
  // + write + apply per op), against a log that started at the load.
  double append_seconds;
  {
    Rng rng(107);
    const auto start = clock_type::now();
    for (size_t i = 0; i < num_updates; ++i) {
      if (durable->UpdateProbability(
              static_cast<EventId>(rng.UniformDouble() *
                                   static_cast<double>(num_events)),
              rng.UniformDouble()) != EngineStatus::kOk) {
        std::abort();
      }
    }
    append_seconds = SecondsSince(start);
  }
  if (durable->Sync() != EngineStatus::kOk) std::abort();
  const uint64_t wal_bytes = static_cast<uint64_t>(
      fs::file_size(dir + "/wal-" + std::to_string(durable->checkpoint_seq()) +
                    ".log"));
  sink += durable->Probability(0).value;
  durable.reset();

  bench::BenchResult append =
      Row("persist/wal_append/" + spec.Name(), append_seconds, num_updates);
  append.counters = {
      {"wal_bytes_per_record",
       static_cast<double>(wal_bytes) /
           static_cast<double>(num_updates + tid.NumFacts() + 1)},
  };
  results->push_back(append);
  PrintRow(results->back());

  // --- Recovery: load the (empty-state) checkpoint and replay the
  // whole log — inserts, the registration, and the update stream.
  const int kRecoverRounds = 3;
  persist::RecoveryStats stats;
  double recover_seconds;
  {
    const auto start = clock_type::now();
    for (int round = 0; round < kRecoverRounds; ++round) {
      std::unique_ptr<persist::DurableSession> recovered;
      if (persist::DurableSession::Recover(dir, options, &recovered,
                                           &stats) != EngineStatus::kOk) {
        std::fprintf(stderr, "persist bench: Recover failed\n");
        std::abort();
      }
      if (round + 1 == kRecoverRounds) durable = std::move(recovered);
    }
    recover_seconds = SecondsSince(start);
  }
  sink += durable->Probability(0).value;
  bench::BenchResult recover =
      Row("persist/recovery_replay/" + spec.Name(), recover_seconds,
          kRecoverRounds * stats.records_replayed);
  recover.counters = {
      {"records_replayed", static_cast<double>(stats.records_replayed)},
  };
  results->push_back(recover);
  PrintRow(results->back());

  // --- Checkpoint write: full-state serialization + fsync + rename +
  // WAL rotation, on the recovered session.
  const size_t kCheckpointOps = 8;
  double checkpoint_seconds;
  {
    const auto start = clock_type::now();
    for (size_t i = 0; i < kCheckpointOps; ++i) {
      if (durable->Checkpoint() != EngineStatus::kOk) std::abort();
    }
    checkpoint_seconds = SecondsSince(start);
  }
  const uint64_t ckpt_bytes = static_cast<uint64_t>(fs::file_size(
      dir + "/checkpoint-" + std::to_string(durable->checkpoint_seq()) +
      ".ckpt"));
  if (!std::isfinite(sink)) std::abort();
  durable.reset();
  fs::remove_all(dir);

  bench::BenchResult checkpoint =
      Row("persist/checkpoint_write/" + spec.Name(), checkpoint_seconds,
          kCheckpointOps);
  checkpoint.counters = {
      {"checkpoint_bytes", static_cast<double>(ckpt_bytes)},
  };
  results->push_back(checkpoint);
  PrintRow(results->back());
}

int Main(int argc, char** argv) {
  const size_t num_updates =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2000;
  const std::string out = argc > 2 ? argv[2] : "BENCH_incremental.json";
  std::vector<std::string> spec_names;
  for (int i = 3; i < argc; ++i) spec_names.push_back(argv[i]);
  if (spec_names.empty()) spec_names = {"ladder:48", "ktree:64x2"};

  // Structural inserts pay a full rebuild per op on the baseline side;
  // keep their count far below the probability-update stream.
  const size_t num_inserts =
      std::max<size_t>(std::min<size_t>(num_updates / 40, 60), 5);

  std::vector<bench::BenchResult> results;
  for (const std::string& name : spec_names) {
    auto spec = workloads::ParseInstanceSpec(name);
    if (!spec.has_value()) {
      std::fprintf(stderr, "unknown instance spec: %s\n", name.c_str());
      return 1;
    }
    BenchProbabilityUpdates(*spec, num_updates, &results);
    BenchStructuralInserts(*spec, num_inserts, &results);
    BenchPersistence(*spec, num_updates, &results);
  }

  if (!bench::Harness::WriteJson(results, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace tud

int main(int argc, char** argv) { return tud::Main(argc, argv); }

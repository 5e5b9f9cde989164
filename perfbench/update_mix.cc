// update-mix: writes beside reads. A DurableSession over ktree:64x2
// with kQueries registered reachability queries; one writer issues a
// seeded stream of about 96% UpdateProbability, 2% InsertFact
// (alternating covered and fresh-vertex inserts) and 2% DeleteFact, and
// each mutation is followed by one re-query of a zipf-chosen registered
// query. Reads therefore go through ExecuteDelta and plan re-builds,
// and this is the only workload that exercises the incremental and
// persist layers and decomposition repair.
//
// Durability policy (fixed across commits): the WAL is not fsynced per
// append, a checkpoint is written every kCheckpointEvery records, and
// the WAL is rotated at each checkpoint.
//
// Rounds of kOpsPerRound operations, each from a freshly created
// session directory, so the instance a round mutates does not depend on
// how many operations earlier rounds completed. The structural edits of
// a round follow one of kEditScripts fixed scripts in turn, so every run
// covers the same structural changes; the run seed drives the
// probability updates and the re-queries. Without that, the memory and
// plan rebuilds a round incurs vary several-fold with its edits.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common.h"
#include "inference/engine.h"
#include "persist/durable_session.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr char kSpec[] = "ktree:64x2";
constexpr size_t kQueries = 8;
constexpr size_t kOpsPerRound = 500;  // A multiple of kBlock.
constexpr size_t kWarmupOps = 250;
// Every block of kBlock operations holds exactly one insert and one
// delete at seeded positions; the rest are probability updates.
constexpr size_t kBlock = 50;
enum class OpKind { kUpdate, kInsert, kDelete };
constexpr double kTheta = 0.99;
constexpr uint64_t kCheckpointEvery = 256;
constexpr int kMinRounds = 3;
constexpr int kTracedCheckpoints = 2;
constexpr double kTolerance = 1e-12;
constexpr uint64_t kQuerySeed = 11;
constexpr uint64_t kEditSeed = 12;
constexpr uint64_t kEditScripts = 8;

struct LiveFact {
  tud::FactId fact;
  tud::EventId event;
  std::vector<tud::Value> args;
  double probability;
};

/// kQueries s-t pairs from low to high vertex ids whose reachability
/// probability is neither close to 0 nor to 1 on the instance. Query 0
/// is the most popular one in the re-query mix.
std::vector<std::pair<uint32_t, uint32_t>> ChooseQueries(
    const tud::TidInstance& tid, uint32_t n, uint64_t seed) {
  tud::QuerySession scratch = tud::QuerySession::FromCInstance(
      tid.ToPcInstance(), std::make_unique<tud::JunctionTreeEngine>());
  tud::Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> chosen;
  for (int attempt = 0; chosen.size() < kQueries && attempt < 10000;
       ++attempt) {
    const uint32_t source = static_cast<uint32_t>(rng.UniformInt(n / 8));
    const uint32_t target =
        n / 2 + static_cast<uint32_t>(rng.UniformInt(n - n / 2));
    bool seen = false;
    for (const auto& p : chosen) seen |= p == std::make_pair(source, target);
    if (seen) continue;
    const double p =
        scratch.Probability(scratch.ReachabilityLineage(0, source, target))
            .value;
    if (p > 0.02 && p < 0.98) chosen.emplace_back(source, target);
  }
  return chosen;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

void RunUpdateMix(const Options& options, Report& report) {
  // The instance is the named spec (its library default seed) and the
  // registered queries are fixed with it; the run seed drives the
  // mutation and re-query streams.
  const tud::workloads::InstanceSpec spec =
      *tud::workloads::ParseInstanceSpec(kSpec);
  const auto queries = ChooseQueries(tud::workloads::MakeInstance(spec),
                                     spec.n, kQuerySeed);
  if (queries.size() != kQueries) {
    report.Miss("update-mix: could not choose the registered queries");
    return;
  }

  tud::persist::PersistOptions persist_options;
  persist_options.checkpoint_every = kCheckpointEvery;
  persist_options.sync_each_append = false;
  persist_options.truncate_wal_on_checkpoint = true;

  report.Param("spec", kSpec);
  report.Param("registered_queries", static_cast<double>(kQueries));
  report.Param("ops_per_round", static_cast<double>(kOpsPerRound));
  report.Param("mix_update", 1.0 - 2.0 / kBlock);
  report.Param("mix_insert", 1.0 / kBlock);
  report.Param("mix_delete", 1.0 / kBlock);
  report.Param("inserts", "alternate covered / fresh-vertex");
  report.Param("requery", "one zipf(0.99)-chosen registered query per op");
  report.Param("checkpoint_every_records",
               static_cast<double>(kCheckpointEvery));
  report.Param("wal_fsync_per_append", "no");
  report.Param("wal_rotate_on_checkpoint", "yes");

  std::error_code ec;
  fs::create_directories(options.workdir, ec);
  std::vector<double> setup_s, recover_s, op_us, insert_op_us;
  double busy_us = 0;  // Time spent in timed untraced operations.
  std::vector<double> traced_op_us;
  Tracer tracer;

  RoundClock clock(options, kMinRounds);
  uint64_t stream = 0;
  bool replayed = false;
  for (int round = 0; clock.Next(); ++round, ++stream) {
    const bool warmup = clock.warmup();
    const bool traced = clock.traced();
    if (traced && !replayed) {
      // The traced half replays the untraced half's streams, so the two
      // medians differ only by the tracing.
      stream = 1;
      replayed = true;
    }
    const std::string dir =
        options.workdir + "/update-mix-" + std::to_string(round);
    fs::remove_all(dir, ec);

    // Set-up: create the durable session, load the instance through
    // it, register the queries and answer each once.
    const size_t heap_before = HeapBytes();
    const auto t0 = Clock::now();
    const tud::TidInstance tid = tud::workloads::MakeInstance(spec);
    std::unique_ptr<tud::persist::DurableSession> durable;
    if (tud::persist::DurableSession::Create(dir, tid.instance().schema(),
                                             persist_options, &durable) !=
        tud::EngineStatus::kOk) {
      report.Miss("update-mix: cannot create " + dir);
      return;
    }
    std::vector<LiveFact> live;
    for (tud::FactId f = 0; f < tid.NumFacts(); ++f) {
      const tud::Fact& fact = tid.instance().fact(f);
      tud::incremental::InsertedFact inserted;
      const bool ok = durable->InsertFact(fact.relation, fact.args,
                                          tid.probability(f), &inserted) ==
                      tud::EngineStatus::kOk;
      report.Attempt(ok);
      live.push_back({inserted.fact, inserted.event, fact.args,
                      tid.probability(f)});
    }
    for (const auto& [source, target] : queries) {
      report.Attempt(durable->RegisterReachability(0, source, target) ==
                     tud::EngineStatus::kOk);
    }
    for (size_t q = 0; q < kQueries; ++q)
      report.Attempt(durable->Probability(q).ok());
    if (!warmup) setup_s.push_back(SecondsSince(t0));

    // The stream.
    // Structure (which operations are inserts and deletes, and what
    // they insert and delete) follows one of kEditScripts fixed scripts
    // in turn; the run seed drives the probability updates and the
    // re-query choices.
    tud::Rng edits(DeriveSeed(kEditSeed, stream % kEditScripts));
    tud::Rng rng(DeriveSeed(options.seed, 100 + stream));
    tud::workloads::ZipfianGenerator zipf(kQueries, kTheta);
    uint32_t next_vertex = static_cast<uint32_t>(
        durable->session().pcc().instance().DomainSize());
    const tud::incremental::IncrementalStats& stats =
        durable->incremental().stats();
    const tud::incremental::IncrementalStats before = stats;
    const size_t builds_before = durable->incremental().plan_cache().builds();
    uint64_t last_checkpoint = durable->checkpoint_seq();
    uint64_t checkpoint_lsn = 0;
    size_t inserts = 0;
    const size_t n = warmup ? kWarmupOps : kOpsPerRound;
    std::vector<double> round_us, round_insert_us;
    round_us.reserve(n);
    round_insert_us.reserve(n / kBlock);
    std::vector<OpKind> block;
    for (size_t i = 0; i < n; ++i) {
      if (i % kBlock == 0) {
        block.assign(kBlock, OpKind::kUpdate);
        block[0] = OpKind::kInsert;
        block[1] = OpKind::kDelete;
        for (size_t k = kBlock; k > 1; --k)
          std::swap(block[k - 1], block[edits.UniformInt(k)]);
      }
      const OpKind kind = block[i % kBlock];
      const char* layer = "incremental.update_us";
      tud::EngineStatus status = tud::EngineStatus::kOk;
      if (traced) tracer.BeginOp();
      const auto a = Clock::now();
      if (kind == OpKind::kUpdate) {
        LiveFact& target = live[rng.UniformInt(live.size())];
        target.probability = 0.05 + 0.9 * rng.UniformDouble();
        status = durable->UpdateProbability(target.event, target.probability);
      } else if (kind == OpKind::kInsert) {
        std::vector<tud::Value> args;
        if (inserts++ % 2 == 0) {
          args = live[edits.UniformInt(live.size())].args;  // Covered.
        } else {
          const auto anchor =
              static_cast<tud::Value>(edits.UniformInt(next_vertex));
          args = {anchor, next_vertex++};  // A fresh vertex.
        }
        const double probability = 0.3 + 0.4 * rng.UniformDouble();
        tud::incremental::InsertedFact inserted;
        status = durable->InsertFact(0, args, probability, &inserted);
        live.push_back({inserted.fact, inserted.event, std::move(args),
                        probability});
        layer = "incremental.insert_us";
      } else {
        const size_t victim = edits.UniformInt(live.size());
        status = durable->DeleteFact(live[victim].fact);
        live[victim] = std::move(live.back());
        live.pop_back();
        layer = "incremental.delete_us";
      }
      const auto b = Clock::now();
      const uint64_t deltas_before = stats.delta_executes;
      const uint64_t bags_before = stats.bags_recomputed;
      const tud::EngineResult result =
          durable->Probability(zipf.Next(rng));
      const auto c = Clock::now();
      report.Attempt(status == tud::EngineStatus::kOk && result.ok());

      const double us = MicrosBetween(a, c);
      round_us.push_back(us);
      if (kind == OpKind::kInsert) round_insert_us.push_back(us);
      if (durable->checkpoint_seq() != last_checkpoint) {
        last_checkpoint = durable->checkpoint_seq();
        checkpoint_lsn = durable->next_lsn();
      }
      if (traced) {
        tracer.Span(layer, MicrosBetween(a, b));
        tracer.Span("inference.delta_us", MicrosBetween(b, c));
        tracer.EndOp();
        if (stats.delta_executes > deltas_before) {
          tracer.Sample("inference.delta_bags",
                        static_cast<double>(stats.bags_recomputed -
                                            bags_before));
        }
      }
    }
    if (!warmup) {
      report.SampleHeap(heap_before);
      auto& all_us = traced ? traced_op_us : op_us;
      all_us.insert(all_us.end(), round_us.begin(), round_us.end());
      if (!traced) {
        busy_us += Sum(round_us);
        insert_op_us.insert(insert_op_us.end(), round_insert_us.begin(),
                            round_insert_us.end());
      }
    }

    if (traced) {
      const double deltas =
          static_cast<double>(stats.delta_executes - before.delta_executes);
      const double fulls =
          static_cast<double>(stats.full_executes - before.full_executes);
      const double builds = static_cast<double>(
          durable->incremental().plan_cache().builds() - builds_before);
      tracer.Sample("incremental.repairs",
                    static_cast<double>(stats.decomposition_repairs -
                                        before.decomposition_repairs));
      tracer.Sample("incremental.rebuilds",
                    static_cast<double>(stats.decomposition_rebuilds -
                                        before.decomposition_rebuilds));
      tracer.Sample("incremental.plans_invalidated",
                    static_cast<double>(stats.plans_invalidated -
                                        before.plans_invalidated));
      tracer.Sample("inference.delta_share", deltas / (deltas + fulls));
      tracer.Sample("inference.plan_builds", builds);
      tracer.Sample("inference.plan_hit_ratio",
                    1.0 - builds / static_cast<double>(n));
      const uint64_t records = durable->next_lsn() - checkpoint_lsn;
      if (checkpoint_lsn > 0 && records > 0) {
        tracer.Sample(
            "persist.wal_bytes_per_op",
            static_cast<double>(FileSize(
                dir + "/wal-" + std::to_string(last_checkpoint) + ".log")) /
                static_cast<double>(records));
      }
    }

    // Correctness gate 1: recovery from the directory answers every
    // query bit for bit as the live session does.
    std::vector<double> live_answers;
    for (size_t q = 0; q < kQueries; ++q) {
      const tud::EngineResult r = durable->Probability(q);
      report.Attempt(r.ok());
      live_answers.push_back(r.value);
    }
    durable.reset();
    const auto r0 = Clock::now();
    std::unique_ptr<tud::persist::DurableSession> recovered;
    tud::persist::RecoveryStats recovery;
    const bool recovered_ok =
        tud::persist::DurableSession::Recover(dir, persist_options,
                                              &recovered, &recovery) ==
        tud::EngineStatus::kOk;
    const double recover_time = SecondsSince(r0);
    report.Attempt(recovered_ok);
    if (!recovered_ok) {
      report.Miss("update-mix: recovery of " + dir + " failed");
      return;
    }
    if (!warmup) recover_s.push_back(recover_time);
    for (size_t q = 0; q < kQueries; ++q) {
      const tud::EngineResult r = recovered->Probability(q);
      report.Attempt(r.ok());
      if (r.ok() && r.value != live_answers[q]) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "update-mix round %d query %zu: recovered %.17g vs "
                      "live %.17g",
                      round, q, r.value, live_answers[q]);
        report.Miss(buf);
      }
    }
    if (traced) {
      if (recovery.records_replayed > 0) {
        tracer.Sample("persist.replay_us_per_record",
                      recover_time * 1e6 /
                          static_cast<double>(recovery.records_replayed));
      }
      for (int k = 0; k < kTracedCheckpoints; ++k) {
        const auto c0 = Clock::now();
        report.Attempt(recovered->Checkpoint() == tud::EngineStatus::kOk);
        tracer.Sample("persist.checkpoint_us",
                      MicrosBetween(c0, Clock::now()));
      }
    }
    recovered.reset();
    fs::remove_all(dir, ec);

    // Correctness gate 2: a from-scratch session over the final
    // instance (the live facts with their current probabilities).
    const auto f0 = Clock::now();
    tud::TidInstance final_tid(tid.instance().schema());
    for (const LiveFact& fact : live)
      final_tid.AddFact(0, fact.args, fact.probability);
    tud::QuerySession fresh = tud::QuerySession::FromCInstance(
        final_tid.ToPcInstance(), std::make_unique<tud::JunctionTreeEngine>());
    const auto f1 = Clock::now();
    const int width = fresh.Decomposition().width;
    const auto f2 = Clock::now();
    if (traced) {
      tracer.Sample("relational.open_us", MicrosBetween(f0, f1));
      tracer.Sample("treedec.decompose_us", MicrosBetween(f1, f2));
      tracer.Sample("treedec.width", width);
    }
    for (size_t q = 0; q < kQueries; ++q) {
      const size_t gates_before = fresh.pcc().circuit().NumGates();
      const auto l0 = Clock::now();
      const tud::GateId root =
          fresh.ReachabilityLineage(0, queries[q].first, queries[q].second);
      if (traced) {
        tracer.Sample("queries.lineage_us", MicrosBetween(l0, Clock::now()));
        tracer.Sample("queries.lineage_gates",
                      static_cast<double>(fresh.pcc().circuit().NumGates() -
                                          gates_before));
      }
      const tud::EngineResult ref = fresh.Probability(root);
      double expected = ref.value;
      if (options.corrupt_reference && q == 0) expected += 1e-6;
      if (!ref.ok() ||
          !(std::fabs(expected - live_answers[q]) <= kTolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "update-mix round %d query %zu: live %.17g vs "
                      "from-scratch %.17g",
                      round, q, live_answers[q], expected);
        report.Miss(buf);
      }
    }
  }
  fs::remove_all(options.workdir, ec);

  if (!options.trace) {
    report.Metric("ops_per_s",
                  static_cast<double>(op_us.size()) * 1e6 / busy_us);
    report.Metric("p50_us", Quantile(op_us, 0.5));
    report.Metric("p90_us", Quantile(op_us, 0.9));
    report.Metric("setup_s", Median(setup_s));
    return;
  }
  for (const char* name :
       {"relational.open_us", "treedec.decompose_us", "treedec.width",
        "queries.lineage_us", "queries.lineage_gates", "inference.delta_us",
        "inference.delta_bags", "inference.delta_share",
        "inference.plan_builds", "inference.plan_hit_ratio",
        "incremental.update_us", "incremental.insert_us",
        "incremental.delete_us", "incremental.repairs",
        "incremental.rebuilds", "incremental.plans_invalidated",
        "persist.wal_bytes_per_op", "persist.checkpoint_us",
        "persist.replay_us_per_record"}) {
    report.Metric(name, tracer.Median(name));
  }
  report.Metric("incremental.insert_p50_us", Median(insert_op_us));
  report.Metric("persist.recover_s", Median(recover_s));
  ReportTraceSummary(op_us, traced_op_us, tracer, report);
}

}  // namespace perfbench

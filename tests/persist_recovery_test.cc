// Crash recovery, pinned the hard way:
//  - the crash-point fuzz: a scripted workload is run once to
//    completion, then the directory is "crashed" at *every* WAL record
//    boundary (and mid-record, the torn-tail shape) and recovered; the
//    recovered probabilities must be bit-identical to an in-memory
//    oracle that applied exactly the surviving prefix;
//  - injected I/O faults (short writes, failed fsync, bit flips —
//    TUD_FAULT_INJECTION builds): an append stream under fire loses
//    only unacknowledged mutations, a checkpoint that fails mid-write
//    is invisible to recovery, and a bit flip on disk is always a typed
//    kIoError, never a silently wrong answer;
//  - recovered state plugs back into serving: PublishSnapshot +
//    ServingSession answers over the epoch source match the oracle.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "persist/durable_session.h"
#include "persist/wal.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "uncertain/pcc_instance.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace tud {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tud_recovery_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

Schema EdgeSchema() {
  Schema schema;
  schema.AddRelation("E", 2);
  return schema;
}

// The scripted workload, expressed directly (each step is one WAL
// record, so step index == LSN). Kept small enough that the crash-point
// fuzz — which recovers O(steps) directories and replays O(steps^2)
// records — stays fast, while still covering every record type and
// both covered and cone-growing structural updates.
struct Step {
  enum Kind {
    kInsert,
    kDelete,
    kUpdateProb,
    kSetProb,
    kRegisterEvent,
    kRegisterReach,
    kPublish,
  } kind = kInsert;
  std::vector<Value> args;
  double probability = 0.5;
  size_t insert_index = 0;
  EventId event = 0;
  std::string name;
  Value source = 0, target = 0;
};

std::vector<Step> Script() {
  std::vector<Step> steps;
  auto insert = [&](Value a, Value b, double p) {
    Step s;
    s.kind = Step::kInsert;
    s.args = {a, b};
    s.probability = p;
    steps.push_back(s);
  };
  insert(0, 1, 0.5);
  insert(1, 2, 0.625);
  insert(2, 3, 0.75);
  insert(0, 2, 0.375);
  {
    Step s;
    s.kind = Step::kRegisterReach;
    s.source = 0;
    s.target = 3;
    steps.push_back(s);
  }
  {
    Step s;
    s.kind = Step::kRegisterEvent;
    s.name = "supply";
    s.probability = 0.9;
    steps.push_back(s);
  }
  insert(1, 3, 0.5);     // Covered insert.
  insert(3, 4, 0.8125);  // Cone-growing insert.
  {
    Step s;
    s.kind = Step::kUpdateProb;
    s.event = 1;
    s.probability = 0.3125;
    steps.push_back(s);
  }
  {
    Step s;
    s.kind = Step::kPublish;
    steps.push_back(s);
  }
  {
    Step s;
    s.kind = Step::kDelete;
    s.insert_index = 4;  // The covered (1,3) insert.
    steps.push_back(s);
  }
  {
    Step s;
    s.kind = Step::kSetProb;
    s.event = 0;
    s.probability = 0.4375;
    steps.push_back(s);
  }
  insert(2, 4, 0.5625);
  {
    Step s;
    s.kind = Step::kUpdateProb;
    s.event = 2;
    s.probability = 0.6875;
    steps.push_back(s);
  }
  return steps;
}

/// Applies steps[0..count). `on_durable` drives a DurableSession (all
/// steps must be accepted); otherwise the in-memory oracle.
struct Runner {
  DurableSession* durable = nullptr;
  QuerySession* oracle_session = nullptr;
  incremental::IncrementalSession* oracle_inc = nullptr;
  incremental::EpochManager* epochs = nullptr;
  std::vector<incremental::InsertedFact> inserted;
  std::vector<incremental::QueryId> queries;

  void Apply(const std::vector<Step>& steps, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const Step& s = steps[i];
      switch (s.kind) {
        case Step::kInsert:
          if (durable != nullptr) {
            incremental::InsertedFact out;
            ASSERT_EQ(durable->InsertFact(0, s.args, s.probability, &out),
                      EngineStatus::kOk)
                << "step " << i;
            inserted.push_back(out);
          } else {
            inserted.push_back(
                oracle_inc->InsertFact(0, s.args, s.probability));
          }
          break;
        case Step::kDelete:
          if (durable != nullptr) {
            ASSERT_EQ(durable->DeleteFact(inserted[s.insert_index].fact),
                      EngineStatus::kOk)
                << "step " << i;
          } else {
            oracle_inc->DeleteFact(inserted[s.insert_index].fact);
          }
          break;
        case Step::kUpdateProb:
          if (durable != nullptr) {
            ASSERT_EQ(durable->UpdateProbability(s.event, s.probability),
                      EngineStatus::kOk)
                << "step " << i;
          } else {
            oracle_inc->UpdateProbability(s.event, s.probability);
          }
          break;
        case Step::kSetProb:
          if (durable != nullptr) {
            ASSERT_EQ(durable->SetProbability(s.event, s.probability),
                      EngineStatus::kOk)
                << "step " << i;
          } else {
            oracle_session->UpdateProbability(s.event, s.probability);
          }
          break;
        case Step::kRegisterEvent:
          if (durable != nullptr) {
            ASSERT_EQ(durable->RegisterEvent(s.name, s.probability),
                      EngineStatus::kOk)
                << "step " << i;
          } else {
            oracle_session->pcc().events().Register(s.name, s.probability);
          }
          break;
        case Step::kRegisterReach:
          if (durable != nullptr) {
            incremental::QueryId q = 0;
            ASSERT_EQ(
                durable->RegisterReachability(0, s.source, s.target, &q),
                EngineStatus::kOk)
                << "step " << i;
            queries.push_back(q);
          } else {
            queries.push_back(
                oracle_inc->RegisterReachability(0, s.source, s.target));
          }
          break;
        case Step::kPublish:
          if (durable != nullptr) {
            ASSERT_EQ(durable->PublishSnapshot(*epochs), EngineStatus::kOk)
                << "step " << i;
          }
          // The oracle skips epoch markers: they change no answer.
          break;
      }
    }
  }
};

struct OracleState {
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<incremental::IncrementalSession> inc;
  Runner runner;

  explicit OracleState(size_t prefix) {
    session = std::make_unique<QuerySession>(PccInstance(EdgeSchema()));
    inc = std::make_unique<incremental::IncrementalSession>(*session);
    runner.oracle_session = session.get();
    runner.oracle_inc = inc.get();
    runner.Apply(Script(), prefix);
  }
};

void CopyDir(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from))
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename());
}

/// Byte offsets of each record boundary in a WAL file: boundary[i] is
/// the offset just past record i-1 (boundary[0] = header). Derived by
/// re-encoding the records a clean read returns — the writer framed
/// them the same way.
std::vector<uint64_t> RecordBoundaries(const std::string& wal_path,
                                       size_t expected_records) {
  const WalReadResult read = ReadWal(wal_path);
  EXPECT_EQ(read.status, EngineStatus::kOk);
  EXPECT_EQ(read.records.size(), expected_records);
  std::vector<uint64_t> boundaries;
  uint64_t offset = 24;  // File header.
  boundaries.push_back(offset);
  for (const WalRecord& r : read.records) {
    offset += 8 + EncodeWalRecord(r).size();
    boundaries.push_back(offset);
  }
  EXPECT_EQ(offset, read.valid_bytes);
  return boundaries;
}

// The tentpole acceptance test: kill the session at every record
// boundary and in the middle of every record; the recovered state must
// be bit-identical to an uncrashed run of the surviving prefix.
TEST(CrashPointFuzzTest, EveryBoundaryRecoversBitIdentical) {
  const std::vector<Step> steps = Script();
  const std::string master = FreshDir("fuzz_master");
  {
    incremental::EpochManager epochs;
    std::unique_ptr<DurableSession> durable;
    ASSERT_EQ(DurableSession::Create(master, EdgeSchema(), PersistOptions{},
                                     &durable),
              EngineStatus::kOk);
    Runner runner;
    runner.durable = durable.get();
    runner.epochs = &epochs;
    runner.Apply(steps, steps.size());
    ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  }
  const std::vector<uint64_t> boundaries =
      RecordBoundaries(master + "/wal-0.log", steps.size());

  for (size_t i = 0; i <= steps.size(); ++i) {
    // Crash exactly at boundary i: records [0, i) survive.
    const std::string crashed =
        FreshDir("fuzz_at_" + std::to_string(i));
    CopyDir(master, crashed);
    fs::resize_file(crashed + "/wal-0.log", boundaries[i]);

    RecoveryStats stats;
    std::unique_ptr<DurableSession> recovered;
    ASSERT_EQ(DurableSession::Recover(crashed, PersistOptions{}, &recovered,
                                      &stats),
              EngineStatus::kOk)
        << "boundary " << i;
    EXPECT_EQ(stats.records_replayed, i) << "boundary " << i;
    EXPECT_EQ(recovered->next_lsn(), i) << "boundary " << i;

    OracleState oracle(i);
    ASSERT_EQ(oracle.runner.queries.size(),
              recovered->incremental().num_queries());
    for (size_t q = 0; q < oracle.runner.queries.size(); ++q) {
      const EngineResult want =
          oracle.inc->Probability(oracle.runner.queries[q]);
      const EngineResult got = recovered->Probability(q);
      ASSERT_EQ(got.status, EngineStatus::kOk) << "boundary " << i;
      EXPECT_EQ(got.value, want.value)
          << "boundary " << i << " query " << q;
    }

    // The recovered session must keep accepting durable mutations
    // (the writer re-armed on the truncated log).
    if (recovered->session().pcc().events().size() > 0) {
      ASSERT_EQ(recovered->UpdateProbability(0, 0.5), EngineStatus::kOk)
          << "boundary " << i;
    } else {
      ASSERT_EQ(recovered->InsertFact(0, {0, 1}, 0.5), EngineStatus::kOk)
          << "boundary " << i;
    }
    recovered.reset();
    fs::remove_all(crashed);

    // Crash *inside* record i (torn tail): same surviving prefix, plus
    // a truncation recovery must report.
    if (i < steps.size()) {
      const uint64_t frame = boundaries[i + 1] - boundaries[i];
      const std::string torn =
          FreshDir("fuzz_torn_" + std::to_string(i));
      CopyDir(master, torn);
      fs::resize_file(torn + "/wal-0.log", boundaries[i] + frame / 2);

      RecoveryStats torn_stats;
      std::unique_ptr<DurableSession> torn_recovered;
      ASSERT_EQ(DurableSession::Recover(torn, PersistOptions{},
                                        &torn_recovered, &torn_stats),
                EngineStatus::kOk)
          << "torn " << i;
      EXPECT_EQ(torn_stats.records_replayed, i) << "torn " << i;
      EXPECT_GT(torn_stats.torn_bytes_truncated, 0u) << "torn " << i;
      EXPECT_EQ(torn_recovered->next_lsn(), i) << "torn " << i;

      OracleState torn_oracle(i);
      for (size_t q = 0; q < torn_oracle.runner.queries.size(); ++q) {
        const EngineResult want =
            torn_oracle.inc->Probability(torn_oracle.runner.queries[q]);
        const EngineResult got = torn_recovered->Probability(q);
        EXPECT_EQ(got.value, want.value) << "torn " << i << " query " << q;
      }
      torn_recovered.reset();
      fs::remove_all(torn);
    }
  }
  fs::remove_all(master);
}

// A flipped bit anywhere in a record that is *not* the final one can
// never look like a torn tail: recovery must answer kIoError, and must
// never abort or return a session.
TEST(CrashPointFuzzTest, MidLogBitFlipIsTypedIoError) {
  const std::vector<Step> steps = Script();
  const std::string master = FreshDir("flip_master");
  {
    incremental::EpochManager epochs;
    std::unique_ptr<DurableSession> durable;
    ASSERT_EQ(DurableSession::Create(master, EdgeSchema(), PersistOptions{},
                                     &durable),
              EngineStatus::kOk);
    Runner runner;
    runner.durable = durable.get();
    runner.epochs = &epochs;
    runner.Apply(steps, steps.size());
    ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  }
  const std::vector<uint64_t> boundaries =
      RecordBoundaries(master + "/wal-0.log", steps.size());

  // Flip one bit inside each non-final record's frame.
  for (size_t i = 0; i + 1 < steps.size(); ++i) {
    const std::string flipped =
        FreshDir("flip_" + std::to_string(i));
    CopyDir(master, flipped);
    {
      std::fstream f(flipped + "/wal-0.log",
                     std::ios::in | std::ios::out | std::ios::binary);
      const uint64_t pos = boundaries[i] + (boundaries[i + 1] -
                                            boundaries[i]) / 2;
      f.seekg(static_cast<std::streamoff>(pos));
      char byte = 0;
      f.read(&byte, 1);
      byte ^= 0x10;
      f.seekp(static_cast<std::streamoff>(pos));
      f.write(&byte, 1);
    }
    std::unique_ptr<DurableSession> recovered;
    EXPECT_EQ(DurableSession::Recover(flipped, PersistOptions{}, &recovered,
                                      nullptr),
              EngineStatus::kIoError)
        << "record " << i;
    EXPECT_EQ(recovered, nullptr);
    fs::remove_all(flipped);
  }
  fs::remove_all(master);
}

// Recovered state must plug straight back into the serving stack:
// publish an epoch from the recovered session and answer through
// ServingSession over the epoch source, bit-identical to the oracle.
TEST(RecoveredServingTest, RecoveredSessionServesEpochs) {
  const std::vector<Step> steps = Script();
  const std::string dir = FreshDir("serve");
  {
    incremental::EpochManager epochs;
    std::unique_ptr<DurableSession> durable;
    ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                     &durable),
              EngineStatus::kOk);
    Runner runner;
    runner.durable = durable.get();
    runner.epochs = &epochs;
    runner.Apply(steps, steps.size());
    ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  }

  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    nullptr),
            EngineStatus::kOk);

  incremental::EpochManager epochs;
  ASSERT_EQ(recovered->PublishSnapshot(epochs), EngineStatus::kOk);

  OracleState oracle(steps.size());
  serving::ServingOptions options;
  options.num_threads = 2;
  serving::ServingSession serving(epochs, options);
  for (size_t q = 0; q < oracle.runner.queries.size(); ++q) {
    const EngineResult want =
        oracle.inc->Probability(oracle.runner.queries[q]);
    const EngineResult got = serving.Submit(q).get();
    ASSERT_EQ(got.status, EngineStatus::kOk);
    EXPECT_EQ(got.value, want.value) << "query " << q;
  }
  serving.Drain();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Injected I/O faults (TUD_FAULT_INJECTION builds)
// ---------------------------------------------------------------------------

// An append stream under injected short writes: the session reports
// kIoError from the failing append on, and recovery reconstructs
// exactly the acknowledged prefix — the torn half-frame the fault left
// on disk is truncated, not misread.
TEST(IoFaultTest, ShortWriteLosesOnlyUnacknowledgedMutations) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  const std::string dir = FreshDir("short_write");
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);

  size_t acknowledged = 0;
  {
    fault::Config config;
    config.io_write_failure_probability = 0.12;
    config.seed = 19;
    fault::ScopedFaultInjection scope(config);
    for (Value v = 0; v < 64; ++v) {
      const EngineStatus status =
          durable->InsertFact(0, {v, v + 1}, 0.5);
      if (status != EngineStatus::kOk) {
        EXPECT_EQ(status, EngineStatus::kIoError);
        break;
      }
      ++acknowledged;
    }
    // The stream is long enough that the fault must have fired.
    ASSERT_LT(acknowledged, 64u);
    EXPECT_TRUE(durable->writer_broken());
    // Once broken, every further mutation fails typed.
    EXPECT_EQ(durable->InsertFact(0, {99, 100}, 0.5),
              EngineStatus::kIoError);
  }
  durable.reset();

  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    &stats),
            EngineStatus::kOk);
  EXPECT_EQ(stats.records_replayed, acknowledged);
  EXPECT_GT(stats.torn_bytes_truncated, 0u);
  EXPECT_EQ(recovered->session().pcc().NumFacts(), acknowledged);
  fs::remove_all(dir);
}

// A checkpoint whose write or fsync fails must stay invisible: the
// .tmp file is never renamed, Checkpoint() reports kIoError, and
// recovery proceeds from the previous checkpoint + full WAL.
TEST(IoFaultTest, FailedCheckpointIsInvisibleToRecovery) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  const std::string dir = FreshDir("ckpt_fault");
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  for (Value v = 0; v < 8; ++v)
    ASSERT_EQ(durable->InsertFact(0, {v, v + 1}, 0.5), EngineStatus::kOk);
  ASSERT_EQ(durable->RegisterReachability(0, 0, 8), EngineStatus::kOk);

  {
    fault::Config config;
    config.io_write_failure_probability = 1.0;
    config.seed = 5;
    fault::ScopedFaultInjection scope(config);
    EXPECT_EQ(durable->Checkpoint(), EngineStatus::kIoError);
  }
  EXPECT_EQ(durable->checkpoint_seq(), 0u);
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  durable.reset();

  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    &stats),
            EngineStatus::kOk);
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.records_replayed, 9u);
  EXPECT_EQ(recovered->session().pcc().NumFacts(), 8u);
  fs::remove_all(dir);
}

// An injected bit flip corrupts the payload *after* its checksum was
// computed — the on-disk record carries a CRC that no longer matches.
// The write itself succeeds (the fault is silent), so the session keeps
// going; the flip must surface at recovery as a typed kIoError.
TEST(IoFaultTest, SilentBitFlipSurfacesAtRecovery) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  const std::string dir = FreshDir("bit_flip");
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  {
    fault::Config config;
    config.io_bit_flip_probability = 1.0;  // Every append is corrupted.
    config.seed = 3;
    fault::ScopedFaultInjection scope(config);
    // The append succeeds — the corruption is silent by design.
    ASSERT_EQ(durable->InsertFact(0, {0, 1}, 0.5), EngineStatus::kOk);
    EXPECT_GT(fault::BitFlips(), 0u);
  }
  // A second, clean record behind the corrupt one makes the damage
  // mid-log: unrecoverable, typed.
  ASSERT_EQ(durable->InsertFact(0, {1, 2}, 0.5), EngineStatus::kOk);
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  durable.reset();

  std::unique_ptr<DurableSession> recovered;
  EXPECT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    nullptr),
            EngineStatus::kIoError);
  fs::remove_all(dir);
}

// Failed fsync: the sync (and the mutation that triggered it with
// sync_each_append) reports kIoError and the writer is broken —
// durability is never silently downgraded.
TEST(IoFaultTest, FailedFsyncBreaksTheWriterTyped) {
  if (!fault::kEnabled) GTEST_SKIP() << "built without TUD_FAULT_INJECTION";
  const std::string dir = FreshDir("fsync_fault");
  PersistOptions options;
  options.sync_each_append = true;
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), options, &durable),
            EngineStatus::kOk);
  ASSERT_EQ(durable->InsertFact(0, {0, 1}, 0.5), EngineStatus::kOk);
  {
    fault::Config config;
    config.io_flush_failure_probability = 1.0;
    config.seed = 11;
    fault::ScopedFaultInjection scope(config);
    EXPECT_EQ(durable->InsertFact(0, {1, 2}, 0.5), EngineStatus::kIoError);
    EXPECT_GT(fault::FlushFailures(), 0u);
  }
  EXPECT_TRUE(durable->writer_broken());
  EXPECT_EQ(durable->InsertFact(0, {2, 3}, 0.5), EngineStatus::kIoError);
  durable.reset();

  // The record whose fsync failed may or may not have reached the file
  // (here: it did, fsync happens after write) — either way recovery is
  // clean and keeps a coherent prefix.
  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    &stats),
            EngineStatus::kOk);
  EXPECT_GE(stats.records_replayed, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace persist
}  // namespace tud

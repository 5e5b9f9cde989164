// The persistence layer's unit contracts:
//  - CRC32C against the published test vectors;
//  - WAL record round-trips for every record type, torn-tail
//    discrimination (a truncated final record recovers kOk, dropping
//    exactly the torn bytes) vs mid-log corruption (kIoError, never a
//    silently shortened log);
//  - checkpoint round-trips and corruption detection;
//  - DurableSession ordering: a mutation the session rejects leaves no
//    WAL record (append-after-validate), and acknowledged mutations
//    survive Recover bit-identically;
//  - replay idempotence: recovering twice, and recovering a log whose
//    head duplicates checkpointed records (truncate_wal_on_checkpoint
//    off), both land on the same state as the uncrashed session;
//  - randomized mutation streams vs an in-memory oracle.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "incremental/incremental_session.h"
#include "persist/checkpoint.h"
#include "persist/codec.h"
#include "persist/durable_session.h"
#include "persist/wal.h"
#include "queries/conjunctive_query.h"
#include "queries/lineage.h"
#include "queries/query_session.h"
#include "uncertain/pcc_instance.h"
#include "util/budget.h"
#include "util/rng.h"

namespace tud {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tud_persist_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

Schema EdgeSchema() {
  Schema schema;
  schema.AddRelation("E", 2);
  return schema;
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / Castagnoli reference vectors.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check.data()),
                   check.size()),
            0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SingleBitFlipChangesSum) {
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t bit = 0; bit < data.size() * 8; bit += 37) {
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> records;
  {
    WalRecord r;
    r.type = WalRecordType::kRegisterEvent;
    r.name = "sensor";
    r.probability = 0.25;
    r.event = 3;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kSetProbability;
    r.event = 1;
    r.probability = 0.5;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kUpdateProbability;
    r.event = 2;
    r.probability = 0.875;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kInsertFact;
    r.relation = 0;
    r.args = {4, 7};
    r.probability = 0.625;
    r.fact = 9;
    r.event = 11;
    r.root = 23;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kDeleteFact;
    r.fact = 9;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kEpochPublish;
    r.epoch = 17;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kRegisterCq;
    r.cq.AddAtom(0, {Term::V(0), Term::C(5)});
    r.root = 31;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kRegisterReachability;
    r.relation = 0;
    r.source = 0;
    r.target = 6;
    r.root = 37;
    records.push_back(r);
  }
  return records;
}

void ExpectRecordsEqual(const WalRecord& got, const WalRecord& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.probability, want.probability);
  EXPECT_EQ(got.event, want.event);
  EXPECT_EQ(got.relation, want.relation);
  EXPECT_EQ(got.args, want.args);
  EXPECT_EQ(got.fact, want.fact);
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.epoch, want.epoch);
  ASSERT_EQ(got.cq.NumAtoms(), want.cq.NumAtoms());
  for (size_t a = 0; a < got.cq.NumAtoms(); ++a) {
    EXPECT_EQ(got.cq.atom(a).relation, want.cq.atom(a).relation);
    ASSERT_EQ(got.cq.atom(a).terms.size(), want.cq.atom(a).terms.size());
    for (size_t t = 0; t < got.cq.atom(a).terms.size(); ++t)
      EXPECT_TRUE(got.cq.atom(a).terms[t] == want.cq.atom(a).terms[t]);
  }
}

TEST(WalTest, RoundTripsEveryRecordType) {
  const std::string dir = FreshDir("wal_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/wal-0.log";

  const std::vector<WalRecord> records = SampleRecords();
  {
    std::unique_ptr<WalWriter> writer;
    ASSERT_EQ(WalWriter::Create(path, 5, WalOptions{}, &writer),
              EngineStatus::kOk);
    for (const WalRecord& r : records)
      ASSERT_EQ(writer->Append(r), EngineStatus::kOk);
    ASSERT_EQ(writer->Sync(), EngineStatus::kOk);
    EXPECT_EQ(writer->next_lsn(), 5 + records.size());
  }

  const WalReadResult read = ReadWal(path);
  ASSERT_EQ(read.status, EngineStatus::kOk);
  EXPECT_EQ(read.base_lsn, 5u);
  EXPECT_EQ(read.torn_bytes, 0u);
  ASSERT_EQ(read.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read.records[i].lsn, 5 + i);
    ExpectRecordsEqual(read.records[i], records[i]);
  }
  fs::remove_all(dir);
}

TEST(WalTest, TornTailRecoversPrefixAndTruncates) {
  const std::string dir = FreshDir("wal_torn");
  fs::create_directories(dir);
  const std::string path = dir + "/wal-0.log";

  const std::vector<WalRecord> records = SampleRecords();
  std::unique_ptr<WalWriter> writer;
  ASSERT_EQ(WalWriter::Create(path, 0, WalOptions{}, &writer),
            EngineStatus::kOk);
  for (const WalRecord& r : records)
    ASSERT_EQ(writer->Append(r), EngineStatus::kOk);
  writer.reset();

  const uint64_t full_size = fs::file_size(path);
  const WalReadResult clean = ReadWal(path);
  ASSERT_EQ(clean.status, EngineStatus::kOk);
  ASSERT_EQ(clean.valid_bytes, full_size);

  // Chop the file anywhere strictly inside the final record: the
  // reader must hand back exactly the other records, flag the torn
  // bytes, and TruncateToValidPrefix must leave a clean log.
  const uint64_t last_frame =
      8 + EncodeWalRecord(records.back()).size();
  for (uint64_t cut = 1; cut < last_frame; cut += 3) {
    fs::resize_file(path, full_size - cut);
    const WalReadResult torn = ReadWal(path);
    ASSERT_EQ(torn.status, EngineStatus::kOk) << "cut " << cut;
    EXPECT_EQ(torn.records.size(), records.size() - 1);
    EXPECT_EQ(torn.torn_bytes, last_frame - cut);
    EXPECT_EQ(torn.valid_bytes + torn.torn_bytes, full_size - cut);

    ASSERT_EQ(TruncateToValidPrefix(path, torn.valid_bytes),
              EngineStatus::kOk);
    const WalReadResult after = ReadWal(path);
    ASSERT_EQ(after.status, EngineStatus::kOk);
    EXPECT_EQ(after.records.size(), records.size() - 1);
    EXPECT_EQ(after.torn_bytes, 0u);
    // Restore the full file for the next cut.
    fs::remove(path);
    std::unique_ptr<WalWriter> rewriter;
    ASSERT_EQ(WalWriter::Create(path, 0, WalOptions{}, &rewriter),
              EngineStatus::kOk);
    for (const WalRecord& r : records)
      ASSERT_EQ(rewriter->Append(r), EngineStatus::kOk);
  }
  fs::remove_all(dir);
}

TEST(WalTest, MidLogCorruptionIsTypedNotSilent) {
  const std::string dir = FreshDir("wal_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/wal-0.log";

  const std::vector<WalRecord> records = SampleRecords();
  std::unique_ptr<WalWriter> writer;
  ASSERT_EQ(WalWriter::Create(path, 0, WalOptions{}, &writer),
            EngineStatus::kOk);
  for (const WalRecord& r : records)
    ASSERT_EQ(writer->Append(r), EngineStatus::kOk);
  writer.reset();

  // Flip one payload byte of the *first* record: a corruption in the
  // middle of the log (records follow it) can never be explained as a
  // torn tail and must surface as kIoError.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 8 + 2);  // header + first frame header + 2.
    char byte = 0;
    f.seekg(24 + 8 + 2);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(24 + 8 + 2);
    f.write(&byte, 1);
  }
  const WalReadResult read = ReadWal(path);
  EXPECT_EQ(read.status, EngineStatus::kIoError);
  fs::remove_all(dir);
}

TEST(WalTest, DestroyedHeaderIsTypedNotSilent) {
  const std::string dir = FreshDir("wal_header");
  fs::create_directories(dir);
  const std::string path = dir + "/wal-0.log";
  std::unique_ptr<WalWriter> writer;
  ASSERT_EQ(WalWriter::Create(path, 0, WalOptions{}, &writer),
            EngineStatus::kOk);
  writer.reset();
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  const WalReadResult read = ReadWal(path);
  EXPECT_EQ(read.status, EngineStatus::kIoError);
  EXPECT_TRUE(read.bad_header);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DurableSession: a small scripted workload and its in-memory oracle
// ---------------------------------------------------------------------------

/// One high-level mutation, applied identically to a DurableSession and
/// to the in-memory oracle. Each op maps to exactly one WAL record, so
/// op index == LSN (with no intervening checkpoint rotation).
struct Op {
  enum Kind {
    kInsert,
    kDelete,
    kUpdateProb,
    kSetProb,
    kRegisterEvent,
    kRegisterReach,
    kPublish,
  } kind = kInsert;
  std::vector<Value> args;  ///< kInsert.
  double probability = 0.5;
  size_t insert_index = 0;  ///< kDelete: which prior insert to delete.
  EventId event = 0;        ///< kUpdateProb / kSetProb.
  std::string name;         ///< kRegisterEvent.
  Value source = 0, target = 0;  ///< kRegisterReach.
};

/// A chain 0-1-2-3-4 with a few chords, then a mixed mutation tail:
/// inserts that extend the cone, deletes, probability updates of both
/// phases, a named event, and epoch markers.
std::vector<Op> ScriptedOps() {
  std::vector<Op> ops;
  auto insert = [&](Value a, Value b, double p) {
    Op op;
    op.kind = Op::kInsert;
    op.args = {a, b};
    op.probability = p;
    ops.push_back(op);
  };
  insert(0, 1, 0.5);
  insert(1, 2, 0.625);
  insert(2, 3, 0.75);
  insert(3, 4, 0.25);
  insert(0, 2, 0.375);
  {
    Op op;
    op.kind = Op::kRegisterReach;
    op.source = 0;
    op.target = 4;
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kRegisterEvent;
    op.name = "supply";
    op.probability = 0.9;
    ops.push_back(op);
  }
  insert(1, 3, 0.5);       // Covered insert.
  insert(4, 5, 0.8125);    // Cone-growing insert.
  {
    Op op;
    op.kind = Op::kUpdateProb;
    op.event = 1;
    op.probability = 0.3125;
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kPublish;
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kDelete;
    op.insert_index = 5;  // The covered (1,3) insert.
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kSetProb;
    op.event = 2;
    op.probability = 0.4375;
    ops.push_back(op);
  }
  insert(2, 4, 0.5625);
  {
    Op op;
    op.kind = Op::kUpdateProb;
    op.event = 0;
    op.probability = 0.6875;
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kPublish;
    ops.push_back(op);
  }
  return ops;
}

/// Applies ops[0..count) to a durable session. Every op must be
/// accepted (the script is valid by construction).
void ApplyToDurable(DurableSession& durable, const std::vector<Op>& ops,
                    size_t count, incremental::EpochManager* epochs) {
  std::vector<incremental::InsertedFact> inserted;
  for (size_t i = 0; i < count; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kInsert: {
        incremental::InsertedFact out;
        ASSERT_EQ(durable.InsertFact(0, op.args, op.probability, &out),
                  EngineStatus::kOk)
            << "op " << i;
        inserted.push_back(out);
        break;
      }
      case Op::kDelete:
        ASSERT_EQ(durable.DeleteFact(inserted[op.insert_index].fact),
                  EngineStatus::kOk)
            << "op " << i;
        break;
      case Op::kUpdateProb:
        ASSERT_EQ(durable.UpdateProbability(op.event, op.probability),
                  EngineStatus::kOk)
            << "op " << i;
        break;
      case Op::kSetProb:
        ASSERT_EQ(durable.SetProbability(op.event, op.probability),
                  EngineStatus::kOk)
            << "op " << i;
        break;
      case Op::kRegisterEvent:
        ASSERT_EQ(durable.RegisterEvent(op.name, op.probability),
                  EngineStatus::kOk)
            << "op " << i;
        break;
      case Op::kRegisterReach:
        ASSERT_EQ(durable.RegisterReachability(0, op.source, op.target),
                  EngineStatus::kOk)
            << "op " << i;
        break;
      case Op::kPublish:
        ASSERT_EQ(durable.PublishSnapshot(*epochs), EngineStatus::kOk)
            << "op " << i;
        break;
    }
  }
}

/// The oracle: the same ops applied to a plain in-memory session.
/// Epoch publishes are skipped — they do not change query answers.
struct Oracle {
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<incremental::IncrementalSession> inc;
  std::vector<incremental::InsertedFact> inserted;
  std::vector<incremental::QueryId> queries;

  explicit Oracle(const Schema& schema) {
    session = std::make_unique<QuerySession>(PccInstance(schema));
    inc = std::make_unique<incremental::IncrementalSession>(*session);
  }

  void Apply(const std::vector<Op>& ops, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case Op::kInsert:
          inserted.push_back(inc->InsertFact(0, op.args, op.probability));
          break;
        case Op::kDelete:
          inc->DeleteFact(inserted[op.insert_index].fact);
          break;
        case Op::kUpdateProb:
          inc->UpdateProbability(op.event, op.probability);
          break;
        case Op::kSetProb:
          session->UpdateProbability(op.event, op.probability);
          break;
        case Op::kRegisterEvent:
          session->pcc().events().Register(op.name, op.probability);
          break;
        case Op::kRegisterReach:
          queries.push_back(
              inc->RegisterReachability(0, op.source, op.target));
          break;
        case Op::kPublish:
          break;
      }
    }
  }
};

/// Registered-query probabilities of a recovered session must be
/// bit-identical to the oracle's.
void ExpectMatchesOracle(DurableSession& durable, Oracle& oracle,
                         const std::string& context) {
  for (incremental::QueryId q : oracle.queries) {
    const EngineResult want = oracle.inc->Probability(q);
    const EngineResult got = durable.Probability(q);
    ASSERT_EQ(got.status, EngineStatus::kOk) << context;
    EXPECT_EQ(got.value, want.value) << context << " query " << q;
  }
}

TEST(DurableSessionTest, CreateRecoverRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  const std::vector<Op> ops = ScriptedOps();

  incremental::EpochManager epochs;
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  ApplyToDurable(*durable, ops, ops.size(), &epochs);
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  const uint64_t lsn = durable->next_lsn();
  durable.reset();

  Oracle oracle(EdgeSchema());
  oracle.Apply(ops, ops.size());

  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    &stats),
            EngineStatus::kOk);
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_EQ(stats.records_replayed, ops.size());
  EXPECT_EQ(stats.epoch_markers, 2u);
  EXPECT_EQ(recovered->next_lsn(), lsn);
  ExpectMatchesOracle(*recovered, oracle, "after recover");
  fs::remove_all(dir);
}

TEST(DurableSessionTest, RecoverTwiceIsIdempotent) {
  const std::string dir = FreshDir("twice");
  const std::vector<Op> ops = ScriptedOps();

  incremental::EpochManager epochs;
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  ApplyToDurable(*durable, ops, ops.size(), &epochs);
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  durable.reset();

  Oracle oracle(EdgeSchema());
  oracle.Apply(ops, ops.size());

  for (int round = 0; round < 2; ++round) {
    std::unique_ptr<DurableSession> recovered;
    ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                      nullptr),
              EngineStatus::kOk)
        << "round " << round;
    ExpectMatchesOracle(*recovered, oracle,
                        "round " + std::to_string(round));
    // Destroying without mutating must leave the directory recoverable
    // again — recovery is a read-plus-truncate, not a consuming replay.
    recovered.reset();
  }
  fs::remove_all(dir);
}

TEST(DurableSessionTest, WalTailDuplicatingCheckpointIsSkippedByWatermark) {
  const std::string dir = FreshDir("dup_tail");
  const std::vector<Op> ops = ScriptedOps();

  // With rotation off, the single WAL keeps every record from LSN 0; a
  // mid-script checkpoint's watermark must make replay skip the
  // already-checkpointed head rather than apply it twice.
  PersistOptions options;
  options.truncate_wal_on_checkpoint = false;

  incremental::EpochManager epochs;
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), options, &durable),
            EngineStatus::kOk);
  ApplyToDurable(*durable, ops, 9, &epochs);
  ASSERT_EQ(durable->Checkpoint(), EngineStatus::kOk);
  {
    // Apply the tail. ApplyToDurable re-counts inserts from zero, so
    // apply ops[9..) by hand through the same mapping.
    std::vector<incremental::InsertedFact> inserted;
    for (size_t i = 0; i < 9; ++i) {
      if (ops[i].kind == Op::kInsert) {
        incremental::InsertedFact f;
        f.fact = static_cast<FactId>(inserted.size());
        inserted.push_back(f);
      }
    }
    // Rebuild the true fact ids from the session (inserts are the only
    // fact sources and allocate ids in order).
    for (size_t i = 0; i < inserted.size(); ++i)
      inserted[i].fact = static_cast<FactId>(i);
    for (size_t i = 9; i < ops.size(); ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case Op::kInsert: {
          incremental::InsertedFact out;
          ASSERT_EQ(durable->InsertFact(0, op.args, op.probability, &out),
                    EngineStatus::kOk);
          inserted.push_back(out);
          break;
        }
        case Op::kDelete:
          ASSERT_EQ(durable->DeleteFact(inserted[op.insert_index].fact),
                    EngineStatus::kOk);
          break;
        case Op::kUpdateProb:
          ASSERT_EQ(durable->UpdateProbability(op.event, op.probability),
                    EngineStatus::kOk);
          break;
        case Op::kSetProb:
          ASSERT_EQ(durable->SetProbability(op.event, op.probability),
                    EngineStatus::kOk);
          break;
        case Op::kRegisterEvent:
          ASSERT_EQ(durable->RegisterEvent(op.name, op.probability),
                    EngineStatus::kOk);
          break;
        case Op::kRegisterReach:
          ASSERT_EQ(durable->RegisterReachability(0, op.source, op.target),
                    EngineStatus::kOk);
          break;
        case Op::kPublish:
          ASSERT_EQ(durable->PublishSnapshot(epochs), EngineStatus::kOk);
          break;
      }
    }
  }
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  durable.reset();

  Oracle oracle(EdgeSchema());
  oracle.Apply(ops, ops.size());

  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, options, &recovered, &stats),
            EngineStatus::kOk);
  // The checkpointed head was present in the log and skipped.
  EXPECT_EQ(stats.records_skipped, 9u);
  EXPECT_EQ(stats.records_replayed, ops.size() - 9);
  ExpectMatchesOracle(*recovered, oracle, "duplicate tail");
  fs::remove_all(dir);
}

TEST(DurableSessionTest, RejectedMutationsLeaveNoWalRecord) {
  const std::string dir = FreshDir("validate");
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  ASSERT_EQ(durable->InsertFact(0, {0, 1}, 0.5), EngineStatus::kOk);
  ASSERT_EQ(durable->RegisterEvent("ok", 0.5), EngineStatus::kOk);
  const uint64_t lsn = durable->next_lsn();

  // Every rejection below must change neither the state nor the log.
  EXPECT_EQ(durable->InsertFact(9, {0, 1}, 0.5),
            EngineStatus::kInvalidArgument);  // Unknown relation.
  EXPECT_EQ(durable->InsertFact(0, {0, 1, 2}, 0.5),
            EngineStatus::kInvalidArgument);  // Arity mismatch.
  EXPECT_EQ(durable->InsertFact(0, {0, 1}, 1.5),
            EngineStatus::kInvalidArgument);  // Probability range.
  EXPECT_EQ(durable->RegisterEvent("ok", 0.5),
            EngineStatus::kInvalidArgument);  // Duplicate name.
  EXPECT_EQ(durable->RegisterEvent("", 0.5),
            EngineStatus::kInvalidArgument);  // Empty name.
  EXPECT_EQ(durable->RegisterEvent("_e7", 0.5),
            EngineStatus::kInvalidArgument);  // Reserved prefix.
  EXPECT_EQ(durable->UpdateProbability(1000, 0.5),
            EngineStatus::kInvalidArgument);  // Unknown event.
  EXPECT_EQ(durable->SetProbability(0, -0.5),
            EngineStatus::kInvalidArgument);  // Probability range.
  EXPECT_EQ(durable->DeleteFact(1000),
            EngineStatus::kInvalidArgument);  // Unknown fact.
  EXPECT_EQ(durable->RegisterReachability(9, 0, 1),
            EngineStatus::kInvalidArgument);  // Unknown relation.
  ConjunctiveQuery unused_var;  // x1 occurs in no atom.
  unused_var.AddAtom(0, {Term::V(0), Term::V(2)});
  EXPECT_EQ(durable->RegisterCq(unused_var), EngineStatus::kInvalidArgument);
  ConjunctiveQuery nine_vars;  // One past the lineage DP's variable cap.
  for (VarId v = 0; v < kMaxLineageCqVars; ++v) {
    nine_vars.AddAtom(0, {Term::V(v), Term::V(v + 1)});
  }
  ASSERT_EQ(nine_vars.NumVars(), kMaxLineageCqVars + 1);
  EXPECT_EQ(durable->RegisterCq(nine_vars), EngineStatus::kInvalidArgument);
  EXPECT_EQ(durable->next_lsn(), lsn);

  // And the directory still recovers to exactly the accepted prefix.
  durable.reset();
  std::unique_ptr<DurableSession> recovered;
  RecoveryStats stats;
  ASSERT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered,
                                    &stats),
            EngineStatus::kOk);
  EXPECT_EQ(stats.records_replayed, 2u);
  fs::remove_all(dir);
}

// A logged registration the live session would have rejected is log
// damage: recovery reports kIoError instead of aborting in the lineage DP.
TEST(DurableSessionTest, ReplayRejectsMalformedCqRecord) {
  const std::string dir = FreshDir("malformed_cq");
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &durable),
            EngineStatus::kOk);
  ASSERT_EQ(durable->InsertFact(0, {0, 1}, 0.5), EngineStatus::kOk);
  const std::string wal_path = durable->dir() + "/wal-0.log";
  const uint64_t lsn = durable->next_lsn();
  durable.reset();

  std::unique_ptr<WalWriter> writer;
  ASSERT_EQ(WalWriter::OpenForAppend(wal_path, lsn, WalOptions{}, &writer),
            EngineStatus::kOk);
  WalRecord record;
  record.type = WalRecordType::kRegisterCq;
  record.cq.AddAtom(0, {Term::V(0), Term::V(2)});  // x1 occurs nowhere.
  record.root = 0;
  ASSERT_EQ(writer->Append(record), EngineStatus::kOk);
  writer.reset();

  std::unique_ptr<DurableSession> recovered;
  EXPECT_EQ(DurableSession::Recover(dir, PersistOptions{}, &recovered),
            EngineStatus::kIoError);
  fs::remove_all(dir);
}

TEST(DurableSessionTest, CreateRefusesOccupiedDirectory) {
  const std::string dir = FreshDir("occupied");
  std::unique_ptr<DurableSession> first;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &first),
            EngineStatus::kOk);
  first.reset();
  std::unique_ptr<DurableSession> second;
  EXPECT_EQ(DurableSession::Create(dir, EdgeSchema(), PersistOptions{},
                                   &second),
            EngineStatus::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(DurableSessionTest, CorruptCheckpointFallsBackToOlderOne) {
  const std::string dir = FreshDir("ckpt_fallback");
  const std::vector<Op> ops = ScriptedOps();

  // Keep the full log so the older checkpoint retains coverage.
  PersistOptions options;
  options.truncate_wal_on_checkpoint = false;

  incremental::EpochManager epochs;
  std::unique_ptr<DurableSession> durable;
  ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), options, &durable),
            EngineStatus::kOk);
  ApplyToDurable(*durable, ops, ops.size(), &epochs);
  ASSERT_EQ(durable->Checkpoint(), EngineStatus::kOk);
  const uint64_t seq = durable->checkpoint_seq();
  ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
  durable.reset();

  // Corrupt the newest checkpoint's payload.
  {
    const std::string path =
        dir + "/checkpoint-" + std::to_string(seq) + ".ckpt";
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 10);
    char byte = 0;
    f.seekg(24 + 10);
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(24 + 10);
    f.write(&byte, 1);
  }

  Oracle oracle(EdgeSchema());
  oracle.Apply(ops, ops.size());

  RecoveryStats stats;
  std::unique_ptr<DurableSession> recovered;
  ASSERT_EQ(DurableSession::Recover(dir, options, &recovered, &stats),
            EngineStatus::kOk);
  EXPECT_EQ(stats.checkpoints_skipped, 1u);
  EXPECT_LT(stats.checkpoint_seq, seq);
  EXPECT_EQ(stats.records_replayed, ops.size());
  ExpectMatchesOracle(*recovered, oracle, "checkpoint fallback");
  fs::remove_all(dir);
}

TEST(DurableSessionTest, RandomizedStreamMatchesOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string dir =
        FreshDir("random_" + std::to_string(seed));
    incremental::EpochManager epochs;
    PersistOptions options;
    options.checkpoint_every = 16;  // Exercise auto-checkpoints too.
    std::unique_ptr<DurableSession> durable;
    ASSERT_EQ(DurableSession::Create(dir, EdgeSchema(), options, &durable),
              EngineStatus::kOk);
    Oracle oracle(EdgeSchema());

    Rng rng(seed * 1013);
    // Seed chain + query, mirrored to the oracle.
    std::vector<incremental::InsertedFact> durable_facts;
    for (Value v = 0; v < 5; ++v) {
      incremental::InsertedFact out;
      ASSERT_EQ(durable->InsertFact(0, {v, v + 1}, 0.5, &out),
                EngineStatus::kOk);
      durable_facts.push_back(out);
      oracle.inserted.push_back(oracle.inc->InsertFact(0, {v, v + 1}, 0.5));
    }
    ASSERT_EQ(durable->RegisterReachability(0, 0, 5), EngineStatus::kOk);
    oracle.queries.push_back(oracle.inc->RegisterReachability(0, 0, 5));

    Value next_vertex = 6;
    for (int round = 0; round < 40; ++round) {
      const double pick = rng.UniformDouble();
      if (pick < 0.45) {
        const EventId e = static_cast<EventId>(
            rng.UniformDouble() *
            static_cast<double>(oracle.session->pcc().events().size()));
        const double p = rng.UniformDouble();
        ASSERT_EQ(durable->UpdateProbability(e, p), EngineStatus::kOk);
        oracle.inc->UpdateProbability(e, p);
      } else if (pick < 0.75 || durable_facts.empty()) {
        std::vector<Value> args;
        if (rng.UniformDouble() < 0.5) {
          const Value base =
              static_cast<Value>(rng.UniformDouble() * 4.0);
          args = {base, base + 2};
        } else {
          const Value anchor =
              static_cast<Value>(rng.UniformDouble() * 5.0);
          args = {anchor, next_vertex++};
        }
        const double p = 0.2 + 0.6 * rng.UniformDouble();
        incremental::InsertedFact out;
        ASSERT_EQ(durable->InsertFact(0, args, p, &out), EngineStatus::kOk);
        durable_facts.push_back(out);
        oracle.inserted.push_back(oracle.inc->InsertFact(0, args, p));
      } else {
        const size_t pos = static_cast<size_t>(
            rng.UniformDouble() * static_cast<double>(durable_facts.size()));
        ASSERT_EQ(durable->DeleteFact(durable_facts[pos].fact),
                  EngineStatus::kOk);
        oracle.inc->DeleteFact(durable_facts[pos].fact);
        durable_facts.erase(durable_facts.begin() + pos);
      }
      if (round % 10 == 9) {
        ASSERT_EQ(durable->PublishSnapshot(epochs), EngineStatus::kOk);
      }
    }
    EXPECT_EQ(durable->failed_auto_checkpoints(), 0u);
    EXPECT_GT(durable->checkpoint_seq(), 0u);
    ASSERT_EQ(durable->Sync(), EngineStatus::kOk);
    durable.reset();

    std::unique_ptr<DurableSession> recovered;
    ASSERT_EQ(DurableSession::Recover(dir, options, &recovered, nullptr),
              EngineStatus::kOk)
        << "seed " << seed;
    ExpectMatchesOracle(*recovered, oracle,
                        "seed " + std::to_string(seed));
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint file format
// ---------------------------------------------------------------------------

TEST(CheckpointTest, DetectsTruncationAndBitFlips) {
  const std::string dir = FreshDir("ckpt_bits");
  fs::create_directories(dir);
  const std::string path = dir + "/checkpoint-1.ckpt";

  CheckpointState state;
  state.seq = 1;
  state.wal_lsn = 7;
  state.schema.AddRelation("E", 2);
  state.events.emplace_back("a", 0.25);
  state.events.emplace_back("b", 0.75);
  ASSERT_EQ(WriteCheckpoint(path, state), EngineStatus::kOk);

  CheckpointState loaded;
  ASSERT_EQ(ReadCheckpoint(path, &loaded), EngineStatus::kOk);
  EXPECT_EQ(loaded.seq, 1u);
  EXPECT_EQ(loaded.wal_lsn, 7u);
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[1].first, "b");
  EXPECT_EQ(loaded.events[1].second, 0.75);

  const uint64_t size = fs::file_size(path);
  // Truncations at every offset: all must fail typed.
  for (uint64_t cut = 1; cut < size; cut += 5) {
    fs::resize_file(path, size - cut);
    EXPECT_EQ(ReadCheckpoint(path, &loaded), EngineStatus::kIoError)
        << "cut " << cut;
    ASSERT_EQ(WriteCheckpoint(path, state), EngineStatus::kOk);
  }
  // Bit flips across the payload: all must fail typed.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (size_t bit = 0; bit < bytes.size() * 8; bit += 53) {
    std::vector<char> flipped = bytes;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    outf.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    outf.close();
    EXPECT_EQ(ReadCheckpoint(path, &loaded), EngineStatus::kIoError)
        << "bit " << bit;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// EngineStatus coverage
// ---------------------------------------------------------------------------

TEST(EngineStatusTest, IoErrorHasAName) {
  EXPECT_STREQ(EngineStatusName(EngineStatus::kIoError), "io_error");
}

}  // namespace
}  // namespace persist
}  // namespace tud

#ifndef TUD_PERSIST_DURABLE_SESSION_H_
#define TUD_PERSIST_DURABLE_SESSION_H_

/// Durable incremental serving state: an IncrementalSession whose every
/// mutation is written to a write-ahead log *before* it is applied, and
/// which can be checkpointed and crash-recovered from a directory.
///
/// Layout of a session directory:
///
///   wal-<seq>.log          the active log (rotated at checkpoints)
///   checkpoint-<seq>.ckpt  full-state snapshots (last two retained)
///   checkpoint-*.ckpt.tmp  in-flight snapshot writes (ignored/replaced)
///
/// Ordering contract (the ISSUE's append-after-validate fix): every
/// mutation is validated first (returning kInvalidArgument with no
/// state change and *no log record* when the live session would reject
/// it), then appended to the WAL (an append failure leaves the mutation
/// unapplied and returns kIoError), then applied. The log therefore
/// never replays a mutation the live session rejected, and a mutation
/// acknowledged kOk is on disk. Query *registrations* are the one
/// exception: their lineage root is only known after the DP runs, so
/// they apply first and append after — an append failure there breaks
/// the writer (all later durable mutations fail with kIoError) instead
/// of leaving a silent divergence.
///
/// Recovery (`DurableSession::Recover`) loads the newest checkpoint
/// that passes verification, replays WAL records with lsn ≥ the
/// checkpoint's watermark in order through the same code paths the live
/// session used (hash-consing makes this deterministic; every record's
/// recorded ids are verified against the replayed ones), truncates a
/// torn final record, and refuses — with kIoError, never an abort or a
/// silently wrong answer — when the log is corrupted mid-stream or the
/// surviving files cannot cover the watermark contiguously. Recovered
/// probabilities are bit-identical to the uncrashed session's (the
/// crash-point fuzz test enumerates every record boundary).
///
/// Not durable, by design: plan caches, message arenas, delta states,
/// the dirty log, statistics, and epoch numbering — all rebuild cold;
/// the first post-recovery query per registered root pays one plan
/// build and one full message pass, with identical results.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "queries/query_session.h"

namespace tud {
namespace persist {

struct PersistOptions {
  /// Write a checkpoint automatically after this many appended records
  /// (0 = checkpoint only on demand). An auto-checkpoint failure is
  /// reported through failed_auto_checkpoints() rather than failing the
  /// mutation that triggered it — the mutation itself is already
  /// durable in the WAL.
  uint64_t checkpoint_every = 0;
  /// fsync the WAL after every append (durability against power loss
  /// per-mutation instead of per-checkpoint/Sync).
  bool sync_each_append = false;
  /// Rotate (and delete) the WAL at each checkpoint. Turning this off
  /// keeps one ever-growing log whose head duplicates checkpointed
  /// records — replay must skip them by watermark, which the
  /// idempotence tests pin.
  bool truncate_wal_on_checkpoint = true;
  incremental::IncrementalOptions incremental;
};

/// What Recover did, for observability and tests.
struct RecoveryStats {
  bool loaded_checkpoint = false;
  uint64_t checkpoint_seq = 0;
  /// Newer checkpoints that failed verification and were bypassed
  /// (recovery then proved WAL coverage from the older base).
  uint64_t checkpoints_skipped = 0;
  uint64_t records_replayed = 0;
  /// Records at lsn < watermark, skipped for idempotence.
  uint64_t records_skipped = 0;
  uint64_t torn_bytes_truncated = 0;
  uint64_t epoch_markers = 0;
};

class DurableSession {
 public:
  /// Creates a fresh session over `schema` in `dir` (created if
  /// missing; must not already contain a session).
  static EngineStatus Create(const std::string& dir, Schema schema,
                             const PersistOptions& options,
                             std::unique_ptr<DurableSession>* out);

  /// Rebuilds a session from `dir`: newest valid checkpoint + WAL
  /// replay. kIoError on unrecoverable damage (see file comment);
  /// `*out` is set only on kOk.
  static EngineStatus Recover(const std::string& dir,
                              const PersistOptions& options,
                              std::unique_ptr<DurableSession>* out,
                              RecoveryStats* stats = nullptr);

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  // Durable mutations: validate -> append -> apply.

  /// Registers a named event. kInvalidArgument on a duplicate name or
  /// out-of-range probability (nothing logged, nothing applied).
  EngineStatus RegisterEvent(const std::string& name, double probability,
                             EventId* out_event = nullptr);

  /// Load-phase probability assignment: applied through the session
  /// (dirty-marked) but not counted as a serving-phase update.
  EngineStatus SetProbability(EventId event, double probability);

  /// Serving-phase probability update (IncrementalSession semantics).
  EngineStatus UpdateProbability(EventId event, double probability);

  /// Durable IncrementalSession::InsertFact.
  EngineStatus InsertFact(RelationId relation, std::vector<Value> args,
                          double probability,
                          incremental::InsertedFact* out = nullptr);

  /// Durable IncrementalSession::DeleteFact. kInvalidArgument when the
  /// fact id is unknown or its annotation is not a plain event variable
  /// (the same precondition the live session TUD_CHECKs).
  EngineStatus DeleteFact(FactId fact);

  // Durable query registrations: apply -> append (see file comment).

  EngineStatus RegisterCq(const ConjunctiveQuery& query,
                          incremental::QueryId* out_query = nullptr);
  EngineStatus RegisterReachability(RelationId relation, Value source,
                                    Value target,
                                    incremental::QueryId* out_query = nullptr);

  // Queries (not logged; reads).

  EngineResult Probability(incremental::QueryId query,
                           const Evidence& evidence = {},
                           const QueryBudget& budget = {}) {
    return incremental_->Probability(query, evidence, budget);
  }

  /// Publishes an epoch snapshot to `manager` (the serving handoff) and
  /// logs an epoch marker. The publication itself always happens;
  /// kIoError reports only a failed marker append (writer broken).
  EngineStatus PublishSnapshot(incremental::EpochManager& manager,
                               uint64_t* out_epoch = nullptr);

  /// Writes a checkpoint now and (by default) rotates the WAL. On
  /// kIoError the in-memory session is unchanged and the previous
  /// checkpoint/WAL remain authoritative.
  EngineStatus Checkpoint();

  /// fsyncs the WAL: everything appended so far is durable after kOk.
  EngineStatus Sync() { return wal_->Sync(); }

  incremental::IncrementalSession& incremental() { return *incremental_; }
  QuerySession& session() { return *session_; }
  const std::string& dir() const { return dir_; }
  uint64_t next_lsn() const { return wal_->next_lsn(); }
  /// Sequence of the last durable checkpoint (0 = none yet).
  uint64_t checkpoint_seq() const { return last_checkpoint_seq_; }
  uint64_t failed_auto_checkpoints() const {
    return failed_auto_checkpoints_;
  }
  bool writer_broken() const { return wal_->broken(); }

 private:
  DurableSession(std::string dir, PersistOptions options);

  /// Builds the full-state image for Checkpoint().
  CheckpointState BuildCheckpointState(uint64_t seq);

  /// Rebuilds session objects from a decoded checkpoint. kIoError if
  /// re-registration roots diverge from the recorded ones.
  EngineStatus RestoreFromState(const CheckpointState& state);

  /// Applies one replayed record through the live code paths, verifying
  /// recorded ids. kIoError on any divergence.
  EngineStatus ReplayRecord(const WalRecord& record, RecoveryStats* stats);

  void CountAppendAndMaybeCheckpoint();

  std::string dir_;
  PersistOptions options_;
  std::unique_ptr<QuerySession> session_;
  std::unique_ptr<incremental::IncrementalSession> incremental_;
  std::unique_ptr<WalWriter> wal_;
  /// Registered query definitions in QueryId order — the WAL owner
  /// keeps its own copy for checkpoint serialization.
  std::vector<CheckpointState::QueryRow> query_defs_;
  uint64_t last_checkpoint_seq_ = 0;
  uint64_t next_checkpoint_seq_ = 1;
  uint64_t watermark_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t failed_auto_checkpoints_ = 0;
};

}  // namespace persist
}  // namespace tud

#endif  // TUD_PERSIST_DURABLE_SESSION_H_

#include "persist/durable_session.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "queries/lineage.h"

namespace tud {
namespace persist {

namespace {

constexpr size_t kWalHeaderSize = 24;

std::string WalFileName(const std::string& dir, uint64_t seq) {
  return dir + "/wal-" + std::to_string(seq) + ".log";
}

std::string CheckpointFileName(const std::string& dir, uint64_t seq) {
  return dir + "/checkpoint-" + std::to_string(seq) + ".ckpt";
}

void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// "prefix<number>suffix" -> number, or false.
bool ParseSeq(const std::string& name, const char* prefix, const char* suffix,
              uint64_t* seq) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *seq = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

struct DirListing {
  std::vector<uint64_t> checkpoint_seqs;  ///< Sorted descending.
  std::vector<uint64_t> wal_seqs;         ///< Sorted ascending.
  bool ok = false;
};

DirListing ScanDir(const std::string& dir) {
  DirListing listing;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return listing;
  listing.ok = true;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    uint64_t seq = 0;
    if (ParseSeq(name, "checkpoint-", ".ckpt", &seq)) {
      listing.checkpoint_seqs.push_back(seq);
    } else if (ParseSeq(name, "wal-", ".log", &seq)) {
      listing.wal_seqs.push_back(seq);
    }
  }
  ::closedir(d);
  std::sort(listing.checkpoint_seqs.rbegin(), listing.checkpoint_seqs.rend());
  std::sort(listing.wal_seqs.begin(), listing.wal_seqs.end());
  return listing;
}

bool ValidProbability(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

DurableSession::DurableSession(std::string dir, PersistOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

// ---------------------------------------------------------------------------
// Create

EngineStatus DurableSession::Create(const std::string& dir, Schema schema,
                                    const PersistOptions& options,
                                    std::unique_ptr<DurableSession>* out) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return EngineStatus::kIoError;
  }
  const DirListing listing = ScanDir(dir);
  if (!listing.ok) return EngineStatus::kIoError;
  if (!listing.checkpoint_seqs.empty() || !listing.wal_seqs.empty()) {
    // Refuse to clobber an existing session: that is what Recover is
    // for.
    return EngineStatus::kInvalidArgument;
  }

  std::unique_ptr<DurableSession> session(
      new DurableSession(dir, options));

  // The initial checkpoint persists the schema, so Recover never needs
  // out-of-band input: a directory always holds at least checkpoint-0
  // (empty state) plus the WAL from LSN 0.
  CheckpointState empty;
  empty.seq = 0;
  empty.wal_lsn = 0;
  empty.schema = schema;
  if (session->RestoreFromState(empty) != EngineStatus::kOk) {
    return EngineStatus::kIoError;
  }
  if (WriteCheckpoint(CheckpointFileName(dir, 0), empty) !=
      EngineStatus::kOk) {
    return EngineStatus::kIoError;
  }

  WalOptions wal_options;
  wal_options.sync_each_append = options.sync_each_append;
  if (WalWriter::Create(WalFileName(dir, 0), 0, wal_options,
                        &session->wal_) != EngineStatus::kOk) {
    return EngineStatus::kIoError;
  }
  SyncDir(dir);

  session->last_checkpoint_seq_ = 0;
  session->next_checkpoint_seq_ = 1;
  session->watermark_ = 0;
  *out = std::move(session);
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// State serialization

CheckpointState DurableSession::BuildCheckpointState(uint64_t seq) {
  CheckpointState state;
  state.seq = seq;
  state.wal_lsn = wal_->next_lsn();

  const PccInstance& pcc = session_->pcc();
  state.schema = pcc.instance().schema();

  const EventRegistry& registry = pcc.events();
  state.events.reserve(registry.size());
  for (EventId e = 0; e < registry.size(); ++e) {
    state.events.emplace_back(registry.name(e), registry.probability(e));
  }

  const BoolCircuit& circuit = pcc.circuit();
  state.gates.reserve(circuit.NumGates());
  for (GateId g = 0; g < circuit.NumGates(); ++g) {
    CheckpointState::Gate gate;
    gate.kind = circuit.kind(g);
    gate.const_value =
        gate.kind == GateKind::kConst ? circuit.const_value(g) : false;
    gate.var = gate.kind == GateKind::kVar ? circuit.var(g) : kInvalidEvent;
    gate.inputs = circuit.inputs(g);
    state.gates.push_back(std::move(gate));
  }

  const Instance& instance = pcc.instance();
  state.facts.reserve(instance.NumFacts());
  for (FactId f = 0; f < instance.NumFacts(); ++f) {
    CheckpointState::FactRow row;
    row.relation = instance.fact(f).relation;
    row.args = instance.fact(f).args;
    row.annotation = pcc.annotation(f);
    state.facts.push_back(std::move(row));
  }

  if (session_->has_decomposition()) {
    const DecomposedInstance& dec = session_->Decomposition();
    state.has_decomposition = true;
    const size_t num_nodes = dec.ntd.NumNodes();
    state.ntd_kinds.reserve(num_nodes);
    for (NiceNodeId n = 0; n < num_nodes; ++n) {
      state.ntd_kinds.push_back(dec.ntd.kind(n));
      state.ntd_vertices.push_back(dec.ntd.raw_vertex(n));
      state.ntd_bags.push_back(dec.ntd.bag(n));
      state.ntd_children.push_back(dec.ntd.children(n));
    }
    state.facts_at_node = dec.facts_at_node;
    state.width = dec.width;
    state.elimination_order = dec.elimination_order;
  }

  state.searched_width = incremental_->searched_width();
  state.tombstones = incremental_->patch().tombstones();

  state.queries = query_defs_;
  for (size_t q = 0; q < state.queries.size(); ++q) {
    // Roots move across structural updates; snapshot the current ones.
    state.queries[q].root = incremental_->root(q);
  }
  return state;
}

EngineStatus DurableSession::RestoreFromState(const CheckpointState& state) {
  PccInstance pcc(state.schema);
  for (const auto& [name, probability] : state.events) {
    pcc.events().Register(name, probability);
  }
  BoolCircuit& circuit = pcc.circuit();
  circuit.Reserve(state.gates.size());
  for (const CheckpointState::Gate& gate : state.gates) {
    circuit.RestoreGate(gate.kind, gate.const_value, gate.var, gate.inputs);
  }
  for (const CheckpointState::FactRow& fact : state.facts) {
    pcc.AddFact(fact.relation, fact.args, fact.annotation);
  }

  session_ = std::make_unique<QuerySession>(std::move(pcc));

  if (state.has_decomposition) {
    DecomposedInstance dec;
    dec.ntd = NiceTreeDecomposition::FromParts(
        state.ntd_kinds, state.ntd_vertices, state.ntd_bags,
        state.ntd_children);
    if (!dec.ntd.IsWellFormed()) return EngineStatus::kIoError;
    dec.facts_at_node = state.facts_at_node;
    dec.width = state.width;
    dec.elimination_order = state.elimination_order;
    session_->ReplaceDecomposition(std::move(dec));
  }

  incremental_ = std::make_unique<incremental::IncrementalSession>(
      *session_, options_.incremental);
  incremental_->set_searched_width(state.searched_width);
  for (const auto& [event, value] : state.tombstones) {
    incremental_->RestoreTombstone(event, value);
  }

  query_defs_.clear();
  for (const CheckpointState::QueryRow& q : state.queries) {
    WalRecord registration;
    registration.type = q.kind == 0 ? WalRecordType::kRegisterCq
                                    : WalRecordType::kRegisterReachability;
    registration.cq = q.cq;
    registration.relation = q.relation;
    if (!ValidRecord(registration)) return EngineStatus::kIoError;
    const incremental::QueryId qid =
        q.kind == 0
            ? incremental_->RegisterCq(q.cq)
            : incremental_->RegisterReachability(q.relation, q.source,
                                                 q.target);
    // Re-registration over the restored circuit must hash-cons to the
    // exact root the live session had; anything else means the image
    // does not describe the state it claims to.
    if (incremental_->root(qid) != q.root) return EngineStatus::kIoError;
    query_defs_.push_back(q);
  }
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// Replay

EngineStatus DurableSession::ReplayRecord(const WalRecord& record,
                                          RecoveryStats* stats) {
  // A record the live session would have rejected was never logged by
  // it: the log is damaged.
  if (!ValidRecord(record)) return EngineStatus::kIoError;
  PccInstance& pcc = session_->pcc();
  switch (record.type) {
    case WalRecordType::kRegisterEvent:
      if (pcc.events().Register(record.name, record.probability) !=
          record.event) {
        return EngineStatus::kIoError;
      }
      return EngineStatus::kOk;
    case WalRecordType::kSetProbability:
      session_->UpdateProbability(record.event, record.probability);
      return EngineStatus::kOk;
    case WalRecordType::kUpdateProbability:
      incremental_->UpdateProbability(record.event, record.probability);
      return EngineStatus::kOk;
    case WalRecordType::kInsertFact: {
      const incremental::InsertedFact got = incremental_->InsertFact(
          record.relation, record.args, record.probability);
      // Replay determinism check: the ids the replayed application
      // allocated must equal the ones the live session logged.
      if (got.fact != record.fact || got.event != record.event ||
          got.annotation != record.root) {
        return EngineStatus::kIoError;
      }
      return EngineStatus::kOk;
    }
    case WalRecordType::kDeleteFact:
      incremental_->DeleteFact(record.fact);
      return EngineStatus::kOk;
    case WalRecordType::kEpochPublish:
      if (stats != nullptr) ++stats->epoch_markers;
      return EngineStatus::kOk;
    case WalRecordType::kRegisterCq: {
      const incremental::QueryId qid = incremental_->RegisterCq(record.cq);
      if (incremental_->root(qid) != record.root) {
        return EngineStatus::kIoError;
      }
      CheckpointState::QueryRow row;
      row.kind = 0;
      row.cq = record.cq;
      row.root = record.root;
      query_defs_.push_back(std::move(row));
      return EngineStatus::kOk;
    }
    case WalRecordType::kRegisterReachability: {
      const incremental::QueryId qid = incremental_->RegisterReachability(
          record.relation, record.source, record.target);
      if (incremental_->root(qid) != record.root) {
        return EngineStatus::kIoError;
      }
      CheckpointState::QueryRow row;
      row.kind = 1;
      row.relation = record.relation;
      row.source = record.source;
      row.target = record.target;
      row.root = record.root;
      query_defs_.push_back(std::move(row));
      return EngineStatus::kOk;
    }
  }
  return EngineStatus::kIoError;
}

// ---------------------------------------------------------------------------
// Recover

EngineStatus DurableSession::Recover(const std::string& dir,
                                     const PersistOptions& options,
                                     std::unique_ptr<DurableSession>* out,
                                     RecoveryStats* stats) {
  RecoveryStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RecoveryStats{};

  const DirListing listing = ScanDir(dir);
  if (!listing.ok || listing.checkpoint_seqs.empty()) {
    return EngineStatus::kIoError;
  }

  // Read every WAL file present. Only the active (highest-seq) file may
  // legitimately carry a torn tail or a torn-rotation header; damage in
  // an older file just removes its records from consideration, and the
  // coverage check below decides whether that is fatal.
  struct WalFile {
    uint64_t seq = 0;
    std::string path;
    WalReadResult read;
  };
  std::vector<WalFile> wal_files;
  for (uint64_t seq : listing.wal_seqs) {
    WalFile wf;
    wf.seq = seq;
    wf.path = WalFileName(dir, seq);
    wf.read = ReadWal(wf.path);
    wal_files.push_back(std::move(wf));
  }
  const WalFile* active =
      wal_files.empty() ? nullptr : &wal_files.back();
  const bool active_torn_rotation =
      active != nullptr && active->read.status != EngineStatus::kOk &&
      active->read.bad_header && active->read.file_size < kWalHeaderSize;
  if (active != nullptr && active->read.status != EngineStatus::kOk &&
      !active_torn_rotation) {
    // Mid-log corruption (or a destroyed header) in the live log: typed
    // failure, never a silent partial recovery.
    return EngineStatus::kIoError;
  }

  // Pool the valid records, in LSN order. Files never overlap by
  // construction (rotation starts the new file exactly at the old end),
  // so a duplicate LSN means the directory holds files from conflicting
  // histories.
  std::vector<const WalRecord*> pooled;
  for (const WalFile& wf : wal_files) {
    if (wf.read.status != EngineStatus::kOk) continue;
    for (const WalRecord& r : wf.read.records) pooled.push_back(&r);
  }
  std::sort(pooled.begin(), pooled.end(),
            [](const WalRecord* a, const WalRecord* b) {
              return a->lsn < b->lsn;
            });
  for (size_t i = 1; i < pooled.size(); ++i) {
    if (pooled[i]->lsn == pooled[i - 1]->lsn) return EngineStatus::kIoError;
  }

  // Newest verifiable checkpoint whose watermark the pooled records
  // cover contiguously wins. A corrupt newer checkpoint is only
  // survivable when an older one still has full log coverage — which
  // WAL rotation deliberately destroys, so with rotation on this
  // degrades to the typed error the contract promises.
  CheckpointState state;
  bool have_state = false;
  std::vector<const WalRecord*> replay;
  for (uint64_t seq : listing.checkpoint_seqs) {
    CheckpointState candidate;
    if (ReadCheckpoint(CheckpointFileName(dir, seq), &candidate) !=
        EngineStatus::kOk) {
      ++stats->checkpoints_skipped;
      continue;
    }
    std::vector<const WalRecord*> tail;
    for (const WalRecord* r : pooled) {
      if (r->lsn >= candidate.wal_lsn) tail.push_back(r);
    }
    bool contiguous = true;
    for (size_t i = 0; i < tail.size(); ++i) {
      contiguous = contiguous && tail[i]->lsn == candidate.wal_lsn + i;
    }
    if (!contiguous) {
      ++stats->checkpoints_skipped;
      continue;
    }
    state = std::move(candidate);
    replay = std::move(tail);
    stats->loaded_checkpoint = true;
    stats->checkpoint_seq = seq;
    have_state = true;
    break;
  }
  if (!have_state) return EngineStatus::kIoError;
  if (active_torn_rotation && !replay.empty()) {
    // A file torn mid-create never took an append; records past the
    // watermark contradict that.
    return EngineStatus::kIoError;
  }

  std::unique_ptr<DurableSession> session(
      new DurableSession(dir, options));
  EngineStatus status = session->RestoreFromState(state);
  if (status != EngineStatus::kOk) return status;

  for (const WalRecord* record : replay) {
    status = session->ReplayRecord(*record, stats);
    if (status != EngineStatus::kOk) return status;
    ++stats->records_replayed;
  }
  stats->records_skipped = pooled.size() - replay.size();

  // Re-arm the writer on the active file: truncate the torn tail (or
  // finish a torn rotation) and append after the last valid record.
  WalOptions wal_options;
  wal_options.sync_each_append = options.sync_each_append;
  if (active == nullptr || active_torn_rotation) {
    const uint64_t seq = active == nullptr
                             ? stats->checkpoint_seq
                             : active->seq;
    if (WalWriter::Create(WalFileName(dir, seq), state.wal_lsn, wal_options,
                          &session->wal_) != EngineStatus::kOk) {
      return EngineStatus::kIoError;
    }
    SyncDir(dir);
  } else {
    if (active->read.torn_bytes > 0) {
      status = TruncateToValidPrefix(active->path, active->read.valid_bytes);
      if (status != EngineStatus::kOk) return status;
      stats->torn_bytes_truncated = active->read.torn_bytes;
    }
    const uint64_t next_lsn =
        active->read.base_lsn + active->read.records.size();
    if (WalWriter::OpenForAppend(active->path, next_lsn, wal_options,
                                 &session->wal_) != EngineStatus::kOk) {
      return EngineStatus::kIoError;
    }
  }

  uint64_t max_seq = listing.checkpoint_seqs.front();
  if (!listing.wal_seqs.empty()) {
    max_seq = std::max(max_seq, listing.wal_seqs.back());
  }
  session->last_checkpoint_seq_ = stats->checkpoint_seq;
  session->next_checkpoint_seq_ = max_seq + 1;
  session->watermark_ = state.wal_lsn;
  session->records_since_checkpoint_ = stats->records_replayed;
  *out = std::move(session);
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// Validation

bool DurableSession::ValidRecord(const WalRecord& record) const {
  const PccInstance& pcc = session_->pcc();
  const Schema& schema = pcc.instance().schema();
  switch (record.type) {
    case WalRecordType::kRegisterEvent:
      // Leading '_' is reserved for the anonymous events InsertFact
      // mints ("_e<id>"); a user-held "_e5" would make a later anonymous
      // registration abort on the duplicate name.
      return ValidProbability(record.probability) && !record.name.empty() &&
             record.name[0] != '_' &&
             !pcc.events().Find(record.name).has_value();
    case WalRecordType::kSetProbability:
    case WalRecordType::kUpdateProbability:
      return record.event < pcc.events().size() &&
             ValidProbability(record.probability);
    case WalRecordType::kInsertFact:
      return record.relation < schema.NumRelations() &&
             record.args.size() == schema.arity(record.relation) &&
             ValidProbability(record.probability);
    case WalRecordType::kDeleteFact:
      // The live session TUD_CHECKs a plain event-variable annotation.
      return record.fact < pcc.NumFacts() &&
             pcc.circuit().kind(pcc.annotation(record.fact)) ==
                 GateKind::kVar;
    case WalRecordType::kRegisterCq:
      // The fixed-query regime the lineage DP TUD_CHECKs.
      return record.cq.NumVars() <= kMaxLineageCqVars &&
             record.cq.NumAtoms() <= kMaxLineageCqAtoms &&
             record.cq.AllVarsOccur();
    case WalRecordType::kRegisterReachability:
      return record.relation < schema.NumRelations();
    case WalRecordType::kEpochPublish:
      return true;
  }
  return false;
}

EngineStatus DurableSession::ValidateAndAppend(const WalRecord& record) {
  if (!ValidRecord(record)) return EngineStatus::kInvalidArgument;
  if (wal_->Append(record) != EngineStatus::kOk) return EngineStatus::kIoError;
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// Durable mutations

EngineStatus DurableSession::RegisterEvent(const std::string& name,
                                           double probability,
                                           EventId* out_event) {
  EventRegistry& registry = session_->pcc().events();
  WalRecord record;
  record.type = WalRecordType::kRegisterEvent;
  record.name = name;
  record.probability = probability;
  record.event = static_cast<EventId>(registry.size());
  const EngineStatus status = ValidateAndAppend(record);
  if (status != EngineStatus::kOk) return status;
  const EventId id = registry.Register(name, probability);
  if (out_event != nullptr) *out_event = id;
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::SetProbability(EventId event,
                                            double probability) {
  WalRecord record;
  record.type = WalRecordType::kSetProbability;
  record.event = event;
  record.probability = probability;
  const EngineStatus status = ValidateAndAppend(record);
  if (status != EngineStatus::kOk) return status;
  session_->UpdateProbability(event, probability);
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::UpdateProbability(EventId event,
                                               double probability) {
  WalRecord record;
  record.type = WalRecordType::kUpdateProbability;
  record.event = event;
  record.probability = probability;
  const EngineStatus status = ValidateAndAppend(record);
  if (status != EngineStatus::kOk) return status;
  incremental_->UpdateProbability(event, probability);
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::InsertFact(RelationId relation,
                                        std::vector<Value> args,
                                        double probability,
                                        incremental::InsertedFact* out) {
  const PccInstance& pcc = session_->pcc();
  WalRecord record;
  record.type = WalRecordType::kInsertFact;
  record.relation = relation;
  record.args = args;
  record.probability = probability;
  // The ids the apply below will allocate are all tail appends, so they
  // are known before the mutation runs — which is what lets the record
  // precede the application and still carry verifiable ids.
  record.fact = static_cast<FactId>(pcc.NumFacts());
  record.event = static_cast<EventId>(pcc.events().size());
  record.root = static_cast<GateId>(pcc.circuit().NumGates());
  const EngineStatus status = ValidateAndAppend(record);
  if (status != EngineStatus::kOk) return status;
  const incremental::InsertedFact got =
      incremental_->InsertFact(relation, std::move(args), probability);
  if (out != nullptr) *out = got;
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::DeleteFact(FactId fact) {
  WalRecord record;
  record.type = WalRecordType::kDeleteFact;
  record.fact = fact;
  const EngineStatus status = ValidateAndAppend(record);
  if (status != EngineStatus::kOk) return status;
  incremental_->DeleteFact(fact);
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// Durable registrations (validate -> apply -> append; see header)

EngineStatus DurableSession::RegisterCq(const ConjunctiveQuery& query,
                                        incremental::QueryId* out_query) {
  WalRecord record;
  record.type = WalRecordType::kRegisterCq;
  record.cq = query;
  if (!ValidRecord(record)) return EngineStatus::kInvalidArgument;
  const incremental::QueryId qid = incremental_->RegisterCq(query);
  if (out_query != nullptr) *out_query = qid;
  CheckpointState::QueryRow row;
  row.kind = 0;
  row.cq = query;
  row.root = incremental_->root(qid);
  query_defs_.push_back(row);

  record.root = row.root;
  if (wal_->Append(record) != EngineStatus::kOk) return EngineStatus::kIoError;
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::RegisterReachability(
    RelationId relation, Value source, Value target,
    incremental::QueryId* out_query) {
  WalRecord record;
  record.type = WalRecordType::kRegisterReachability;
  record.relation = relation;
  record.source = source;
  record.target = target;
  if (!ValidRecord(record)) return EngineStatus::kInvalidArgument;
  const incremental::QueryId qid =
      incremental_->RegisterReachability(relation, source, target);
  if (out_query != nullptr) *out_query = qid;
  CheckpointState::QueryRow row;
  row.kind = 1;
  row.relation = relation;
  row.source = source;
  row.target = target;
  row.root = incremental_->root(qid);
  query_defs_.push_back(row);

  record.root = row.root;
  if (wal_->Append(record) != EngineStatus::kOk) return EngineStatus::kIoError;
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

EngineStatus DurableSession::PublishSnapshot(
    incremental::EpochManager& manager, uint64_t* out_epoch) {
  const uint64_t epoch = incremental_->PublishSnapshot(manager);
  if (out_epoch != nullptr) *out_epoch = epoch;
  WalRecord record;
  record.type = WalRecordType::kEpochPublish;
  record.epoch = epoch;
  if (wal_->Append(record) != EngineStatus::kOk) return EngineStatus::kIoError;
  CountAppendAndMaybeCheckpoint();
  return EngineStatus::kOk;
}

// ---------------------------------------------------------------------------
// Checkpoint

EngineStatus DurableSession::Checkpoint() {
  // Everything the image will claim as "already reflected" must be
  // durable in the log first, or a crash after the checkpoint could
  // orphan acknowledged mutations.
  if (wal_->Sync() != EngineStatus::kOk) return EngineStatus::kIoError;

  const uint64_t seq = next_checkpoint_seq_;
  const CheckpointState state = BuildCheckpointState(seq);
  if (WriteCheckpoint(CheckpointFileName(dir_, seq), state) !=
      EngineStatus::kOk) {
    return EngineStatus::kIoError;
  }
  SyncDir(dir_);

  EngineStatus status = EngineStatus::kOk;
  if (options_.truncate_wal_on_checkpoint) {
    WalOptions wal_options;
    wal_options.sync_each_append = options_.sync_each_append;
    std::unique_ptr<WalWriter> fresh;
    if (WalWriter::Create(WalFileName(dir_, seq), state.wal_lsn, wal_options,
                          &fresh) == EngineStatus::kOk) {
      SyncDir(dir_);
      const std::string old_path = wal_->path();
      wal_ = std::move(fresh);
      ::unlink(old_path.c_str());
    } else {
      // The checkpoint is durable; the old writer stays active (its
      // records < watermark are skipped on replay) and the caller
      // learns the rotation failed.
      status = EngineStatus::kIoError;
    }
  }

  // Retention: the newest two checkpoints. Older ones — including gaps
  // left by recoveries that skipped corrupt files — are swept here.
  const DirListing listing = ScanDir(dir_);
  for (uint64_t old_seq : listing.checkpoint_seqs) {
    if (old_seq + 1 < seq) {
      ::unlink(CheckpointFileName(dir_, old_seq).c_str());
    }
  }

  last_checkpoint_seq_ = seq;
  next_checkpoint_seq_ = seq + 1;
  watermark_ = state.wal_lsn;
  records_since_checkpoint_ = 0;
  return status;
}

void DurableSession::CountAppendAndMaybeCheckpoint() {
  ++records_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      records_since_checkpoint_ >= options_.checkpoint_every) {
    if (Checkpoint() != EngineStatus::kOk) ++failed_auto_checkpoints_;
  }
}

}  // namespace persist
}  // namespace tud

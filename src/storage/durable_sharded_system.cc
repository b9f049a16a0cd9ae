// Copyright 2026 The LTAM Authors.

#include "storage/durable_sharded_system.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <thread>
#include <unordered_set>
#include <utility>

#include "storage/cold_codec.h"
#include "storage/event_log.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace ltam {

namespace {

Result<uint64_t> SizeOfFile(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat '" + path + "'");
  }
  return static_cast<uint64_t>(st.st_size);
}

/// True when the file is empty or ends with a newline — i.e. no torn
/// final record. Non-final rotated segments were fully fsynced before
/// their successor existed, so a torn tail there is data loss, not a
/// crash window.
Result<bool> SegmentEndsClean(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open segment '" + path + "'");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek segment '" + path + "'");
  }
  long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return size == 0 ? Result<bool>(true)
                     : Result<bool>(Status::IOError("cannot size segment '" +
                                                    path + "'"));
  }
  if (std::fseek(f, -1, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("cannot seek segment '" + path + "'");
  }
  int last = std::fgetc(f);
  std::fclose(f);
  return last == '\n';
}

/// Phase names of checkpoint.phase.* and recovery.phase.*, in the order
/// the phases run; the enums index checkpoint_phase_ / recovery_phase_.
constexpr const char* kCheckpointPhases[] = {
    "flush", "maintain", "cold_persist", "base", "shards", "manifest", "sweep"};
enum : size_t { kFlush, kMaintain, kColdPersist, kBase, kShards, kManifest,
                kSweep };
constexpr const char* kRecoveryPhases[] = {"manifest", "base", "shards",
                                           "cold", "replay"};
enum : size_t { kLoadManifest, kLoadBase, kLoadShards, kLoadCold, kReplay };

/// The ledgers of the subjects on shard `k`, subject-ascending;
/// subjects without a used entry are left out.
std::vector<SubjectLedger> CollectShardLedgers(
    const AuthorizationDatabase& db, const ShardedDecisionEngine& engine,
    uint32_t k) {
  std::map<SubjectId, SubjectLedger> by_subject;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    if (rec.entries_used == 0) continue;
    const SubjectId s = rec.auth.subject();
    if (engine.ShardOf(s) != k) continue;
    SubjectLedger& ledger = by_subject[s];
    ledger.subject = s;
    ledger.used.emplace_back(id, rec.entries_used);
  }
  std::vector<SubjectLedger> out;
  out.reserve(by_subject.size());
  for (auto& [s, ledger] : by_subject) out.push_back(std::move(ledger));
  return out;
}

}  // namespace

DurableShardedSystem::DurableShardedSystem(std::string dir,
                                           DurableShardedOptions options)
    : dir_(std::move(dir)), options_(options) {
  MetricsRegistry* metrics = options_.durability.metrics;
  if (metrics != nullptr) {
    dirty_segments_counter_ = metrics->GetCounter("checkpoint.dirty_segments");
    compaction_runs_counter_ = metrics->GetCounter("compaction.runs");
    retention_dropped_counter_ =
        metrics->GetCounter("retention.dropped_segments");
    cold_segments_gauge_ = metrics->GetGauge("storage.cold_segments");
    cold_bytes_gauge_ = metrics->GetGauge("storage.cold_bytes");
    resident_bytes_gauge_ = metrics->GetGauge("storage.resident_bytes");
    base_rewrites_counter_ = metrics->GetCounter("checkpoint.base_rewrites");
    recovery_duration_gauge_ = metrics->GetGauge("recovery.duration_ns");
  }
  // Null histograms (no registry) leave every PhaseClock inert.
  for (const char* phase : kCheckpointPhases) {
    checkpoint_phase_.push_back(
        metrics == nullptr
            ? nullptr
            : metrics->GetHistogram(std::string("checkpoint.phase.") + phase));
  }
  for (const char* phase : kRecoveryPhases) {
    recovery_phase_.push_back(
        metrics == nullptr
            ? nullptr
            : metrics->GetHistogram(std::string("recovery.phase.") + phase));
  }
}

DurableShardedSystem::~DurableShardedSystem() {
  // Join the workers before the logs they append through go away; the
  // log destructors then drain + best-effort-sync their queues.
  engine_.reset();
  logs_.clear();
}

std::string DurableShardedSystem::FilePath(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string DurableShardedSystem::BaseSnapName(uint64_t epoch) const {
  return "base-" + std::to_string(epoch) + ".snap";
}

std::string DurableShardedSystem::ShardSnapName(uint32_t shard,
                                                uint64_t epoch) const {
  return "shard-" + std::to_string(shard) + "-" + std::to_string(epoch) +
         ".snap";
}

std::string DurableShardedSystem::ShardWalName(uint32_t shard, uint64_t epoch,
                                               uint32_t segment) const {
  std::string name =
      "events-" + std::to_string(shard) + "-" + std::to_string(epoch);
  if (segment > 0) name += "-" + std::to_string(segment);
  return name + ".wal";
}

std::string DurableShardedSystem::ColdSegName(uint32_t shard,
                                              uint64_t index) const {
  return "cold-" + std::to_string(shard) + "-" + std::to_string(index) +
         ".seg";
}

namespace {

/// Recovers the numeric suffix of "cold-<shard>-<n>.seg". Manifest cold
/// names are always generated by ColdSegName, but recovery treats an
/// unparseable one as "no index" rather than failing — the counter then
/// falls back to the list length.
bool ParseColdIndex(const std::string& name, uint32_t shard,
                    uint64_t* index) {
  const std::string prefix = "cold-" + std::to_string(shard) + "-";
  const std::string suffix = ".seg";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (v > (std::numeric_limits<uint64_t>::max() - (c - '0')) / 10) {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

}  // namespace

void DurableShardedSystem::InitEngine(uint32_t num_shards) {
  ShardedEngineOptions opt;
  opt.num_shards = num_shards;
  opt.engine = options_.engine;
  engine_ = std::make_unique<ShardedDecisionEngine>(
      &base_.graph, &base_.auth_db, &base_.profiles, opt);
  cold_files_.assign(num_shards, {});
  next_cold_index_.assign(num_shards, 0);
  maintenance_dirty_.assign(num_shards, false);
  log_floor_.assign(num_shards, 0);
  replayed_records_.assign(num_shards, 0);
}

Status DurableShardedSystem::PartitionBaseMovements() {
  MovementDatabase seed = std::move(base_.movements);
  base_.movements = MovementDatabase();
  return PartitionMovementsIntoShards(seed, engine_.get());
}

void DurableShardedSystem::RebuildShardStays(uint32_t k) {
  // Each inside subject resumes their stay under the first active
  // in-window authorization for (s, current location) — the same choice
  // CheckAccess (and the sequential DurableSystem's recovery) makes.
  ResumeOpenStays(&engine_->shard_engine(k), engine_->shard_movements(k),
                  base_.auth_db,
                  SubjectsOnShard(base_.profiles, *engine_, k));
}

Result<WalWriter> DurableShardedSystem::RotateShardSegment(
    uint32_t shard, uint32_t next_segment) {
  // Serialized against rotations on other shards' log threads and
  // against Checkpoint's WriteEpoch (all republish the shared
  // manifest). Ordering makes the overlap with Checkpoint unreachable
  // anyway: a log finishes rotating before its sync advertises
  // durability, so a barrier-woken Checkpoint never finds a rotation
  // mid-flight — the mutex keeps the MANIFEST path single-writer even
  // if that reasoning ever rots.
  std::lock_guard<std::mutex> lock(manifest_mu_);
  const std::string name = ShardWalName(shard, manifest_.epoch, next_segment);
  LTAM_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Create(FilePath(name)));
  LTAM_RETURN_IF_ERROR(SyncDir(dir_));
  // Commit the extended segment list BEFORE any append reaches the new
  // file: a record in a segment the manifest does not name would be
  // durable on disk yet invisible to recovery. A retried rotation whose
  // previous attempt already committed this segment (the manifest save
  // failed after the list grew, or the retry re-created an empty tail)
  // leaves the list unchanged — and then the republish below is
  // byte-identical and skipped, sparing the rewrite + three fsyncs.
  ShardManifest next = manifest_;
  if (next.shards[shard].wals.empty() ||
      next.shards[shard].wals.back() != name) {
    next.shards[shard].wals.push_back(name);
  }
  LTAM_ASSIGN_OR_RETURN(
      bool published,
      SaveManifestIfChanged(next, FilePath(ManifestFileName()),
                            &published_manifest_bytes_));
  if (published) {
    ++manifest_publishes_;
  } else {
    ++manifest_publish_skips_;
  }
  manifest_ = std::move(next);
  return writer;
}

std::unique_ptr<ShardLog> DurableShardedSystem::MakeShardLog(
    uint32_t shard, WalWriter writer, uint64_t writer_bytes,
    uint32_t segment_index) {
  return std::make_unique<ShardLog>(
      std::move(writer), writer_bytes, segment_index, options_.durability,
      options_.sync_every_batch,
      [this, shard](uint32_t next_segment) {
        return RotateShardSegment(shard, next_segment);
      });
}

Status DurableShardedSystem::ReplayShardLogs(const ShardManifest& manifest) {
  const uint32_t n = engine_->num_shards();
  std::vector<Status> results(n, Status::OK());
  std::vector<std::thread> replayers;
  replayers.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    const std::vector<std::string>& segments = manifest.shards[k].wals;
    Status prepared;
    for (size_t s = 0; s < segments.size() && prepared.ok(); ++s) {
      const std::string path = FilePath(segments[s]);
      if (!FileExists(path)) {
        // Every committed segment was created (and the directory
        // fsynced) before the manifest named it, so a committed cut
        // whose log vanished is data loss, not a crash window — refuse
        // to silently drop the shard's tail.
        prepared = Status::IOError("shard WAL segment '" + path +
                                   "' named by the manifest is missing");
        break;
      }
      if (s + 1 < segments.size()) {
        // Rotation fsyncs a segment before its successor exists, so a
        // non-final segment must end on a record boundary.
        Result<bool> clean = SegmentEndsClean(path);
        if (!clean.ok()) {
          prepared = clean.status();
        } else if (!*clean) {
          prepared = Status::IOError(
              "rotated WAL segment '" + path +
              "' has a torn tail but is not the final segment (data loss)");
        }
      } else {
        // Repair the final segment's torn record now, before replay and
        // before any new append lands on the same line as the torn
        // bytes.
        Result<size_t> dropped = TruncateTornWalTail(path);
        if (!dropped.ok()) prepared = dropped.status();
      }
    }
    if (!prepared.ok()) {
      results[k] = std::move(prepared);
      continue;
    }
    // Parallel replay across shards is safe under the live pipeline's
    // discipline: each log holds only its own shard's subjects
    // (validated below), so no two replayers ever touch the same
    // subject's records. Within a shard, segments replay incrementally
    // in committed order.
    replayers.emplace_back([this, k, segments, &results] {
      AccessControlEngine& shard_engine = engine_->shard_engine(k);
      uint64_t& replayed = replayed_records_[k];
      for (const std::string& segment : segments) {
        results[k] =
            ReplayWal(FilePath(segment), [&](const Record& rec) -> Status {
              LTAM_ASSIGN_OR_RETURN(LoggedEvent event, DecodeEventRecord(rec));
              if (!event.is_tick &&
                  engine_->ShardOf(event.event.subject) != k) {
                return Status::ParseError(
                    "log for shard " + std::to_string(k) +
                    " contains foreign subject " +
                    std::to_string(event.event.subject));
              }
              ApplyLoggedEvent(&shard_engine, event);
              ++replayed;
              return Status::OK();
            });
        if (!results[k].ok()) return;
      }
    });
  }
  for (std::thread& t : replayers) t.join();
  for (uint32_t k = 0; k < n; ++k) {
    if (!results[k].ok()) {
      return results[k].WithContext("replaying shard " + std::to_string(k));
    }
  }
  return Status::OK();
}

Status DurableShardedSystem::WriteEpoch(uint64_t epoch, PhaseClock* clock) {
  const uint32_t n = engine_->num_shards();
  // The previous cut's file names, for the clean-file short-circuit
  // (copied under manifest_mu_; rotation threads own the live manifest).
  // Epoch 0 — no previous cut — writes everything.
  std::string prev_base;
  std::vector<std::string> prev_snapshots;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    if (manifest_.shards.size() == n) {
      prev_base = manifest_.base_snapshot;
      for (const ShardManifest::ShardFiles& files : manifest_.shards) {
        prev_snapshots.push_back(files.snapshot);
      }
    }
  }
  const bool incremental = prev_snapshots.size() == n && logs_.size() == n;
  const uint64_t auth_version = base_.auth_db.version();
  const bool base_dirty =
      !incremental || base_dirty_ || auth_version != base_auth_version_;
  ShardManifest m;
  m.epoch = epoch;
  m.num_shards = n;
  if (base_dirty) {
    m.base_snapshot = BaseSnapName(epoch);
    LTAM_RETURN_IF_ERROR(SaveSnapshot(base_, FilePath(m.base_snapshot),
                                      LedgerPlacement::kInShards));
    LTAM_RETURN_IF_ERROR(SyncFile(FilePath(m.base_snapshot)));
    ++base_rewrites_;
    if (base_rewrites_counter_ != nullptr) base_rewrites_counter_->Increment();
  } else {
    // Nothing but Mutate() changes the base, and the ledger lives in
    // the shard snapshots: the previous file is byte-exact.
    m.base_snapshot = prev_base;
  }
  clock->Lap(checkpoint_phase_[kBase]);
  uint64_t dirty = 0;
  std::vector<uint64_t> floors(n, 0);
  for (uint32_t k = 0; k < n; ++k) {
    ShardManifest::ShardFiles files;
    const MovementDatabase& db = engine_->shard_movements(k);
    const uint64_t chain_records =
        k < logs_.size() ? replayed_records_[k] + logs_[k]->appended_seq() : 0;
    // A changed base rewrites every shard: a Mutate() callback may have
    // touched any subject's ledger without a log record.
    const bool shard_dirty = base_dirty || chain_records > 0 ||
                             maintenance_dirty_[k];
    if (shard_dirty) {
      files.snapshot = ShardSnapName(k, epoch);
      LTAM_RETURN_IF_ERROR(SaveShardSnapshot(
          db, CollectShardLedgers(base_.auth_db, *engine_, k),
          FilePath(files.snapshot)));
      LTAM_RETURN_IF_ERROR(SyncFile(FilePath(files.snapshot)));
      ++dirty;
    } else {
      // Clean shard: no log record landed (or was replayed) since the
      // previous cut and tier maintenance left the hot history alone,
      // so the previous snapshot — movements and ledgers — is
      // byte-exact for this shard. Re-reference it instead of
      // rewriting: checkpoint cost follows the events since the last
      // checkpoint, not total history.
      files.snapshot = prev_snapshots[k];
    }
    files.wals = {ShardWalName(k, epoch)};
    for (const ColdFile& f : cold_files_[k]) files.cold.push_back(f.name);
    files.dropped_events = db.dropped_events();
    // Every record of the retiring chain is folded into this cut.
    floors[k] = log_floor_[k] + chain_records;
    files.log_floor = floors[k];
    m.shards.push_back(std::move(files));
  }
  clock->Lap(checkpoint_phase_[kShards]);
  last_checkpoint_dirty_segments_ = dirty;
  checkpoint_dirty_segments_ += dirty;
  if (dirty_segments_counter_ != nullptr && dirty > 0) {
    dirty_segments_counter_->Increment(dirty);
  }
  maintenance_dirty_.assign(n, false);
  // Fresh, empty logs for the new epoch (truncating any orphan a crashed
  // earlier attempt at this epoch left behind).
  std::vector<WalWriter> fresh;
  fresh.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    LTAM_ASSIGN_OR_RETURN(WalWriter wal,
                          WalWriter::Create(FilePath(m.shards[k].wals[0])));
    fresh.push_back(std::move(wal));
  }
  // The commit point: everything above becomes the recovered state the
  // instant this rename lands. Published under manifest_mu_ so it can
  // never interleave with a rotation's republication on a log thread
  // (rotation also completes before a sync advertises durability, so a
  // barrier-woken Checkpoint cannot overlap one — the lock is
  // belt-and-braces for the shared MANIFEST/MANIFEST.tmp path).
  std::vector<std::unique_ptr<ShardLog>> retiring;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    LTAM_ASSIGN_OR_RETURN(
        bool published,
        SaveManifestIfChanged(m, FilePath(ManifestFileName()),
                              &published_manifest_bytes_));
    if (published) {
      ++manifest_publishes_;
    } else {
      ++manifest_publish_skips_;  // Unreachable: the epoch advanced.
    }
    manifest_ = std::move(m);
    // The cut is committed: only now is the base clean.
    base_dirty_ = false;
    base_auth_version_ = auth_version;
    // Retire the old log generation: everything it accepted is durable
    // now (the snapshot carries the live state, lost pipelined tails
    // included), and its counters must survive the swap. The floors and
    // the logs_ vector swap under manifest_mu_ so a shipper thread
    // snapshotting its read position never sees a half-retired shard.
    for (uint32_t k = 0; k < n; ++k) {
      log_floor_[k] = floors[k];
      replayed_records_[k] = 0;
    }
    for (const std::unique_ptr<ShardLog>& log : logs_) {
      retired_append_failures_ += log->append_failures();
      retired_sync_failures_ += log->sync_failures();
    }
    retiring.swap(logs_);
    for (uint32_t k = 0; k < n; ++k) {
      logs_.push_back(MakeShardLog(k, std::move(fresh[k]), /*writer_bytes=*/0,
                                   /*segment_index=*/0));
    }
  }
  // Joins the old log threads before their files go — outside
  // manifest_mu_, which a log thread takes to rotate.
  retiring.clear();
  clock->Lap(checkpoint_phase_[kManifest]);
  return Status::OK();
}

void DurableShardedSystem::RemoveEpochFiles(const ShardManifest& old_manifest) {
  // Incremental checkpoints re-reference clean shards' snapshot files
  // (and cold segments live across many epochs), so only files the NEW
  // committed cut no longer names may go.
  std::unordered_set<std::string> keep;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    keep.insert(manifest_.base_snapshot);
    for (const ShardManifest::ShardFiles& files : manifest_.shards) {
      keep.insert(files.snapshot);
      keep.insert(files.wals.begin(), files.wals.end());
      keep.insert(files.cold.begin(), files.cold.end());
    }
  }
  auto remove_unless_kept = [this, &keep](const std::string& name) {
    if (keep.count(name) == 0) std::remove(FilePath(name).c_str());
  };
  remove_unless_kept(old_manifest.base_snapshot);
  for (const ShardManifest::ShardFiles& files : old_manifest.shards) {
    remove_unless_kept(files.snapshot);
    for (const std::string& wal : files.wals) remove_unless_kept(wal);
    for (const std::string& seg : files.cold) remove_unless_kept(seg);
  }
}

void DurableShardedSystem::MaintainColdTiers() {
  const RetentionOptions& r = options_.retention;
  const uint32_t n = engine_->num_shards();
  maintenance_dirty_.assign(n, false);
  if (r.max_hot_events == 0) return;
  // Retention is judged against the stream's own clock — the newest
  // time any shard has recorded (hot event times and sealed closing
  // times) — never wall time, so replaying the same events yields the
  // same drops.
  Chronon now = kChrononMin;
  bool any_time = false;
  for (uint32_t k = 0; k < n; ++k) {
    const MovementDatabase& db = engine_->shard_movements(k);
    for (const MovementEvent& ev : db.history()) {
      now = std::max(now, ev.time);
      any_time = true;
    }
    for (const std::shared_ptr<const ColdSegment>& seg : db.cold_segments()) {
      if (!seg->empty()) {
        now = std::max(now, seg->max_exit);
        any_time = true;
      }
    }
  }
  auto segments_of = [](const std::vector<ColdFile>& files) {
    std::vector<std::shared_ptr<const ColdSegment>> segs;
    segs.reserve(files.size());
    for (const ColdFile& f : files) segs.push_back(f.segment);
    return segs;
  };
  for (uint32_t k = 0; k < n; ++k) {
    MovementDatabase& db = engine_->mutable_shard_movements(k);
    // Seal: the hot tier outgrew its bound; completed stays move to a
    // new cold segment and the hot snapshot must be rewritten.
    if (db.history().size() > r.max_hot_events) {
      if (std::shared_ptr<const ColdSegment> seg = db.SealCompletedStays()) {
        maintenance_dirty_[k] = true;
        cold_files_[k].push_back(
            {ColdSegName(k, next_cold_index_[k]++), std::move(seg), false});
      }
    }
    // Retention: drop sealed segments whose every stay ended before the
    // horizon. Segment max_exit is not monotonic across the sequence (a
    // long-open stay seals late with an old exit), so each segment is
    // judged on its own bounds; per-subject order of the survivors is
    // preserved.
    if (r.horizon > 0 && any_time) {
      const Chronon cutoff = ChrononSub(now, r.horizon);
      uint64_t dropped = db.dropped_events();
      std::vector<ColdFile> survivors;
      survivors.reserve(cold_files_[k].size());
      bool changed = false;
      for (ColdFile& f : cold_files_[k]) {
        if (!f.segment->empty() && f.segment->max_exit < cutoff) {
          dropped += f.segment->sealed_events;
          ++retention_dropped_segments_;
          if (retention_dropped_counter_ != nullptr) {
            retention_dropped_counter_->Increment();
          }
          changed = true;
        } else {
          survivors.push_back(std::move(f));
        }
      }
      // The survivors were moved out of cold_files_[k] above, so the
      // write-back is unconditional — keeping the old vector when
      // nothing dropped would keep moved-from (null-segment) entries.
      cold_files_[k] = std::move(survivors);
      if (changed) {
        db.ReplaceColdSegments(segments_of(cold_files_[k]), dropped);
      }
    }
    // Compaction: merge runs of small segments so the tier stays at
    // O(fanin) segments instead of one per seal.
    const size_t fanin = std::max<uint32_t>(2, r.compaction_fanin);
    while (cold_files_[k].size() >= fanin) {
      std::vector<std::shared_ptr<const ColdSegment>> oldest;
      oldest.reserve(fanin);
      for (size_t i = 0; i < fanin; ++i) {
        oldest.push_back(cold_files_[k][i].segment);
      }
      std::shared_ptr<const ColdSegment> merged = MergeColdSegments(oldest);
      cold_files_[k].erase(cold_files_[k].begin(),
                           cold_files_[k].begin() + static_cast<long>(fanin));
      cold_files_[k].insert(
          cold_files_[k].begin(),
          {ColdSegName(k, next_cold_index_[k]++), std::move(merged), false});
      db.ReplaceColdSegments(segments_of(cold_files_[k]),
                             db.dropped_events());
      ++compaction_runs_;
      if (compaction_runs_counter_ != nullptr) {
        compaction_runs_counter_->Increment();
      }
    }
  }
}

Status DurableShardedSystem::PersistColdFiles() {
  bool created = false;
  for (std::vector<ColdFile>& shard_files : cold_files_) {
    for (ColdFile& f : shard_files) {
      if (f.persisted) continue;
      const std::string path = FilePath(f.name);
      LTAM_RETURN_IF_ERROR(SaveColdSegment(*f.segment, path));
      LTAM_RETURN_IF_ERROR(SyncFile(path));
      f.persisted = true;
      created = true;
    }
  }
  // The names must survive a crash before the manifest rename that
  // commits them (recovery refuses a committed cut with missing files).
  if (created) LTAM_RETURN_IF_ERROR(SyncDir(dir_));
  return Status::OK();
}

void DurableShardedSystem::UpdateColdGauges() {
  if (cold_segments_gauge_ != nullptr) {
    cold_segments_gauge_->Set(static_cast<int64_t>(cold_segment_count()));
  }
  if (cold_bytes_gauge_ != nullptr) {
    cold_bytes_gauge_->Set(static_cast<int64_t>(cold_bytes()));
  }
  // Refreshed at every checkpoint, so a soak run's periodic scrapes see
  // whether memory plateaus once retention starts dropping history.
  if (resident_bytes_gauge_ != nullptr) {
    const uint64_t resident = ReadResidentBytes();
    if (resident > 0) {
      resident_bytes_gauge_->Set(static_cast<int64_t>(resident));
    }
  }
}

void DurableShardedSystem::SweepOrphanFiles() {
  std::unordered_set<std::string> referenced;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    referenced.insert(manifest_.base_snapshot);
    for (const ShardManifest::ShardFiles& files : manifest_.shards) {
      referenced.insert(files.snapshot);
      referenced.insert(files.cold.begin(), files.cold.end());
    }
  }
  auto named = [](const std::string& name, const char* prefix,
                  const char* suffix) {
    const size_t p = std::strlen(prefix);
    const size_t x = std::strlen(suffix);
    return name.size() > p + x && name.compare(0, p, prefix) == 0 &&
           name.compare(name.size() - x, x, suffix) == 0;
  };
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> orphans;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (!named(name, "cold-", ".seg") && !named(name, "base-", ".snap") &&
        !named(name, "shard-", ".snap")) {
      continue;
    }
    if (referenced.count(name) == 0) orphans.push_back(name);
  }
  ::closedir(dir);
  // A crash between a file's write and the manifest publish leaves it
  // behind. A cold name is reused (the index counter restarts from the
  // committed manifest), but a snapshot name may never be: a retried
  // checkpoint re-references a clean base or shard instead of writing
  // its own epoch's file. Sweeping keeps the directory an exact mirror
  // of the committed cut.
  for (const std::string& name : orphans) {
    std::remove(FilePath(name).c_str());
  }
}

uint64_t DurableShardedSystem::cold_segment_count() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).cold_segments().size();
  }
  return total;
}

uint64_t DurableShardedSystem::cold_bytes() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).ColdBytes();
  }
  return total;
}

uint64_t DurableShardedSystem::dropped_events() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).dropped_events();
  }
  return total;
}

void DurableShardedSystem::InstallHooks() {
  ShardHooks hooks;
  hooks.before_apply = [this](uint32_t shard, const AccessEvent& event) {
    return logs_[shard]->Append(EncodeEventRecord(event));
  };
  hooks.after_batch = [this](uint32_t shard) {
    return logs_[shard]->BatchBoundary();
  };
  engine_->SetShardHooks(std::move(hooks));
}

Status DurableShardedSystem::LoadShard(uint32_t k, const std::string& name,
                                       LedgerPlacement placement) {
  LTAM_ASSIGN_OR_RETURN(ShardSnapshot snap,
                        LoadShardSnapshot(FilePath(name), placement));
  const std::string where = "shard snapshot '" + name + "' for shard " +
                            std::to_string(k);
  for (const MovementEvent& ev : snap.movements.history()) {
    if (engine_->ShardOf(ev.subject) != k) {
      return Status::ParseError(where + " contains foreign subject " +
                                std::to_string(ev.subject));
    }
  }
  for (const SubjectLedger& ledger : snap.ledgers) {
    if (engine_->ShardOf(ledger.subject) != k) {
      return Status::ParseError(where + " carries the ledger of foreign " +
                                "subject " + std::to_string(ledger.subject));
    }
    for (const auto& [id, used] : ledger.used) {
      Status restored =
          base_.auth_db.RestoreEntriesUsed(id, ledger.subject, used);
      if (!restored.ok()) return restored.WithContext(where);
    }
  }
  engine_->mutable_shard_movements(k) = std::move(snap.movements);
  return Status::OK();
}

Status DurableShardedSystem::LoadColdTier(
    uint32_t k, const ShardManifest::ShardFiles& files) {
  if (files.cold.empty() && files.dropped_events == 0) return Status::OK();
  std::vector<std::shared_ptr<const ColdSegment>> segs;
  segs.reserve(files.cold.size());
  for (const std::string& name : files.cold) {
    LTAM_ASSIGN_OR_RETURN(std::shared_ptr<const ColdSegment> seg,
                          LoadColdSegment(FilePath(name)));
    for (size_t i = 0; i < seg->rows();) {
      const SubjectId s = seg->subjects[i];
      if (engine_->ShardOf(s) != k) {
        return Status::ParseError("cold segment '" + name + "' for shard " +
                                  std::to_string(k) +
                                  " contains foreign subject " +
                                  std::to_string(s));
      }
      // Rows are subject-sorted; skip to the next distinct one.
      while (i < seg->rows() && seg->subjects[i] == s) ++i;
    }
    uint64_t index = 0;
    if (ParseColdIndex(name, k, &index)) {
      next_cold_index_[k] = std::max(next_cold_index_[k], index + 1);
    }
    cold_files_[k].push_back({name, seg, /*persisted=*/true});
    segs.push_back(std::move(seg));
  }
  next_cold_index_[k] = std::max(
      next_cold_index_[k], static_cast<uint64_t>(cold_files_[k].size()));
  engine_->mutable_shard_movements(k).AttachColdTier(std::move(segs),
                                                     files.dropped_events);
  return Status::OK();
}

Status DurableShardedSystem::Recover(const std::string& manifest_path) {
  PhaseClock clock(recovery_phase_[kLoadManifest] != nullptr);
  LTAM_ASSIGN_OR_RETURN(ShardManifest manifest, LoadManifest(manifest_path));
  if (manifest.num_shards != options_.num_shards) {
    // The on-disk partition always wins — the logged subjects were
    // routed under it — but callers asked for something else, so say
    // so explicitly instead of letting them guess from behavior.
    shard_count_overridden_ = true;
    LTAM_LOG_WARNING << "durable directory '" << dir_ << "' pins "
                     << manifest.num_shards << " shards; requested "
                     << options_.num_shards
                     << " ignored (partition is fixed at creation)";
  }
  clock.Lap(recovery_phase_[kLoadManifest]);
  LedgerPlacement placement = LedgerPlacement::kInline;
  LTAM_ASSIGN_OR_RETURN(
      SystemState recovered,
      LoadSnapshot(FilePath(manifest.base_snapshot),
                   SubjectOperatorRegistry::Default(),
                   LocationOperatorRegistry::Default(), &placement));
  if (!recovered.movements.history().empty()) {
    return Status::ParseError(
        "sharded base snapshot must not carry movement records "
        "(movements live in the per-shard segments)");
  }
  base_ = std::move(recovered);
  // A base that still carries the ledger predates ledger-in-shards: its
  // shard snapshots hold movements only. The first checkpoint rewrites
  // the base and every shard in the new format.
  base_dirty_ = placement == LedgerPlacement::kInline;
  InitEngine(manifest.num_shards);
  clock.Lap(recovery_phase_[kLoadBase]);
  for (uint32_t k = 0; k < manifest.num_shards; ++k) {
    LTAM_RETURN_IF_ERROR(LoadShard(k, manifest.shards[k].snapshot, placement));
    log_floor_[k] = manifest.shards[k].log_floor;
  }
  clock.Lap(recovery_phase_[kLoadShards]);
  // The cold tier attaches BEFORE the log replays: replay runs the same
  // monotonicity checks the live path ran, and those depend on the
  // sealed floors the tier carries.
  for (uint32_t k = 0; k < manifest.num_shards; ++k) {
    LTAM_RETURN_IF_ERROR(LoadColdTier(k, manifest.shards[k]));
  }
  clock.Lap(recovery_phase_[kLoadCold]);
  for (uint32_t k = 0; k < manifest.num_shards; ++k) RebuildShardStays(k);
  LTAM_RETURN_IF_ERROR(ReplayShardLogs(manifest));
  base_auth_version_ = base_.auth_db.version();
  epoch_ = manifest.epoch;
  manifest_ = std::move(manifest);
  // Appends resume on each shard's final committed segment.
  for (uint32_t k = 0; k < manifest_.num_shards; ++k) {
    const std::vector<std::string>& segments = manifest_.shards[k].wals;
    const std::string tail = FilePath(segments.back());
    LTAM_ASSIGN_OR_RETURN(WalWriter wal, WalWriter::Open(tail));
    LTAM_ASSIGN_OR_RETURN(uint64_t bytes, SizeOfFile(tail));
    logs_.push_back(MakeShardLog(k, std::move(wal), bytes,
                                 static_cast<uint32_t>(segments.size() - 1)));
  }
  clock.Lap(recovery_phase_[kReplay]);
  if (recovery_duration_gauge_ != nullptr) {
    recovery_duration_gauge_->Set(static_cast<int64_t>(clock.Elapsed()));
  }
  return Status::OK();
}

Result<std::unique_ptr<DurableShardedSystem>> DurableShardedSystem::Open(
    const std::string& dir, SystemState initial,
    DurableShardedOptions options) {
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("'" + dir + "' is not a directory");
  }
  options.num_shards = std::max<uint32_t>(1, options.num_shards);
  std::unique_ptr<DurableShardedSystem> sys(
      new DurableShardedSystem(dir, options));
  sys->requested_shards_ = options.num_shards;
  const std::string manifest_path = sys->FilePath(ManifestFileName());
  if (FileExists(manifest_path)) {
    LTAM_RETURN_IF_ERROR(sys->Recover(manifest_path));
  } else {
    sys->base_ = std::move(initial);
    sys->InitEngine(options.num_shards);
    LTAM_RETURN_IF_ERROR(sys->PartitionBaseMovements());
    for (uint32_t k = 0; k < sys->num_shards(); ++k) {
      sys->RebuildShardStays(k);
    }
    // Checkpoint the seed immediately: recovery never needs `initial`.
    PhaseClock untimed(false);
    LTAM_RETURN_IF_ERROR(sys->WriteEpoch(0, &untimed));
    sys->epoch_ = 0;
  }
  sys->SweepOrphanFiles();
  sys->UpdateColdGauges();
  sys->InstallHooks();
  return sys;
}

std::vector<Decision> DurableShardedSystem::EvaluateBatchWithStatus(
    Span<const AccessEvent> batch, Status* durability) {
  std::vector<Decision> decisions = engine_->EvaluateBatch(batch);
  *durability = engine_->TakeBatchError();
  return decisions;
}

Result<std::vector<Decision>> DurableShardedSystem::EvaluateBatch(
    Span<const AccessEvent> batch) {
  Status durability;
  std::vector<Decision> decisions = EvaluateBatchWithStatus(batch, &durability);
  if (!durability.ok()) {
    return durability.WithContext("durable batch");
  }
  return decisions;
}

Status DurableShardedSystem::Tick(Chronon t) {
  const Record record = EncodeTickRecord(t);
  Status first_error;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    Result<CommitTicket> appended = logs_[k]->Append(record);
    if (!appended.ok()) {
      // Write-ahead per shard: a shard whose tick could not be logged is
      // not ticked, so its live state never diverges from what recovery
      // would replay (pipelined logs never refuse here).
      if (first_error.ok()) first_error = appended.status();
      continue;
    }
    engine_->TickShard(k, t);
    Result<CommitTicket> boundary = logs_[k]->BatchBoundary();
    // A failed boundary leaves the tick appended and applied
    // (consistent); only its durability is in doubt — report it.
    if (!boundary.ok() && first_error.ok()) first_error = boundary.status();
  }
  return first_error;
}

Status DurableShardedSystem::WaitDurable() {
  Status first_error;
  for (const std::unique_ptr<ShardLog>& log : logs_) {
    Status flushed = log->Flush();
    if (!flushed.ok() && first_error.ok()) first_error = std::move(flushed);
  }
  return first_error;
}

DurabilityWatermark DurableShardedSystem::Watermark() const {
  DurabilityWatermark mark;
  for (uint32_t k = 0; k < logs_.size(); ++k) {
    const DurabilityWatermark shard = ShardWatermark(k);
    mark.applied += shard.applied;
    mark.durable += shard.durable;
  }
  return mark;
}

DurabilityWatermark DurableShardedSystem::ShardWatermark(
    uint32_t shard) const {
  // The replayed chain records were on disk before Open: durable.
  const uint64_t base = log_floor_[shard] + replayed_records_[shard];
  DurabilityWatermark mark;
  mark.applied = base + logs_[shard]->appended_seq();
  mark.durable = base + logs_[shard]->durable_seq();
  return mark;
}

uint64_t DurableShardedSystem::wal_append_failures() const {
  uint64_t total = retired_append_failures_;
  for (const std::unique_ptr<ShardLog>& log : logs_) {
    total += log->append_failures();
  }
  return total;
}

uint64_t DurableShardedSystem::wal_sync_failures() const {
  uint64_t total = retired_sync_failures_;
  for (const std::unique_ptr<ShardLog>& log : logs_) {
    total += log->sync_failures();
  }
  return total;
}

Status DurableShardedSystem::Checkpoint() {
  PhaseClock clock(checkpoint_phase_[kFlush] != nullptr);
  // Quiesce the write path. A sticky-failed pipelined log cannot flush,
  // but the checkpoint REPAIRS it: the snapshot persists the live state
  // (which includes every event whose log bytes were lost), and the new
  // epoch starts with fresh, healthy logs.
  Status flushed = WaitDurable();
  if (!flushed.ok()) {
    LTAM_LOG_WARNING << "checkpoint proceeding over a failed log flush "
                        "(the snapshot supersedes the lost tail): "
                     << flushed.ToString();
  }
  // Tier maintenance first (seal / drop / compact, in memory), then the
  // new cold files reach disk before the manifest rename references
  // them. A crash anywhere in between recovers the previous committed
  // cut; sealing is query-transparent, so the retried checkpoint
  // re-derives an equivalent tier.
  clock.Lap(checkpoint_phase_[kFlush]);
  MaintainColdTiers();
  clock.Lap(checkpoint_phase_[kMaintain]);
  LTAM_RETURN_IF_ERROR(PersistColdFiles());
  clock.Lap(checkpoint_phase_[kColdPersist]);
  ShardManifest old_manifest;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    old_manifest = manifest_;
  }
  LTAM_RETURN_IF_ERROR(WriteEpoch(epoch_ + 1, &clock));
  epoch_ += 1;
  RemoveEpochFiles(old_manifest);
  UpdateColdGauges();
  clock.Lap(checkpoint_phase_[kSweep]);
  return Status::OK();
}

size_t DurableShardedSystem::wal_events() const {
  size_t total = 0;
  for (const std::unique_ptr<ShardLog>& log : logs_) {
    total += static_cast<size_t>(log->appended());
  }
  return total;
}

uint64_t DurableShardedSystem::manifest_publishes() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_publishes_;
}

uint64_t DurableShardedSystem::manifest_publish_skips() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_publish_skips_;
}

namespace {

/// Streams a WAL segment's raw lines to `fn` (return false to stop).
Status ForEachWalLine(const std::string& path,
                      const std::function<bool(std::string&&)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open segment '" + path + "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!fn(std::move(line))) break;
    line.clear();
  }
  return Status::OK();
}

}  // namespace

Result<DurableShardedSystem::ReplicationSlice>
DurableShardedSystem::ReadShardRecords(uint32_t shard, uint64_t from,
                                       size_t max_records) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument("replication read from shard " +
                                   std::to_string(shard) + " of " +
                                   std::to_string(num_shards()));
  }
  // Two passes: a checkpoint may sweep the chain we snapshotted out
  // from under the file reads; the second pass sees the fresh cut (and
  // its higher retired floor turns the race into "resync required").
  Status last_read = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    uint64_t floor = 0;
    uint64_t durable = 0;
    uint64_t appended = 0;
    std::vector<std::string> segments;
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      floor = log_floor_[shard];
      const DurabilityWatermark mark = ShardWatermark(shard);
      durable = mark.durable;
      appended = mark.applied;
      segments = manifest_.shards[shard].wals;
    }
    if (from < floor) {
      return Status::FailedPrecondition(
          "resync required: shard " + std::to_string(shard) + " position " +
          std::to_string(from) + " precedes the retained log floor " +
          std::to_string(floor) + " (a checkpoint retired it)");
    }
    if (from > appended) {
      return Status::FailedPrecondition(
          "replica ahead of primary: shard " + std::to_string(shard) +
          " position " + std::to_string(from) + " exceeds the log end " +
          std::to_string(appended) + " (diverged history, resync required)");
    }
    ReplicationSlice slice;
    slice.durable = durable;
    slice.next = from;
    if (from >= durable) return slice;  // Nothing durable to ship yet.
    const uint64_t want =
        std::min<uint64_t>(durable - from, static_cast<uint64_t>(max_records));
    // The chain starts at the floor: replayed records, then appended.
    uint64_t skip = from - floor;
    last_read = Status::OK();
    for (const std::string& segment : segments) {
      if (slice.records.size() >= want) break;
      last_read =
          ForEachWalLine(FilePath(segment), [&](std::string&& line) {
            if (skip > 0) {
              --skip;
              return true;
            }
            if (slice.records.size() >= want) return false;
            slice.records.push_back(std::move(line));
            return true;
          });
      if (!last_read.ok()) break;
    }
    if (last_read.ok() && slice.records.size() == want) {
      slice.next = from + want;
      return slice;
    }
  }
  if (!last_read.ok()) return last_read;
  return Status::IOError("shard " + std::to_string(shard) +
                         " chain is shorter than its durable watermark");
}

Result<DurableShardedSystem::ReplicationApply>
DurableShardedSystem::ApplyReplicatedRecords(
    uint32_t shard, uint64_t start, const std::vector<std::string>& records) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument("replicated chunk for shard " +
                                   std::to_string(shard) + " of " +
                                   std::to_string(num_shards()));
  }
  ReplicationApply out;
  out.position = ShardWatermark(shard).applied;
  if (start > out.position) {
    return Status::FailedPrecondition(
        "replication gap: chunk for shard " + std::to_string(shard) +
        " starts at " + std::to_string(start) + ", shard is at " +
        std::to_string(out.position));
  }
  AccessControlEngine& shard_engine = engine_->shard_engine(shard);
  uint64_t at = start;
  for (const std::string& line : records) {
    if (at++ < out.position) continue;  // Reconnect overlap: applied.
    LTAM_ASSIGN_OR_RETURN(Record rec, DecodeRecord(line));
    LTAM_ASSIGN_OR_RETURN(LoggedEvent event, DecodeEventRecord(rec));
    if (!event.is_tick && engine_->ShardOf(event.event.subject) != shard) {
      return Status::ParseError(
          "replicated record for shard " + std::to_string(shard) +
          " carries foreign subject " +
          std::to_string(event.event.subject));
    }
    // Write-ahead on the replica too: the record lands in this
    // directory's own log before it applies, so a replica restart — or
    // this replica's own promotion — replays the identical stream.
    Result<CommitTicket> appended = logs_[shard]->Append(rec);
    if (!appended.ok()) {
      return appended.status().WithContext("replica log append");
    }
    if (event.is_tick) {
      engine_->TickShard(shard, event.tick_time);
    } else {
      out.decisions.push_back(ApplyAccessEvent(&shard_engine, event.event));
    }
    out.position += 1;
  }
  Result<CommitTicket> boundary = logs_[shard]->BatchBoundary();
  if (!boundary.ok()) {
    return boundary.status().WithContext("replica commit boundary");
  }
  out.alerts = engine_->DrainAlerts();
  return out;
}

MovementDatabase DurableShardedSystem::MergedMovements() const {
  std::vector<MovementEvent> all;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    const std::vector<MovementEvent>& history =
        engine_->shard_movements(k).history();
    all.insert(all.end(), history.begin(), history.end());
  }
  // Stable by time: a subject's events sit on one shard in order, so the
  // per-subject nondecreasing invariant survives the merge.
  std::stable_sort(all.begin(), all.end(),
                   [](const MovementEvent& a, const MovementEvent& b) {
                     return a.time < b.time;
                   });
  MovementDatabase merged;
  for (const MovementEvent& ev : all) {
    Status recorded = merged.RecordMovement(ev.time, ev.subject, ev.to);
    (void)recorded;  // Invariant: cannot fail; shards preserve order.
  }
  return merged;
}

}  // namespace ltam

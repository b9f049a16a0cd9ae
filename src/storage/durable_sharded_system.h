// Copyright 2026 The LTAM Authors.
// Durable sharded LTAM runtime: the batch decision pipeline of
// engine/sharded_engine.h made crash-safe.
//
// Layout of one durable directory (all names recorded in `MANIFEST`):
//
//   MANIFEST                    the committed checkpoint cut (see
//                               storage/manifest.h; atomically renamed)
//   base-<epoch>.snap           shared state: graph, profiles,
//                               authorizations, rules (no entry
//                               ledger; rewritten only after a change)
//   shard-<k>-<epoch>.snap      shard k's movement history and its
//                               subjects' entry ledgers at the cut
//   events-<k>-<epoch>.wal      shard k's log tail since the cut
//   events-<k>-<epoch>-<s>.wal  rotated log segments (s >= 1), created
//                               once the previous segment crossed
//                               DurabilityOptions::segment_max_bytes;
//                               each rotation republishes the MANIFEST
//                               with the extended segment list
//
// Durability discipline: each shard's worker thread appends every event
// of its batch slice to its own log *before* applying it (write-ahead,
// via ShardHooks::before_apply), then marks the group-commit boundary
// (ShardHooks::after_batch). What the boundary costs depends on
// DurabilityOptions::mode:
//
//   kBatch      one fsync per shard per batch, on the batch's critical
//               path — the original PR-2 discipline, byte-identical
//               to it (and the strongest per-batch guarantee).
//   kPipelined  appends go to an in-memory commit queue; a dedicated
//               log thread per shard writes them and batches fsyncs
//               across multiple engine batches (commit pipelining,
//               bounded by pipeline_depth / max_unsynced_bytes). The
//               batch returns before its fsync lands; WaitDurable()
//               and the (applied, durable) watermark close the gap.
//   kInterval   like kPipelined, but the log thread fsyncs on a timer
//               (sync_interval_ms).
//
// Decision streams are byte-identical across all three modes (pipelined
// failures surface through the watermark and failure counters, never by
// rewriting decisions) — the property the equivalence matrix enforces.
//
// Checkpoint() flushes every log (restoring durable == applied, even
// for a sticky-failed pipelined log, whose lost tail the snapshot
// supersedes), writes the dirty segments of the next epoch, publishes
// them by atomically renaming a fresh MANIFEST, then deletes the files
// the new cut no longer references. A crash at any instant leaves a
// committed cut. Checkpoints are INCREMENTAL: a shard whose log
// accepted no records since the previous cut (and whose cold tier did
// not change) re-references its previous snapshot file in the new
// manifest instead of rewriting it, so checkpoint latency scales with
// the events since the last checkpoint, not with total history. The
// base is re-referenced the same way unless it changed: the
// Definition-7 entry counts are per-subject state (every authorization
// binds one subject, Definition 4), so they live in the shard
// snapshots, and the base changes only through mutable_base() — the
// facade's Mutate() window — or an authorization-database version bump.
// A checkpoint after such a change rewrites the base and every shard
// (a Mutate callback may touch any subject's ledger). A directory
// whose base still carries the ledger (written before it moved) loads
// as it is and its first checkpoint rewrites the base and every shard,
// so no re-referenced snapshot is ever missing its ledger.
//
// With RetentionOptions::max_hot_events set, Checkpoint() also runs the
// per-shard tier maintenance pass first: shards whose hot history
// outgrew the bound seal their completed stays into immutable columnar
// cold segments (cold-<k>-<n>.seg, storage/cold_codec.h; `n` increases
// monotonically per shard and never recycles within a committed
// lineage), retention drops sealed segments whose every stay ended
// before the horizon, and compaction merges segment runs of
// compaction_fanin into one. New/merged segments are written + fsynced
// before the manifest rename commits them; files dropped by retention
// or superseded by compaction are swept with the old epoch's files.
//
// Open() recovers by loading the manifest's base snapshot and shard
// snapshots (restoring each subject's ledger after checking that the
// authorization exists, binds that subject, lives on that shard and
// stays within max_entries), rebuilding each shard's open-stay
// attribution exactly as the sequential DurableSystem does (first in-window authorization wins),
// then replaying every shard's log segments — in committed order within
// a shard, and across shards *in parallel* — safe because the partition
// confines each subject's events to one shard. Only the final segment
// of a shard may carry a torn tail (rotation fsyncs a segment before
// its successor exists); a short tail on an earlier segment is data
// loss and recovery refuses it. Recovered state is identical to a
// sequential replay of the surviving log prefix (the property
// tests/durable_sharded_test.cc enforces under crash injection, now
// across rotated segments and pipelined commits).

#ifndef LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_
#define LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/cold_segment.h"
#include "engine/movement_db.h"
#include "engine/sharded_engine.h"
#include "storage/log_pipeline.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace ltam {

class Counter;
class Gauge;
class Histogram;
class PhaseClock;

/// Tuning knobs for the durable sharded runtime.
struct DurableShardedOptions {
  /// Shard count for a *fresh* directory. Recovery always reuses the
  /// manifest's count — the on-disk partition is fixed at creation. When
  /// a recovered manifest pins a different count the mismatch is logged
  /// and surfaced through shard_count_overridden(), never guessed away.
  uint32_t num_shards = 4;
  /// Per-shard engine options.
  EngineOptions engine;
  /// kBatch mode only: fsync each shard's log once per batch (and per
  /// tick). Disable only for throughput experiments where the OS page
  /// cache is an acceptable durability boundary. Pipelined modes ignore
  /// it (their cadence comes from `durability`).
  bool sync_every_batch = true;
  /// The write path's sync mode, pipelining bounds, segment rotation
  /// threshold, and (tests only) fault injection.
  DurabilityOptions durability;
  /// Tiering + retention (engine/movement_db.h). max_hot_events == 0
  /// disables sealing entirely — the pre-tiering behavior.
  RetentionOptions retention;
};

/// A crash-safe, subject-sharded batch runtime rooted at one directory.
///
/// Lifecycle mirrors ShardedDecisionEngine: Open (recovers or
/// initializes), EvaluateBatch/Tick/Checkpoint from one control thread,
/// destroy (joins workers, then log threads). Database mutations on
/// base() are only legal between batches and are NOT logged — persist
/// them via Checkpoint().
class DurableShardedSystem {
 public:
  /// Opens (or creates) the runtime in `dir`. A fresh directory is
  /// seeded from `initial` (its movement history is partitioned across
  /// the shards) and immediately checkpointed as epoch 0, so recovery
  /// never needs `initial` again; when a MANIFEST exists, `initial` is
  /// ignored and state is recovered from the committed cut.
  static Result<std::unique_ptr<DurableShardedSystem>> Open(
      const std::string& dir, SystemState initial,
      DurableShardedOptions options = {});

  ~DurableShardedSystem();
  DurableShardedSystem(const DurableShardedSystem&) = delete;
  DurableShardedSystem& operator=(const DurableShardedSystem&) = delete;

  // --- Logged entry points -------------------------------------------------

  /// Logs and applies a batch: each shard's worker appends its slice to
  /// its log before applying, then marks the group-commit boundary.
  /// Returns one decision per event in input order; *durability receives
  /// the batch's durability outcome (composed by ComposeDurabilityError:
  /// refused events are visible as Deny(kWalError) decisions and safe to
  /// resubmit, while a boundary/fsync failure — which outranks refusals
  /// in the status — means applied events' durability is in doubt and
  /// they must NOT be resubmitted; in pipelined modes a sticky log
  /// failure keeps reporting here until a Checkpoint repairs it). The
  /// decisions always survive, so a partial failure never hides which
  /// events applied.
  std::vector<Decision> EvaluateBatchWithStatus(Span<const AccessEvent> batch,
                                                Status* durability);

  /// Legacy convenience over EvaluateBatchWithStatus: folds any
  /// durability trouble into an error Result, DISCARDING the decisions.
  /// Callers that must know which events applied (anything that might
  /// resubmit) should use EvaluateBatchWithStatus instead.
  Result<std::vector<Decision>> EvaluateBatch(Span<const AccessEvent> batch);

  /// Logs and applies a patrol tick on every shard.
  Status Tick(Chronon t);

  // --- Durability ----------------------------------------------------------

  /// Persists the full state as a new epoch and truncates every shard's
  /// log (all rotated segments swept with it). Subsequent recovery
  /// starts from here. Restores durable == applied: the snapshot
  /// supersedes any tail a sticky-failed pipelined log lost. With a
  /// metrics registry, each phase is timed into
  /// checkpoint.phase.{flush,maintain,cold_persist,base,shards,manifest,
  /// sweep} (Open times recovery into recovery.phase.{manifest,base,
  /// shards,cold,replay} and sets the recovery.duration_ns gauge).
  Status Checkpoint();

  /// Durability barrier: blocks until every accepted log record is
  /// fsynced (forcing the flush), or returns the first log's sticky
  /// error. A no-op in kBatch + sync_every_batch mode, where every
  /// batch already synced.
  Status WaitDurable();

  /// The runtime's durability position: log records accepted (their
  /// events applied) vs fsynced, monotonic across checkpoints.
  DurabilityWatermark Watermark() const;

  /// One shard log's durability position, monotonic across checkpoints
  /// and reopens (log floor + replayed chain + live log). The aggregate
  /// Watermark() is the sum over shards.
  DurabilityWatermark ShardWatermark(uint32_t shard) const;

  /// Physical log failures observed since Open (appends that refused or
  /// lost records, fsyncs that failed), monotonic across checkpoints.
  uint64_t wal_append_failures() const;
  uint64_t wal_sync_failures() const;

  /// Events appended across all shard logs through this instance (reset
  /// by Checkpoint; a recovered tail replayed at Open is not counted).
  size_t wal_events() const;

  /// Current committed checkpoint epoch.
  uint64_t epoch() const { return epoch_; }

  // --- Tiering & retention -------------------------------------------------

  /// Sealed cold segments currently live across every shard.
  uint64_t cold_segment_count() const;
  /// Approximate in-memory bytes held by the cold columns, all shards.
  uint64_t cold_bytes() const;
  /// Events dropped past the retention horizon, all shards, cumulative.
  uint64_t dropped_events() const;
  /// Shard snapshots rewritten by the most recent WriteEpoch — the
  /// incremental-checkpoint pin: clean shards re-reference their old
  /// file and do not count.
  uint64_t last_checkpoint_dirty_segments() const {
    return last_checkpoint_dirty_segments_;
  }
  /// Same, accumulated across every checkpoint since Open.
  uint64_t checkpoint_dirty_segments() const {
    return checkpoint_dirty_segments_;
  }
  /// Base snapshots written since Open (the fresh directory's epoch 0
  /// included): one per checkpoint that followed a base change.
  uint64_t base_rewrites() const { return base_rewrites_; }
  /// Compaction merges performed since Open.
  uint64_t compaction_runs() const { return compaction_runs_; }
  /// Sealed segments dropped past the horizon since Open.
  uint64_t retention_dropped_segments() const {
    return retention_dropped_segments_;
  }

  // --- Replication ---------------------------------------------------------
  //
  // The replication position of shard k is the monotonic per-shard
  // record count ShardWatermark() reports: the manifest's log floor
  // (records earlier epochs folded into snapshots), plus the records
  // Open replayed from the current WAL chain, plus the live log's
  // sequence. The floor is persisted, so positions survive reopens.
  // Shipping reads committed records back out of the segment chain;
  // applying appends them to the replica's own chain
  // (write-ahead, so replica restart and onward promotion replay the
  // identical stream) and then applies them through the recovery codec.

  /// One shippable slice of a shard's stream: encoded WAL lines
  /// (newline-stripped), starting at position `from`.
  struct ReplicationSlice {
    std::vector<std::string> records;
    uint64_t next = 0;     ///< Position after the last returned record.
    uint64_t durable = 0;  ///< The shard's durable position at read time.
  };

  /// Reads up to `max_records` records of shard `shard` starting at
  /// position `from`. Only durable records ship (a replica must never
  /// hold a record its primary could still lose); `from` at or beyond
  /// the durable position returns an empty slice — poll again. `from`
  /// below the log floor is FailedPrecondition "resync required":
  /// a checkpoint folded those records into a snapshot and swept them.
  /// Callable from a shipper thread concurrent with the write path.
  ///
  /// Reads resume from byte cursors, so shipping a chain in chunks
  /// reads it once instead of once per chunk. Each shard keeps
  /// kReadCursorsPerShard cursors {position, log floor, segment, byte
  /// offset}; a read that returns a full, non-empty slice leaves one at
  /// its `next` (replacing the one it resumed from, else the oldest).
  /// A request hits a cursor when `from` equals its position, the log
  /// floor is the one it was taken under, and the segment is still in
  /// the chain and at least `offset` bytes long; it then reads from that
  /// offset on, crossing into later segments at end of file. Any other
  /// request scans the chain from the floor, as without cursors. A
  /// checkpoint moves the floor or renames the chain (segment names
  /// carry the epoch), so it invalidates every cursor without further
  /// bookkeeping. The returned records do not depend on the path taken.
  Result<ReplicationSlice> ReadShardRecords(uint32_t shard, uint64_t from,
                                            size_t max_records);

  /// The outcome of applying one shipped chunk on a replica.
  struct ReplicationApply {
    /// One decision per access event actually applied (reconnect
    /// overlap and ticks produce none) — the replica's decision stream.
    std::vector<Decision> decisions;
    /// Alerts the applied events raised (drained so replica-side
    /// buffers cannot grow without a batch pipeline to empty them).
    std::vector<Alert> alerts;
    uint64_t position = 0;  ///< Applied position after the chunk.
  };

  /// Appends and applies one shipped chunk: records before the shard's
  /// current position are skipped (a reconnect re-ships the durable
  /// suffix, which may overlap what this replica already applied), a
  /// chunk starting beyond it is a gap error. Each surviving record is
  /// validated (codec + shard ownership), appended to this directory's
  /// own log, then applied. NOT concurrency-safe with the batch write
  /// path — a replica has no batch traffic, and the caller serializes
  /// against reads with the runtime lock.
  Result<ReplicationApply> ApplyReplicatedRecords(
      uint32_t shard, uint64_t start, const std::vector<std::string>& records);

  /// Manifest republish accounting: rotations that would rewrite the
  /// MANIFEST byte-identically (e.g. a retried rotation whose segment
  /// was already committed) skip the write + three fsyncs.
  uint64_t manifest_publishes() const;
  uint64_t manifest_publish_skips() const;

  // --- Introspection -------------------------------------------------------

  /// Shared state (graph/profiles/auth DB with its ledger/rules).
  /// Movement state lives in the per-shard views, not here.
  const SystemState& base() const { return base_; }
  /// Mutable shared state: marks the base dirty, so the next checkpoint
  /// rewrites it (and every shard snapshot) instead of re-referencing.
  SystemState& mutable_base() {
    base_dirty_ = true;
    return base_;
  }

  const ShardedDecisionEngine& engine() const { return *engine_; }
  ShardedDecisionEngine& engine() { return *engine_; }

  uint32_t num_shards() const { return engine_->num_shards(); }
  uint32_t ShardOf(SubjectId s) const { return engine_->ShardOf(s); }

  /// True when Open() recovered a MANIFEST whose shard count differs
  /// from the one the caller requested — the manifest always wins (the
  /// on-disk partition is fixed at creation), and callers that care can
  /// detect the override here instead of comparing counts by hand.
  bool shard_count_overridden() const { return shard_count_overridden_; }

  /// The shard count the caller asked Open() for (num_shards() is the
  /// count actually in effect).
  uint32_t requested_shards() const { return requested_shards_; }
  const MovementDatabase& shard_movements(uint32_t shard) const {
    return engine_->shard_movements(shard);
  }

  /// One shard's log (watermark/segment introspection for tests).
  const ShardLog& shard_log(uint32_t shard) const { return *logs_[shard]; }

  /// Merged alerts from every shard (deterministically ordered),
  /// clearing the per-shard buffers.
  std::vector<Alert> DrainAlerts() { return engine_->DrainAlerts(); }

  /// Rebuilds one unified movement database from every shard's view
  /// (history merged in time order; per-subject order is preserved since
  /// each subject lives on exactly one shard). For cross-shard queries
  /// and tests; cost is linear in total history. HOT tier only: sealed
  /// cold segments are not folded in — use the sharded MovementView for
  /// tier-transparent cross-shard queries.
  MovementDatabase MergedMovements() const;

 private:
  DurableShardedSystem(std::string dir, DurableShardedOptions options);

  std::string FilePath(const std::string& name) const;
  std::string BaseSnapName(uint64_t epoch) const;
  std::string ShardSnapName(uint32_t shard, uint64_t epoch) const;
  /// Cold segment files are named per shard with a monotonically
  /// increasing index (NOT the epoch: the same file is referenced by
  /// every subsequent manifest until retention or compaction retires
  /// it).
  std::string ColdSegName(uint32_t shard, uint64_t index) const;
  /// Segment 0 keeps the legacy name events-<k>-<epoch>.wal; rotated
  /// segments are events-<k>-<epoch>-<seg>.wal.
  std::string ShardWalName(uint32_t shard, uint64_t epoch,
                           uint32_t segment = 0) const;

  /// Constructs the engine over base_ with `num_shards` shards.
  void InitEngine(uint32_t num_shards);

  /// Moves base_.movements into the per-shard views (partitioned by
  /// subject, history order preserved), leaving base_.movements empty.
  Status PartitionBaseMovements();

  /// Re-registers open stays on shard `k`'s engine from its movement
  /// view — the same first-in-window-authorization-wins choice the
  /// sequential DurableSystem makes.
  void RebuildShardStays(uint32_t k);

  /// Wraps an open segment writer in this shard's ShardLog (wiring the
  /// rotation callback and durability options).
  std::unique_ptr<ShardLog> MakeShardLog(uint32_t shard, WalWriter writer,
                                         uint64_t writer_bytes,
                                         uint32_t segment_index);

  /// Rotation callback body: creates the next numbered segment, commits
  /// the extended segment list to the manifest, returns the new writer.
  /// Runs on shard `shard`'s log thread.
  Result<WalWriter> RotateShardSegment(uint32_t shard, uint32_t next_segment);

  /// Recovers the committed cut named by the MANIFEST at
  /// `manifest_path`: base, shard snapshots with their ledgers, cold
  /// tiers, then the WAL tails; installs the tail writers.
  Status Recover(const std::string& manifest_path);

  /// Loads shard `k`'s snapshot and restores its ledgers into base_.
  Status LoadShard(uint32_t k, const std::string& name,
                   LedgerPlacement placement);

  /// Loads and attaches shard `k`'s cold tier.
  Status LoadColdTier(uint32_t k, const ShardManifest::ShardFiles& files);

  /// Replays every shard's committed WAL segments (parallel across
  /// shards, ordered within one), counting the records into
  /// replayed_records_; `manifest` names the files.
  Status ReplayShardLogs(const ShardManifest& manifest);

  /// Writes the dirty files of `epoch` + its manifest and swaps in
  /// fresh logs; a clean base and clean shards re-reference their
  /// previous files. On success the committed cut is in manifest_.
  /// `clock` (may be inert) times the base, shards and manifest phases.
  Status WriteEpoch(uint64_t epoch, PhaseClock* clock);

  /// Checkpoint's tier maintenance pass: seals oversized hot shards,
  /// drops sealed segments past the retention horizon, merges segment
  /// runs of compaction_fanin. Marks shards whose hot snapshot must be
  /// rewritten in maintenance_dirty_. No-op unless
  /// options_.retention.max_hot_events > 0.
  void MaintainColdTiers();

  /// Writes + fsyncs every not-yet-persisted cold segment file (then
  /// the directory, so the names survive crash before the manifest
  /// rename references them).
  Status PersistColdFiles();

  /// Pushes the cold-tier gauges (storage.cold_segments/.cold_bytes)
  /// to the registry, if one is wired.
  void UpdateColdGauges();

  /// Best-effort unlink of cold-*.seg, base-*.snap and shard-*.snap
  /// files in dir_ that the committed manifest does not reference (a
  /// crash between a file's write and the manifest publish leaves such
  /// orphans).
  void SweepOrphanFiles();

  /// Installs the write-ahead hooks on the engine.
  void InstallHooks();

  /// Best-effort removal of a superseded epoch's files (as named by its
  /// manifest, so rotated segments are swept too).
  void RemoveEpochFiles(const ShardManifest& old_manifest);

  std::string dir_;
  DurableShardedOptions options_;
  /// Shared stores the engine borrows; movements stays empty (movement
  /// state lives in the shard views).
  SystemState base_;
  std::unique_ptr<ShardedDecisionEngine> engine_;
  /// One log per shard; appended by that shard's worker during a batch,
  /// by the control thread for ticks between batches, and flushed by
  /// its own log thread in pipelined modes.
  std::vector<std::unique_ptr<ShardLog>> logs_;
  /// The committed cut (segment lists grow under rotation). Guarded by
  /// manifest_mu_: rotation runs on log threads while the control
  /// thread may be reading; Checkpoint republishes it wholesale.
  /// Shipper threads also snapshot {segment list, log floor, log
  /// pointers} under it, so manifest_mu_ additionally guards
  /// log_floor_, replayed_records_ and the logs_ vector itself (never a
  /// ShardLog's destruction: joining a log thread that may be blocked
  /// on manifest_mu_ inside a rotation must happen outside the lock).
  ShardManifest manifest_;
  mutable std::mutex manifest_mu_;
  /// The exact bytes of the last published MANIFEST plus publish/skip
  /// counters (guarded by manifest_mu_): rotation republishes only when
  /// the serialized cut actually changed.
  std::string published_manifest_bytes_;
  uint64_t manifest_publishes_ = 0;
  uint64_t manifest_publish_skips_ = 0;
  uint64_t epoch_ = 0;
  /// Counter accumulators for log generations retired by Checkpoint.
  uint64_t retired_append_failures_ = 0;
  uint64_t retired_sync_failures_ = 0;
  /// Per shard: the replication position of the current WAL chain's
  /// first record (manifest `floor`), and the records Open replayed
  /// from that chain. Positions are floor + replayed + the live log's
  /// sequence; the chain holds exactly replayed + appended records.
  std::vector<uint64_t> log_floor_;
  std::vector<uint64_t> replayed_records_;
  /// Where an earlier replication read of a shard stopped: the position
  /// after its last record, the log floor it read under, and the chain
  /// segment and byte offset that position starts at. An empty segment
  /// marks an unused slot.
  struct ReadCursor {
    uint64_t position = 0;
    uint64_t floor = 0;
    std::string segment;
    uint64_t offset = 0;
    uint64_t stored = 0;  ///< read_cursor_clock_ when it was stored.
  };
  /// Replication read cursors kept per shard: one for each of two
  /// subscribers catching up the same shard in turn.
  static constexpr size_t kReadCursorsPerShard = 2;
  /// Per shard, kReadCursorsPerShard slots. Guarded by read_cursor_mu_,
  /// held only to look a cursor up or store one, never across file I/O.
  std::vector<std::vector<ReadCursor>> read_cursors_;
  uint64_t read_cursor_clock_ = 0;
  std::mutex read_cursor_mu_;
  /// Looks up a cursor of `shard` at position `from` taken under
  /// `floor` whose segment is still in `segments` and at least as long
  /// as its offset; on a hit, sets the segment's index in `segments` and
  /// the offset to resume at.
  bool FindReadCursor(uint32_t shard, uint64_t from, uint64_t floor,
                      const std::vector<std::string>& segments,
                      size_t* segment, uint64_t* offset);
  /// Leaves `next` in one of `shard`'s slots after a full read that
  /// started at `from`: the slot of the cursor at `from`, else the
  /// oldest.
  void StoreReadCursor(uint32_t shard, uint64_t from, ReadCursor next);
  /// The base changed since the committed cut: set by mutable_base()
  /// and by loading a base that still carries the ledger; cleared once
  /// a manifest naming a rewritten base commits. The database version
  /// at that commit backs it up.
  bool base_dirty_ = false;
  uint64_t base_auth_version_ = 0;
  uint64_t base_rewrites_ = 0;
  /// Shard count requested at Open (clamped); differs from num_shards()
  /// iff a recovered manifest pinned another count.
  uint32_t requested_shards_ = 0;
  bool shard_count_overridden_ = false;
  /// One shard's on-disk cold tier entry. The in-memory segment list of
  /// shard k's MovementDatabase and cold_files_[k] stay index-aligned.
  struct ColdFile {
    std::string name;
    std::shared_ptr<const ColdSegment> segment;
    /// False for segments sealed/merged since the last checkpoint; the
    /// file is written + fsynced before the next manifest publish.
    bool persisted = false;
  };
  /// Per-shard cold tier, oldest segment first. Only the control
  /// thread (Open/Checkpoint) touches it.
  std::vector<std::vector<ColdFile>> cold_files_;
  /// Per-shard naming counter for the next sealed/merged segment file.
  std::vector<uint64_t> next_cold_index_;
  /// Shards whose hot snapshot the tier maintenance pass invalidated
  /// (a seal rewrote the hot history); consumed by WriteEpoch.
  std::vector<bool> maintenance_dirty_;
  uint64_t last_checkpoint_dirty_segments_ = 0;
  uint64_t checkpoint_dirty_segments_ = 0;
  uint64_t compaction_runs_ = 0;
  uint64_t retention_dropped_segments_ = 0;
  /// Resolved once from options_.durability.metrics (null = off).
  Counter* dirty_segments_counter_ = nullptr;
  Counter* base_rewrites_counter_ = nullptr;
  /// checkpoint.phase.{flush,maintain,cold_persist,base,shards,
  /// manifest,sweep} and recovery.phase.{manifest,base,shards,cold,
  /// replay}, in that order (all null when off).
  std::vector<Histogram*> checkpoint_phase_;
  std::vector<Histogram*> recovery_phase_;
  Gauge* recovery_duration_gauge_ = nullptr;
  Counter* compaction_runs_counter_ = nullptr;
  Counter* retention_dropped_counter_ = nullptr;
  Gauge* cold_segments_gauge_ = nullptr;
  Gauge* cold_bytes_gauge_ = nullptr;
  Gauge* resident_bytes_gauge_ = nullptr;
  /// replication.read_bytes (segment bytes ReadShardRecords passed
  /// over, skipped lines included) and replication.read_cursor.{hits,
  /// misses}.
  Counter* replication_read_bytes_counter_ = nullptr;
  Counter* read_cursor_hits_counter_ = nullptr;
  Counter* read_cursor_misses_counter_ = nullptr;
};

}  // namespace ltam

#endif  // LTAM_STORAGE_DURABLE_SHARDED_SYSTEM_H_

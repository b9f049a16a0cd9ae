// Copyright 2026 The LTAM Authors.
// The sharded runtime's checkpoint manifest.
//
// A `MANIFEST` file names the exact set of files that make up one
// consistent checkpoint cut of a DurableShardedSystem directory: the
// shared base snapshot (graph, profiles, authorizations, rules), one
// movement-snapshot segment per shard, and one write-ahead log per shard.
// Checkpointing writes every segment first, then publishes the new cut by
// atomically renaming a fresh manifest over the old one — the rename is
// the commit point, so a crash at any instant leaves either the old cut
// or the new one, never a mix.
//
// Format (line-oriented codec records):
//
//   manifest <format-version> <epoch> <num-shards>
//   base <file>
//   shard <k> <snapshot-file> <wal-seg-0> [<wal-seg-1> ...]
//                                            (one per shard, k ascending)
//   cold <k> <dropped-events> <seg-file> [...]
//                      (optional, at most one per shard: the shard's
//                       sealed cold segments in sequence order plus the
//                       cumulative count of events already dropped past
//                       the retention horizon; absent = no cold tier)
//   floor <k> <records>
//                      (optional, at most one per shard: the shard's
//                       replication position at the first record of its
//                       WAL chain, i.e. every record earlier epochs
//                       folded into snapshots; absent = 0)
//   commit <record-count>
//
// A shard's WAL may span several rotated segments within one epoch
// (`events-<k>-<epoch>.wal`, then `events-<k>-<epoch>-<seg>.wal` once
// the size threshold trips); the shard record commits the ordered
// segment list, and rotation republishes the manifest so a crash at any
// instant still names exactly the files recovery must replay, in order.
// The `cold` record is emitted only for shards that actually sealed (or
// dropped) history, and `floor` only for shards with a nonzero floor,
// so directories without tiering or checkpointed traffic serialize
// byte-identically to the earlier formats.
//
// The trailing `commit` record carries the number of records before it;
// a manifest without a matching commit record (torn write, truncation)
// is rejected, as is any record after it. File names are validated to be
// plain names (no path separators) so a corrupted manifest can never
// point recovery outside its own directory.

#ifndef LTAM_STORAGE_MANIFEST_H_
#define LTAM_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace ltam {

/// One checkpoint cut of a sharded durable directory.
struct ShardManifest {
  /// Monotonically increasing checkpoint number; file names embed it.
  uint64_t epoch = 0;
  /// Fixed at directory creation; the subject partition depends on it.
  uint32_t num_shards = 1;
  /// Shared state snapshot (graph/profiles/authorizations/rules). A
  /// checkpoint whose base did not change re-references the previous
  /// cut's file, so the name's epoch may be older than `epoch`.
  std::string base_snapshot;
  struct ShardFiles {
    /// Per-shard snapshot: hot movements + its subjects' entry ledgers.
    std::string snapshot;
    /// Per-shard log tail, in replay order: the first entry is the
    /// segment the checkpoint created, later entries were committed by
    /// rotation. Never empty after a successful load.
    std::vector<std::string> wals;
    /// Sealed cold segments (storage/cold_codec.h), oldest first. Empty
    /// for shards that never sealed.
    std::vector<std::string> cold;
    /// Events dropped past the retention horizon (cumulative), so the
    /// logical history length survives recovery.
    uint64_t dropped_events = 0;
    /// Replication position of the first record in `wals`: the records
    /// of every earlier WAL generation, so positions stay monotonic
    /// across checkpoints and reopens.
    uint64_t log_floor = 0;
  };
  /// Indexed by shard; size() == num_shards after a successful load.
  std::vector<ShardFiles> shards;
};

/// Canonical manifest file name inside a durable directory.
inline const char* ManifestFileName() { return "MANIFEST"; }

/// Validates `manifest` and renders the exact bytes SaveManifest would
/// publish. Exposed so callers can detect no-op republishes: two
/// manifests naming the same cut serialize identically.
Result<std::string> SerializeManifest(const ShardManifest& manifest);

/// Serializes `manifest` to `path` durably: writes `<path>.tmp`, fsyncs
/// it, renames it over `path`, and fsyncs the parent directory.
Status SaveManifest(const ShardManifest& manifest, const std::string& path);

/// SaveManifest, unless the serialized bytes equal `*last_serialized`
/// (the previously published bytes, as maintained by this function) — a
/// rotation that left every shard's segment list unchanged does not pay
/// for a rewrite + three fsyncs. Returns true when the manifest was
/// published, false when the byte-identical write was skipped. On a
/// successful publish `*last_serialized` is updated; pass the same
/// string across calls. An empty cache always publishes.
Result<bool> SaveManifestIfChanged(const ShardManifest& manifest,
                                   const std::string& path,
                                   std::string* last_serialized);

/// Parses and validates a manifest file. Errors on unknown records,
/// duplicate or missing shard entries, bad counts, path-escaping file
/// names, or a missing/incorrect commit record.
Result<ShardManifest> LoadManifest(const std::string& path);

}  // namespace ltam

#endif  // LTAM_STORAGE_MANIFEST_H_

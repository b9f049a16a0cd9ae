// Copyright 2026 The LTAM Authors.
// Whole-system snapshots.
//
// Serializes the four stores of Figure 3 (location layout, user profiles,
// authorizations, movements) plus the registered rules into one
// line-oriented codec file, and loads them back. Together with the WAL
// this gives the persistence story: snapshot periodically, replay the
// tail of the log on recovery. The sharded runtime splits the same
// state in two: a base snapshot (everything but movements and the entry
// ledger) and one shard snapshot per shard (its subjects' movements and
// entry ledgers).

#ifndef LTAM_STORAGE_SNAPSHOT_H_
#define LTAM_STORAGE_SNAPSHOT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/auth_database.h"
#include "core/rules/rule.h"
#include "engine/movement_db.h"
#include "graph/multilevel_graph.h"
#include "profile/user_profile.h"

namespace ltam {

/// Everything a snapshot round-trips.
struct SystemState {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  MovementDatabase movements;
  std::vector<AuthorizationRule> rules;
};

/// Where a snapshot keeps the Definition-7 entry ledger (each
/// authorization's entries_used).
enum class LedgerPlacement {
  /// `auth` records carry the count: the sequential runtime's
  /// state.snap, and sharded base snapshots written before the ledger
  /// moved into the shard snapshots.
  kInline,
  /// `auth` records omit the count and the file declares so with a
  /// `ledger-in-shards` record: every authorization binds one subject
  /// (Definition 4), so the sharded runtime keeps each subject's counts
  /// in its shard's snapshot, next to its movements.
  kInShards,
};

/// Serializes `state` to `path` (overwrites).
Status SaveSnapshot(const SystemState& state, const std::string& path,
                    LedgerPlacement ledger = LedgerPlacement::kInline);

/// Loads a snapshot. Rules are reconstructed through the *default*
/// operator registries; snapshots containing custom operators need the
/// overload taking explicit registries.
Result<SystemState> LoadSnapshot(const std::string& path);

/// Loads a snapshot resolving subject/location operators through the
/// given registries (for deployments with custom operators). `*ledger`,
/// when given, receives the placement the file declares; a
/// kInShards file leaves every entries_used at 0.
Result<SystemState> LoadSnapshot(const std::string& path,
                                 const SubjectOperatorRegistry& subject_ops,
                                 const LocationOperatorRegistry& location_ops,
                                 LedgerPlacement* ledger = nullptr);

/// One subject's entry ledger: (authorization id, entries used) for
/// every authorization binding the subject with at least one entry,
/// ids ascending. Revoked records keep their counts.
struct SubjectLedger {
  SubjectId subject = kInvalidSubject;
  std::vector<std::pair<AuthId, int64_t>> used;
};

/// What one shard snapshot of the sharded durable runtime holds.
struct ShardSnapshot {
  MovementDatabase movements;
  std::vector<SubjectLedger> ledgers;
};

/// Serializes one shard: its movement history as `move` records, its
/// subjects' ledgers as one `ledger` record per subject (delta-coded
/// ids: `ledger <subject> <id>:<n> <+gap>:<n> ...`), and a closing
/// `end <moves> <ledgers>` record that makes a torn file detectable.
Status SaveShardSnapshot(const MovementDatabase& movements,
                         const std::vector<SubjectLedger>& ledgers,
                         const std::string& path);

/// Loads a shard snapshot. With kInShards the file must carry its
/// `end` record with matching counts. With kInline (a directory whose
/// base still carries the ledger) it is a plain stream of `move`
/// records, as written before the ledger moved. Ledger ids and counts
/// are syntax-checked here; the caller checks them against the
/// authorization database and the shard partition.
Result<ShardSnapshot> LoadShardSnapshot(const std::string& path,
                                        LedgerPlacement placement);

}  // namespace ltam

#endif  // LTAM_STORAGE_SNAPSHOT_H_

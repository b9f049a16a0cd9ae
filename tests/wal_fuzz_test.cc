// Copyright 2026 The LTAM Authors.
// Deterministic fuzzing of the durability read paths: corrupted, torn,
// and garbage WAL / manifest / movement-segment bytes must produce
// Status errors (or benign replays), never crashes, hangs, or undefined
// behavior. This is the harness that shook out the original decode gaps
// (id wrap-around on negative fields; observations of nonexistent
// locations poisoning later adjacency checks).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/cold_segment.h"
#include "sim/graph_gen.h"
#include "storage/cold_codec.h"
#include "storage/event_log.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.9)) {
      out += static_cast<char>(' ' + rng->Uniform(95));
    } else {
      out += static_cast<char>(rng->Uniform(32));
    }
  }
  return out;
}

std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = 1 + static_cast<int>(rng->Uniform(10));
  for (int i = 0; i < edits && !out.empty(); ++i) {
    size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:
        out[pos] = static_cast<char>(' ' + rng->Uniform(95));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      case 2:
        out.insert(pos, 1, static_cast<char>(' ' + rng->Uniform(95)));
        break;
    }
  }
  return out;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// A small world to replay corrupted logs into.
struct ReplayWorld {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  MovementDatabase movements;
  std::unique_ptr<AccessControlEngine> engine;

  ReplayWorld() {
    graph = MakeGridGraph(3, 3).ValueOrDie();
    for (int i = 0; i < 6; ++i) {
      profiles.AddSubject("u" + std::to_string(i)).ValueOrDie();
    }
    for (SubjectId s = 0; s < 6; ++s) {
      for (LocationId l : graph.Primitives()) {
        auth_db.Add(LocationTemporalAuthorization::Make(
                        TimeInterval(0, 500), TimeInterval(0, 800),
                        LocationAuthorization{s, l}, 5)
                        .ValueOrDie());
      }
    }
    engine = std::make_unique<AccessControlEngine>(&graph, &auth_db,
                                                   &movements, &profiles);
  }
};

/// A plausible WAL: real encoded events, including ids that are valid,
/// out-of-graph, and boundary-sized.
std::string ValidWalBytes(Rng* rng, size_t events) {
  std::string out;
  Chronon t = 0;
  for (size_t i = 0; i < events; ++i) {
    t += 1 + static_cast<Chronon>(rng->Uniform(4));
    SubjectId s = static_cast<SubjectId>(rng->Uniform(8));
    LocationId l = static_cast<LocationId>(rng->Uniform(16));
    Record rec;
    switch (rng->Uniform(4)) {
      case 0:
        rec = EncodeEventRecord(AccessEvent::Entry(t, s, l));
        break;
      case 1:
        rec = EncodeEventRecord(AccessEvent::Exit(t, s));
        break;
      case 2:
        rec = EncodeEventRecord(AccessEvent::Observe(t, s, l));
        break;
      default:
        rec = EncodeTickRecord(t);
        break;
    }
    out += EncodeRecord(rec);
    out += '\n';
  }
  return out;
}

class WalFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::string TempPath(const char* tag) {
    return ::testing::TempDir() + "/ltam_walfuzz_" + tag + "_" +
           std::to_string(GetParam());
  }
};

/// Replay of mutated / truncated / garbage WAL bytes into a live engine:
/// must return (ok or error) and never crash — even when a corrupted
/// record parses into an event naming locations the layout lacks, and
/// even when later events then run adjacency checks over that state.
TEST_P(WalFuzzTest, ReplayWalNeverCrashes) {
  Rng rng(GetParam());
  const std::string path = TempPath("wal");
  const std::string valid = ValidWalBytes(&rng, 60);

  for (int i = 0; i < 120; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(valid, &rng);
        break;
      case 1:  // Torn write: truncate at an arbitrary byte.
        corrupted = valid.substr(0, rng.Uniform(valid.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 600);
        break;
    }
    WriteFile(path, corrupted);
    ReplayWorld world;
    Status st = ReplayWal(path, [&](const Record& rec) {
      return ApplyLoggedRecord(world.engine.get(), rec);
    });
    (void)st;  // ok or error; never a crash.
    // Whatever replayed, the engine must still be usable: every recorded
    // current location must survive an adjacency-checked request.
    for (SubjectId s = 0; s < 6; ++s) {
      Decision d = world.engine->RequestEntry(
          10000, s, world.graph.Primitives()[0]);
      (void)d;
    }
  }
  std::remove(path.c_str());
}

/// Decoder contract: malformed records are errors, not wrap-arounds.
TEST(WalFuzzDecodeTest, DecodeEventRecordRejectsMalformedRecords) {
  // Wrong field counts.
  EXPECT_FALSE(DecodeEventRecord({"ev-entry", {"1", "2"}}).ok());
  EXPECT_FALSE(DecodeEventRecord({"ev-entry", {"1", "2", "3", "4"}}).ok());
  EXPECT_FALSE(DecodeEventRecord({"ev-exit", {"1"}}).ok());
  EXPECT_FALSE(DecodeEventRecord({"ev-tick", {}}).ok());
  // Non-numeric fields.
  EXPECT_FALSE(DecodeEventRecord({"ev-entry", {"x", "2", "3"}}).ok());
  EXPECT_FALSE(DecodeEventRecord({"ev-obs", {"1", "", "3"}}).ok());
  // Ids outside uint32 range must NOT wrap into valid-looking ids.
  EXPECT_FALSE(DecodeEventRecord({"ev-entry", {"1", "-2", "3"}}).ok());
  EXPECT_FALSE(
      DecodeEventRecord({"ev-entry", {"1", "4294967296", "3"}}).ok());
  EXPECT_FALSE(DecodeEventRecord({"ev-obs", {"1", "2", "-1"}}).ok());
  // Integer overflow is an error, not UB.
  EXPECT_FALSE(
      DecodeEventRecord({"ev-tick", {"999999999999999999999999"}}).ok());
  // Unknown type tags.
  EXPECT_FALSE(DecodeEventRecord({"ev-unknown", {"1"}}).ok());
  // And the happy path still round-trips.
  ASSERT_OK_AND_ASSIGN(LoggedEvent entry,
                       DecodeEventRecord(EncodeEventRecord(
                           AccessEvent::Entry(7, 3, 9))));
  EXPECT_FALSE(entry.is_tick);
  EXPECT_EQ(entry.event.time, 7);
  EXPECT_EQ(entry.event.subject, 3u);
  EXPECT_EQ(entry.event.location, 9u);
  ASSERT_OK_AND_ASSIGN(LoggedEvent tick,
                       DecodeEventRecord(EncodeTickRecord(42)));
  EXPECT_TRUE(tick.is_tick);
  EXPECT_EQ(tick.tick_time, 42);
}

/// Manifest parsing: mutations, truncations, and garbage must error or
/// produce a structurally valid manifest — never crash, never accept a
/// cut that escapes the directory or misses segments.
TEST_P(WalFuzzTest, ManifestParserNeverCrashes) {
  const std::string path = TempPath("manifest");
  ShardManifest valid;
  valid.epoch = 3;
  valid.num_shards = 4;
  valid.base_snapshot = "base-3.snap";
  for (uint32_t k = 0; k < 4; ++k) {
    ShardManifest::ShardFiles files;
    files.snapshot = "shard-" + std::to_string(k) + "-3.snap";
    // Multi-segment lists (rotation committed extra segments) are part
    // of the fuzzed surface.
    files.wals = {"events-" + std::to_string(k) + "-3.wal",
                  "events-" + std::to_string(k) + "-3-1.wal"};
    // So are cold-tier records (sealed segment lists + dropped counts).
    if (k % 2 == 0) {
      files.cold = {"cold-" + std::to_string(k) + "-0.seg",
                    "cold-" + std::to_string(k) + "-1.seg"};
      files.dropped_events = 17 * (k + 1);
    }
    // And replication log floors (absent for floor 0).
    if (k != 1) files.log_floor = 1000 * k + 7;
    valid.shards.push_back(std::move(files));
  }
  ASSERT_OK(SaveManifest(valid, path));
  ASSERT_OK_AND_ASSIGN(ShardManifest reloaded, LoadManifest(path));
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(reloaded.shards[k].log_floor, valid.shards[k].log_floor);
  }
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(contents.empty());

  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(contents, &rng);
        break;
      case 1:
        corrupted = contents.substr(0, rng.Uniform(contents.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 400);
        break;
    }
    WriteFile(path, corrupted);
    Result<ShardManifest> m = LoadManifest(path);
    if (m.ok()) {
      // Structural invariants hold for anything the parser accepts.
      EXPECT_GE(m->num_shards, 1u);
      EXPECT_EQ(m->shards.size(), m->num_shards);
      EXPECT_EQ(m->base_snapshot.find('/'), std::string::npos);
      for (const ShardManifest::ShardFiles& files : m->shards) {
        EXPECT_FALSE(files.snapshot.empty());
        EXPECT_FALSE(files.wals.empty());
        EXPECT_EQ(files.snapshot.find('/'), std::string::npos);
        for (const std::string& wal : files.wals) {
          EXPECT_FALSE(wal.empty());
          EXPECT_EQ(wal.find('/'), std::string::npos);
        }
        for (const std::string& seg : files.cold) {
          EXPECT_FALSE(seg.empty());
          EXPECT_EQ(seg.find('/'), std::string::npos);
        }
      }
    }
  }
  std::remove(path.c_str());
}

/// Targeted manifest rejections: the commit record is load-bearing.
TEST(ManifestTest, RejectsTornAndMalformedManifests) {
  const std::string path = ::testing::TempDir() + "/ltam_manifest_cases";
  auto load = [&path](const std::string& text) {
    WriteFile(path, text);
    return LoadManifest(path);
  };
  // No commit record (torn write).
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\n")
                   .ok());
  // Commit count mismatch.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t7\n")
                   .ok());
  // Records after commit.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n"
                    "shard\t0\ts.snap\tw.wal\n")
                   .ok());
  // Missing shard entry.
  EXPECT_FALSE(load("manifest\t1\t0\t2\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n")
                   .ok());
  // Duplicate shard entry.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\nshard\t0\ts.snap\tw.wal\n"
                    "commit\t4\n")
                   .ok());
  // Path-escaping file names.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\t../../etc/passwd\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n")
                   .ok());
  // Absurd shard counts must not drive allocation.
  EXPECT_FALSE(load("manifest\t1\t0\t999999999\nbase\tb.snap\ncommit\t2\n")
                   .ok());
  // A shard record needs at least one WAL segment.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\ncommit\t3\n")
                   .ok());
  // Rotated segment names must obey the plain-file-name rule too.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\t../w-1.wal\ncommit\t3\n")
                   .ok());
  // The well-formed equivalent loads.
  ASSERT_OK_AND_ASSIGN(ShardManifest m,
                       load("manifest\t1\t5\t1\nbase\tb.snap\n"
                            "shard\t0\ts.snap\tw.wal\ncommit\t3\n"));
  EXPECT_EQ(m.epoch, 5u);
  EXPECT_EQ(m.num_shards, 1u);
  EXPECT_EQ(m.base_snapshot, "b.snap");
  ASSERT_EQ(m.shards[0].wals.size(), 1u);
  // Rotated-segment lists load in committed order.
  ASSERT_OK_AND_ASSIGN(
      ShardManifest rotated,
      load("manifest\t1\t5\t1\nbase\tb.snap\n"
           "shard\t0\ts.snap\tw.wal\tw-1.wal\tw-2.wal\ncommit\t3\n"));
  ASSERT_EQ(rotated.shards[0].wals.size(), 3u);
  EXPECT_EQ(rotated.shards[0].wals[0], "w.wal");
  EXPECT_EQ(rotated.shards[0].wals[2], "w-2.wal");
  // And survive a save/load round trip unchanged.
  ASSERT_OK(SaveManifest(rotated, path));
  ASSERT_OK_AND_ASSIGN(ShardManifest reloaded, LoadManifest(path));
  EXPECT_EQ(reloaded.shards[0].wals, rotated.shards[0].wals);
  std::remove(path.c_str());
}

/// Targeted cold-record rejections: the sealed-segment list is part of
/// the committed cut, so a malformed one must fail the whole manifest.
TEST(ManifestTest, RejectsMalformedColdRecords) {
  const std::string path = ::testing::TempDir() + "/ltam_manifest_cold_cases";
  auto load = [&path](const std::string& text) {
    WriteFile(path, text);
    return LoadManifest(path);
  };
  const std::string head =
      "manifest\t1\t0\t1\nbase\tb.snap\nshard\t0\ts.snap\tw.wal\n";
  // Shard index out of range.
  EXPECT_FALSE(load(head + "cold\t7\t0\tc.seg\ncommit\t4\n").ok());
  // Duplicate cold record for one shard.
  EXPECT_FALSE(
      load(head + "cold\t0\t0\tc.seg\ncold\t0\t0\td.seg\ncommit\t5\n").ok());
  // Negative dropped-event count.
  EXPECT_FALSE(load(head + "cold\t0\t-3\tc.seg\ncommit\t4\n").ok());
  // Nothing sealed AND nothing dropped: the record should not exist.
  EXPECT_FALSE(load(head + "cold\t0\t0\ncommit\t4\n").ok());
  // Too few fields.
  EXPECT_FALSE(load(head + "cold\t0\ncommit\t4\n").ok());
  // Path-escaping segment names.
  EXPECT_FALSE(load(head + "cold\t0\t0\t../c.seg\ncommit\t4\n").ok());
  // A dropped-only record (everything past the horizon, nothing sealed)
  // is legal; so is a full record, and both round-trip.
  ASSERT_OK_AND_ASSIGN(ShardManifest dropped_only,
                       load(head + "cold\t0\t12\ncommit\t4\n"));
  EXPECT_EQ(dropped_only.shards[0].dropped_events, 12u);
  EXPECT_TRUE(dropped_only.shards[0].cold.empty());
  ASSERT_OK_AND_ASSIGN(
      ShardManifest full,
      load(head + "cold\t0\t5\tc0.seg\tc1.seg\tc2.seg\ncommit\t4\n"));
  EXPECT_EQ(full.shards[0].dropped_events, 5u);
  ASSERT_EQ(full.shards[0].cold.size(), 3u);
  EXPECT_EQ(full.shards[0].cold[0], "c0.seg");
  EXPECT_EQ(full.shards[0].cold[2], "c2.seg");
  ASSERT_OK(SaveManifest(full, path));
  ASSERT_OK_AND_ASSIGN(ShardManifest reloaded, LoadManifest(path));
  EXPECT_EQ(reloaded.shards[0].cold, full.shards[0].cold);
  EXPECT_EQ(reloaded.shards[0].dropped_events, 5u);
  std::remove(path.c_str());
}

/// Corrupted columnar cold-segment images: decode must return ok or
/// error — never crash, hang, or over-allocate — and anything accepted
/// must satisfy every ColdSegment invariant.
TEST_P(WalFuzzTest, ColdSegmentDecoderNeverCrashes) {
  ColdSegment seg;
  Rng seed_rng(GetParam());
  Chronon enter = -20;
  SubjectId subject = 0;
  for (int i = 0; i < 30; ++i) {
    subject += static_cast<SubjectId>(seed_rng.Uniform(3));
    enter += 1 + static_cast<Chronon>(seed_rng.Uniform(10));
    const Chronon exit = enter + static_cast<Chronon>(seed_rng.Uniform(50));
    seg.subjects.push_back(subject);
    seg.locations.push_back(static_cast<LocationId>(seed_rng.Uniform(12)));
    seg.enters.push_back(enter);
    seg.exits.push_back(exit);
  }
  seg.sealed_events = 41;
  seg.RecomputeBounds();
  ASSERT_OK_AND_ASSIGN(std::string valid, EncodeColdSegment(seg));
  // Round trip before corrupting anything.
  ASSERT_OK(DecodeColdSegment(valid).status());

  Rng rng(GetParam() * 7919 + 1);
  for (int i = 0; i < 300; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(valid, &rng);
        break;
      case 1:
        corrupted = valid.substr(0, rng.Uniform(valid.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 400);
        break;
    }
    Result<ColdSegment> r = DecodeColdSegment(corrupted);
    if (!r.ok()) continue;
    const ColdSegment& got = *r;
    ASSERT_EQ(got.locations.size(), got.rows());
    ASSERT_EQ(got.enters.size(), got.rows());
    ASSERT_EQ(got.exits.size(), got.rows());
    for (size_t j = 0; j < got.rows(); ++j) {
      ASSERT_LE(got.enters[j], got.exits[j]);
      ASSERT_LT(got.exits[j], kChrononMax);
      ASSERT_GE(got.enters[j], got.min_enter);
      ASSERT_LE(got.exits[j], got.max_exit);
      if (j > 0) {
        ASSERT_LE(got.subjects[j - 1], got.subjects[j]);
      }
    }
  }
}

/// Shard-snapshot loading under corruption: movements, the delta-coded
/// per-subject ledger records and the closing end record.
TEST_P(WalFuzzTest, MovementSegmentLoaderNeverCrashes) {
  const std::string path = TempPath("segment");
  MovementDatabase movements;
  Rng rng(GetParam());
  Chronon t = 0;
  std::vector<LocationId> at(6, kInvalidLocation);
  for (int i = 0; i < 40; ++i) {
    t += 1 + static_cast<Chronon>(rng.Uniform(3));
    SubjectId s = static_cast<SubjectId>(rng.Uniform(6));
    LocationId l = rng.Bernoulli(0.2)
                       ? kInvalidLocation
                       : static_cast<LocationId>(rng.Uniform(9));
    if (l == at[s]) continue;  // Same-location moves are rejected.
    ASSERT_OK(movements.RecordMovement(t, s, l));
    at[s] = l;
  }
  std::vector<SubjectLedger> ledgers;
  AuthId id = 0;
  for (SubjectId s = 0; s < 6; ++s) {
    SubjectLedger ledger{s, {}};
    for (int i = 0; i < 1 + static_cast<int>(rng.Uniform(5)); ++i) {
      id += 1 + static_cast<AuthId>(rng.Uniform(40));
      ledger.used.emplace_back(id, 1 + static_cast<int64_t>(rng.Uniform(9)));
    }
    ledgers.push_back(std::move(ledger));
  }
  ASSERT_OK(SaveShardSnapshot(movements, ledgers, path));
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  // Round trip.
  ASSERT_OK_AND_ASSIGN(ShardSnapshot loaded,
                       LoadShardSnapshot(path, LedgerPlacement::kInShards));
  EXPECT_EQ(loaded.movements.history().size(), movements.history().size());
  ASSERT_EQ(loaded.ledgers.size(), ledgers.size());
  for (size_t i = 0; i < ledgers.size(); ++i) {
    EXPECT_EQ(loaded.ledgers[i].subject, ledgers[i].subject);
    EXPECT_EQ(loaded.ledgers[i].used, ledgers[i].used);
  }

  for (int i = 0; i < 150; ++i) {
    WriteFile(path, i % 2 == 0 ? Mutate(contents, &rng)
                               : RandomBytes(&rng, 300));
    for (LedgerPlacement placement :
         {LedgerPlacement::kInShards, LedgerPlacement::kInline}) {
      Result<ShardSnapshot> r = LoadShardSnapshot(path, placement);
      if (!r.ok()) continue;  // An error is fine; a crash is not.
      // Whatever loads is well-formed: ids ascend within a subject,
      // subjects ascend, counts are positive.
      for (size_t k = 0; k < r->ledgers.size(); ++k) {
        const SubjectLedger& got = r->ledgers[k];
        if (k > 0) {
          ASSERT_LT(r->ledgers[k - 1].subject, got.subject);
        }
        ASSERT_FALSE(got.used.empty());
        for (size_t j = 0; j < got.used.size(); ++j) {
          ASSERT_GE(got.used[j].second, 1);
          ASSERT_NE(got.used[j].first, kInvalidAuth);
          if (j > 0) {
            ASSERT_LT(got.used[j - 1].first, got.used[j].first);
          }
        }
      }
    }
  }
  // Every prefix cut inside the ledger or the end record is a torn
  // snapshot and must be refused (only the final newline may go).
  const size_t ledger_start = contents.find("ledger\t");
  ASSERT_NE(ledger_start, std::string::npos);
  for (size_t cut = ledger_start; cut + 1 < contents.size(); ++cut) {
    WriteFile(path, contents.substr(0, cut));
    EXPECT_FALSE(LoadShardSnapshot(path, LedgerPlacement::kInShards).ok())
        << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WalFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace ltam

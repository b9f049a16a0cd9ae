// Copyright 2026 The LTAM Authors.
// The durable sharded runtime: lifecycle, checkpoint/epoch rotation, and
// the crash-injection recovery matrix (the PR's acceptance criterion):
// truncate each shard's WAL at randomized byte offsets after a random
// workload, reopen, and assert the recovered ledger/movement/alert state
// equals a sequential replay of the surviving log prefix. Run under ASan
// and TSan via ci.sh (recovery replays shard logs in parallel).

#include "storage/durable_sharded_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "storage/codec.h"
#include "storage/event_log.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kShards = 4;

/// A reproducible world: grid graph, subjects, random authorizations.
SystemState MakeInitialState(uint64_t seed, uint32_t subjects = 24,
                             std::vector<SubjectId>* out_subjects = nullptr) {
  SystemState state;
  state.graph = MakeGridGraph(6, 6).ValueOrDie();
  std::vector<SubjectId> ids = GenerateSubjects(&state.profiles, subjects);
  Rng rng(seed);
  AuthWorkloadOptions opt;
  opt.coverage = 0.6;
  opt.horizon = 400;
  opt.min_len = 20;
  opt.max_len = 120;
  opt.max_entries = 3;
  GenerateAuthorizations(state.graph, ids, opt, &rng, &state.auth_db);
  if (out_subjects != nullptr) *out_subjects = ids;
  return state;
}

std::vector<std::vector<AccessEvent>> MakeBatches(
    const SystemState& state, const std::vector<SubjectId>& subjects,
    size_t total_events, size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  BatchWorkloadOptions opt;
  opt.batch_size = batch_size;
  opt.exit_fraction = 0.15;
  opt.observe_fraction = 0.15;
  return GenerateEventBatches(state.graph, subjects, total_events, opt, &rng);
}

using AlertKey = std::tuple<Chronon, SubjectId, LocationId, int, std::string>;

AlertKey KeyOf(const Alert& a) {
  return std::make_tuple(a.time, a.subject, a.location,
                         static_cast<int>(a.type), a.detail);
}

std::multiset<AlertKey> AlertMultiset(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& a : alerts) out.insert(KeyOf(a));
  return out;
}

std::string MovementKey(const MovementEvent& ev) { return ev.ToString(); }

/// A reference "recovered" runtime built from first principles: one
/// sequential AccessControlEngine per shard over a shared ledger, with
/// the recovery spec's open-stay rebuild (first in-window authorization
/// wins) applied at the cut.
struct ReferenceShards {
  SystemState state;  // Holds graph/profiles/auth_db; movements unused.
  std::vector<std::unique_ptr<MovementDatabase>> movements;
  std::vector<std::unique_ptr<AccessControlEngine>> engines;

  explicit ReferenceShards(SystemState s) : state(std::move(s)) {
    for (uint32_t k = 0; k < kShards; ++k) {
      movements.push_back(std::make_unique<MovementDatabase>());
      engines.push_back(std::make_unique<AccessControlEngine>(
          &state.graph, &state.auth_db, movements[k].get(), &state.profiles));
    }
  }

  static uint32_t ShardOf(SubjectId s) {
    return ShardedDecisionEngine::ShardOfSubject(s, kShards);
  }

  /// Applies one live event stream position (entry/exit/observe to its
  /// owning shard, ticks to every shard).
  void ApplyEvent(const AccessEvent& e) {
    Decision ignored =
        ApplyAccessEvent(engines[ShardOf(e.subject)].get(), e);
    (void)ignored;
  }
  void ApplyTick(Chronon t) {
    for (auto& engine : engines) engine->Tick(t);
  }

  /// Replays shard k's surviving WAL prefix (file already truncated).
  Status ReplaySurvivingLog(uint32_t k, const std::string& path) {
    return ReplayWal(path, [&](const Record& rec) {
      return ApplyLoggedRecord(engines[k].get(), rec);
    });
  }

  /// The recovery spec's stay rebuild: drop all in-memory stay state and
  /// re-match every inside subject, exactly like DurableShardedSystem
  /// (and the sequential DurableSystem) at Open.
  void RebuildStaysAtCut() {
    for (uint32_t k = 0; k < kShards; ++k) {
      // Fresh engine, same stores: forgets active-stay bookkeeping but
      // keeps ledger + movements (what a snapshot persists).
      engines[k] = std::make_unique<AccessControlEngine>(
          &state.graph, &state.auth_db, movements[k].get(), &state.profiles);
      for (SubjectId s : state.profiles.AllSubjects()) {
        if (ShardOf(s) != k) continue;
        LocationId cur = movements[k]->CurrentLocation(s);
        if (cur == kInvalidLocation) continue;
        Result<Chronon> since = movements[k]->CurrentStaySince(s);
        if (!since.ok()) continue;
        AuthId chosen = kInvalidAuth;
        for (AuthId id : state.auth_db.ForSubjectLocation(s, cur)) {
          if (state.auth_db.record(id).auth.entry_duration().Contains(
                  *since)) {
            chosen = id;
            break;
          }
        }
        engines[k]->ResumeStay(s, cur, chosen, *since);
      }
    }
  }

  std::vector<Alert> MergedAlerts() const {
    std::vector<Alert> out;
    for (const auto& engine : engines) {
      out.insert(out.end(), engine->alerts().begin(), engine->alerts().end());
    }
    return out;
  }
  void ClearAlerts() {
    for (auto& engine : engines) engine->ClearAlerts();
  }
};

/// Asserts the recovered system's state equals the reference's:
/// per-shard movement histories, the shared ledger, and (optionally)
/// alerts raised since the cut.
void ExpectStateEquals(const DurableShardedSystem& recovered,
                       const ReferenceShards& reference,
                       const char* context) {
  ASSERT_EQ(recovered.num_shards(), kShards) << context;
  for (uint32_t k = 0; k < kShards; ++k) {
    const auto& got = recovered.shard_movements(k).history();
    const auto& want = reference.movements[k]->history();
    ASSERT_EQ(got.size(), want.size()) << context << ", shard " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(MovementKey(got[i]), MovementKey(want[i]))
          << context << ", shard " << k << ", movement " << i;
    }
  }
  const AuthorizationDatabase& got_db = recovered.base().auth_db;
  const AuthorizationDatabase& want_db = reference.state.auth_db;
  ASSERT_EQ(got_db.size(), want_db.size()) << context;
  for (AuthId id = 0; id < got_db.size(); ++id) {
    EXPECT_EQ(got_db.record(id).entries_used, want_db.record(id).entries_used)
        << context << ", auth " << id;
    EXPECT_EQ(got_db.record(id).revoked, want_db.record(id).revoked)
        << context << ", auth " << id;
  }
}

/// Authorizations whose ledger reached max_entries: nonzero means the
/// ledger, not the time windows alone, decided some grants.
size_t ExhaustedAuths(const AuthorizationDatabase& db) {
  size_t exhausted = 0;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    if (rec.entries_used == rec.auth.max_entries()) ++exhausted;
  }
  return exhausted;
}

std::vector<fs::path> ShardWalPaths(const std::string& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("events-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".wal") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Shard index parsed from "events-<k>-<epoch>.wal".
uint32_t ShardIndexOf(const fs::path& wal) {
  const std::string name = wal.filename().string();
  size_t start = std::string("events-").size();
  size_t end = name.find('-', start);
  return static_cast<uint32_t>(std::stoul(name.substr(start, end - start)));
}

class DurableShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ltam_dsh_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DurableShardedOptions Options() {
    DurableShardedOptions opt;
    opt.num_shards = kShards;
    return opt;
  }

  std::string dir_;
};

TEST_F(DurableShardedTest, FreshOpenWritesEpochZeroCut) {
  std::vector<SubjectId> subjects;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(7, 16, &subjects),
                                 Options()));
  EXPECT_EQ(sys->epoch(), 0u);
  EXPECT_EQ(sys->num_shards(), kShards);
  EXPECT_EQ(sys->wal_events(), 0u);
  EXPECT_TRUE(fs::exists(dir_ + "/MANIFEST"));
  EXPECT_TRUE(fs::exists(dir_ + "/base-0.snap"));
  EXPECT_EQ(ShardWalPaths(dir_).size(), kShards);

  auto batches = MakeBatches(sys->base(), subjects, 120, 40, 11);
  size_t fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> decisions,
                         sys->EvaluateBatch(batch));
    EXPECT_EQ(decisions.size(), batch.size());
    fed += batch.size();
  }
  EXPECT_EQ(sys->wal_events(), fed);
}

TEST_F(DurableShardedTest, RecoveryReplaysEveryShardTail) {
  std::vector<SubjectId> subjects;
  SystemState init = MakeInitialState(7, 16, &subjects);
  std::vector<std::vector<AccessEvent>> batches;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(7, 16), Options()));
    batches = MakeBatches(sys->base(), subjects, 200, 50, 13);
    for (const auto& batch : batches) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
    ASSERT_OK(sys->Tick(500));
    // "Crash": no checkpoint, the object goes away.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(7, 16), Options()));

  ReferenceShards reference(MakeInitialState(7, 16));
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) reference.ApplyEvent(e);
  }
  reference.ApplyTick(500);
  ExpectStateEquals(*sys, reference, "full-tail recovery");
  EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
            AlertMultiset(reference.MergedAlerts()));
}

TEST_F(DurableShardedTest, CheckpointRotatesEpochAndTruncatesLogs) {
  std::vector<SubjectId> subjects;
  SystemState init = MakeInitialState(21, 16, &subjects);
  auto batches = MakeBatches(init, subjects, 160, 40, 23);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, std::move(init), Options()));
    ASSERT_OK(sys->EvaluateBatch(batches[0]).status());
    ASSERT_OK(sys->Checkpoint());
    EXPECT_EQ(sys->epoch(), 1u);
    EXPECT_EQ(sys->wal_events(), 0u);
    // Old epoch's files are swept; the unchanged base is re-referenced.
    EXPECT_FALSE(fs::exists(dir_ + "/events-0-0.wal"));
    EXPECT_TRUE(fs::exists(dir_ + "/events-0-1.wal"));
    EXPECT_TRUE(fs::exists(dir_ + "/base-0.snap"));
    EXPECT_FALSE(fs::exists(dir_ + "/base-1.snap"));
    ASSERT_OK(sys->EvaluateBatch(batches[1]).status());
    EXPECT_EQ(sys->wal_events(), batches[1].size());
  }
  // Recovery = snapshot cut + replay of the post-checkpoint tail only.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(21, 16), Options()));
  EXPECT_EQ(sys->epoch(), 1u);

  ReferenceShards reference(MakeInitialState(21, 16));
  for (const AccessEvent& e : batches[0]) reference.ApplyEvent(e);
  reference.RebuildStaysAtCut();
  reference.ClearAlerts();
  for (const AccessEvent& e : batches[1]) reference.ApplyEvent(e);
  ExpectStateEquals(*sys, reference, "post-checkpoint recovery");
  EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
            AlertMultiset(reference.MergedAlerts()));
}

TEST_F(DurableShardedTest, OverstayDetectionSurvivesRecovery) {
  // Alice enters a room whose exit window closes at 40, the runtime
  // checkpoints with the stay open, crashes, recovers — the resumed stay
  // must still trip the overstay patrol.
  SystemState init;
  init.graph = MakeFig4Graph().ValueOrDie();
  SubjectId alice = init.profiles.AddSubject("Alice").ValueOrDie();
  LocationId a = init.graph.Find("A").ValueOrDie();
  init.auth_db.Add(LocationTemporalAuthorization::Make(
                       TimeInterval(0, 30), TimeInterval(0, 40),
                       LocationAuthorization{alice, a}, 3)
                       .ValueOrDie());
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, std::move(init), Options()));
    ASSERT_OK_AND_ASSIGN(
        std::vector<Decision> decisions,
        sys->EvaluateBatch({AccessEvent::Entry(10, alice, a)}));
    ASSERT_TRUE(decisions[0].granted);
    ASSERT_OK(sys->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DurableShardedSystem> sys,
                       DurableShardedSystem::Open(dir_, SystemState(),
                                                  Options()));
  ASSERT_OK(sys->Tick(50));  // Past the exit window.
  bool overstay = false;
  for (const Alert& alert : sys->DrainAlerts()) {
    if (alert.type == AlertType::kOverstay && alert.subject == alice) {
      overstay = true;
    }
  }
  EXPECT_TRUE(overstay)
      << "resumed stay lost its exit-window tracking across recovery";
}

TEST_F(DurableShardedTest, RecoveryIgnoresFreshOptionsShardCount) {
  std::vector<SubjectId> subjects;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(3, 12, &subjects),
                                   Options()));
    auto batches = MakeBatches(sys->base(), subjects, 80, 40, 5);
    for (const auto& batch : batches) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
  }
  DurableShardedOptions other;
  other.num_shards = 9;  // Must be overridden by the manifest's count.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(3, 12), other));
  EXPECT_EQ(sys->num_shards(), kShards);
}

TEST_F(DurableShardedTest, OpenRejectsMissingDirectory) {
  EXPECT_TRUE(DurableShardedSystem::Open("/nonexistent/ltam", SystemState(),
                                         DurableShardedOptions{})
                  .status()
                  .IsIOError());
}

TEST_F(DurableShardedTest, MergedMovementsUnifiesShardViews) {
  std::vector<SubjectId> subjects;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(31, 20, &subjects),
                                 Options()));
  auto batches = MakeBatches(sys->base(), subjects, 200, 50, 37);
  for (const auto& batch : batches) {
    ASSERT_OK(sys->EvaluateBatch(batch).status());
  }
  MovementDatabase merged = sys->MergedMovements();
  size_t shard_total = 0;
  for (uint32_t k = 0; k < sys->num_shards(); ++k) {
    shard_total += sys->shard_movements(k).history().size();
    for (SubjectId s : subjects) {
      if (sys->ShardOf(s) != k) continue;
      EXPECT_EQ(merged.CurrentLocation(s),
                sys->shard_movements(k).CurrentLocation(s));
    }
  }
  EXPECT_EQ(merged.history().size(), shard_total);
}

/// The acceptance criterion: truncate each shard's WAL at randomized
/// byte offsets (simulating a crash with partially-durable logs), reopen,
/// and assert the recovered state equals a sequential replay of the
/// surviving per-shard prefixes — including alerts.
TEST_F(DurableShardedTest, CrashInjectionRecoveryMatrix) {
  const uint64_t kWorldSeed = 97;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(golden, MakeInitialState(kWorldSeed),
                                   Options()));
    auto batches = MakeBatches(probe, subjects, 600, 100, 101);
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_OK(sys->EvaluateBatch(batches[i]).status());
      if (i == batches.size() / 2) ASSERT_OK(sys->Tick(250));
    }
    ASSERT_OK(sys->Tick(600));
    // Crash without checkpoint: the whole stream lives in the WALs.
  }

  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string trial_dir = dir_ + "/trial" + std::to_string(trial);
    fs::remove_all(trial_dir);
    fs::copy(golden, trial_dir);

    // Truncate every shard WAL at an independent random offset. Trials 0
    // and 1 pin the boundary cases: everything lost / nothing lost.
    std::vector<fs::path> wals = ShardWalPaths(trial_dir);
    ASSERT_EQ(wals.size(), kShards);
    for (const fs::path& wal : wals) {
      uintmax_t size = fs::file_size(wal);
      uintmax_t keep = trial == 0   ? 0
                       : trial == 1 ? size
                                    : rng.Uniform(size + 1);
      fs::resize_file(wal, keep);
    }

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                   Options()));

    // Reference: sequential replay of exactly the surviving prefixes.
    ReferenceShards reference(MakeInitialState(kWorldSeed));
    for (const fs::path& wal : wals) {
      ASSERT_OK(reference.ReplaySurvivingLog(ShardIndexOf(wal),
                                             wal.string()));
    }
    ExpectStateEquals(*sys, reference, "crash trial");
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));
    if (trial == 1) {
      // The world bounds max_entries, so the recovered ledger decides
      // grants: some authorization is exhausted.
      EXPECT_GT(ExhaustedAuths(reference.state.auth_db), 0u);
    }

    // The recovered runtime must remain live: a probe batch and a patrol
    // tick behave exactly like the reference.
    reference.ClearAlerts();
    auto probe_batches = MakeBatches(probe, subjects, 60, 60, 777);
    ASSERT_EQ(probe_batches.size(), 1u);
    // Probe events must be later than anything replayed.
    std::vector<AccessEvent> late;
    for (AccessEvent e : probe_batches[0]) {
      e.time += 10000;
      late.push_back(e);
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Decision> got_decisions,
                         sys->EvaluateBatch(late));
    std::vector<Decision> want_decisions;
    for (const AccessEvent& e : late) {
      want_decisions.push_back(
          ApplyAccessEvent(reference.engines[ReferenceShards::ShardOf(
                               e.subject)].get(),
                           e));
    }
    ASSERT_EQ(got_decisions.size(), want_decisions.size());
    for (size_t i = 0; i < got_decisions.size(); ++i) {
      EXPECT_EQ(got_decisions[i].ToString(), want_decisions[i].ToString())
          << "probe event " << i;
    }
    ASSERT_OK(sys->Tick(20000));
    reference.ApplyTick(20000);
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));

    // Torn-tail hygiene: the first recovery truncated any torn record,
    // so the probe appends landed on fresh lines — a second recovery of
    // the same directory must succeed and reach the same state.
    sys.reset();
    ASSERT_OK_AND_ASSIGN(
        sys, DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                        Options()));
    ExpectStateEquals(*sys, reference, "second recovery after probe");
  }
}

/// WriteEpoch creates every WAL before the manifest commit, so a cut
/// whose log vanished is data loss — recovery must refuse, not silently
/// drop the shard's tail.
TEST_F(DurableShardedTest, MissingShardWalIsARecoveryError) {
  std::vector<SubjectId> subjects;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(41, 12, &subjects),
                                   Options()));
    auto batches = MakeBatches(sys->base(), subjects, 80, 40, 43);
    for (const auto& batch : batches) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
  }
  std::vector<fs::path> wals = ShardWalPaths(dir_);
  ASSERT_EQ(wals.size(), kShards);
  fs::remove(wals[1]);
  Result<std::unique_ptr<DurableShardedSystem>> reopened =
      DurableShardedSystem::Open(dir_, MakeInitialState(41, 12), Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsIOError()) << reopened.status().ToString();
}

DurableShardedOptions PipelinedOptions(SyncMode mode,
                                       size_t segment_max_bytes = 0) {
  DurableShardedOptions opt;
  opt.num_shards = kShards;
  opt.durability.mode = mode;
  opt.durability.pipeline_depth = 3;
  opt.durability.sync_interval_ms = 1;
  if (segment_max_bytes > 0) {
    opt.durability.segment_max_bytes = segment_max_bytes;
  }
  return opt;
}

/// The tentpole equivalence gate: the pipelined and interval write
/// paths must produce decision streams (and alerts) byte-identical to
/// the synchronous group-commit mode — durability timing is the ONLY
/// difference — and a reopened directory must recover the same state.
TEST_F(DurableShardedTest, PipelinedDecisionStreamMatchesSyncMode) {
  const uint64_t kWorldSeed = 211;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  auto batches = MakeBatches(probe, subjects, 500, 80, 223);

  struct ModeRun {
    const char* name;
    DurableShardedOptions options;
    std::vector<std::string> decisions;
    std::multiset<AlertKey> alerts;
  };
  std::vector<ModeRun> runs;
  runs.push_back({"sync", Options(), {}, {}});
  // Tiny segments so the pipelined run also exercises rotation.
  runs.push_back(
      {"pipelined", PipelinedOptions(SyncMode::kPipelined, 4096), {}, {}});
  runs.push_back({"interval", PipelinedOptions(SyncMode::kInterval), {}, {}});

  for (ModeRun& run : runs) {
    SCOPED_TRACE(run.name);
    const std::string mode_dir = dir_ + "/" + run.name;
    fs::create_directories(mode_dir);
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(mode_dir, MakeInitialState(kWorldSeed),
                                   run.options));
    for (const auto& batch : batches) {
      Status durability;
      std::vector<Decision> decisions =
          sys->EvaluateBatchWithStatus(batch, &durability);
      ASSERT_OK(durability);
      for (const Decision& d : decisions) {
        run.decisions.push_back(d.ToString());
      }
    }
    ASSERT_OK(sys->Tick(500));
    run.alerts = AlertMultiset(sys->DrainAlerts());
    // The durability barrier closes the watermark gap in every mode.
    ASSERT_OK(sys->WaitDurable());
    DurabilityWatermark mark = sys->Watermark();
    EXPECT_EQ(mark.durable, mark.applied) << "barrier left a gap";
    EXPECT_EQ(sys->wal_append_failures(), 0u);
    EXPECT_EQ(sys->wal_sync_failures(), 0u);
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].name);
    ASSERT_EQ(runs[0].decisions.size(), runs[i].decisions.size());
    for (size_t d = 0; d < runs[0].decisions.size(); ++d) {
      ASSERT_EQ(runs[0].decisions[d], runs[i].decisions[d])
          << "decision " << d << " diverged from sync mode";
    }
    EXPECT_TRUE(runs[0].alerts == runs[i].alerts) << "alert sets diverged";
  }

  // Recovery equivalence: every directory reopens (in plain sync mode —
  // the log format is mode-independent) to the same state.
  std::unique_ptr<DurableShardedSystem> reference;
  for (const ModeRun& run : runs) {
    SCOPED_TRACE(std::string("reopen ") + run.name);
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_ + "/" + run.name,
                                   MakeInitialState(kWorldSeed), Options()));
    if (reference == nullptr) {
      reference = std::move(sys);
      continue;
    }
    for (uint32_t k = 0; k < kShards; ++k) {
      const auto& got = sys->shard_movements(k).history();
      const auto& want = reference->shard_movements(k).history();
      ASSERT_EQ(got.size(), want.size()) << "shard " << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(MovementKey(got[i]), MovementKey(want[i]))
            << "shard " << k << ", movement " << i;
      }
    }
  }
}

/// Crash injection across rotated segments: a pipelined run with tiny
/// segments leaves a multi-segment WAL chain per shard; a simulated
/// crash (directory copy + truncation of each shard's FINAL segment —
/// rotation fsyncs a segment before its successor exists, so only the
/// final one can tear) must recover exactly the surviving prefix, and
/// never less than the reported durable watermark.
TEST_F(DurableShardedTest, CrashInjectionAcrossRotatedSegments) {
  const uint64_t kWorldSeed = 307;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  DurabilityWatermark watermark;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(
            golden, MakeInitialState(kWorldSeed),
            PipelinedOptions(SyncMode::kPipelined, /*segment_max_bytes=*/2048)));
    auto batches = MakeBatches(probe, subjects, 600, 100, 311);
    for (const auto& batch : batches) {
      Status durability;
      (void)sys->EvaluateBatchWithStatus(batch, &durability);
      ASSERT_OK(durability);
    }
    ASSERT_OK(sys->Tick(600));
    ASSERT_OK(sys->WaitDurable());
    watermark = sys->Watermark();
    ASSERT_EQ(watermark.durable, watermark.applied);
    // Rotation must actually have happened for this test to bite.
    size_t total_segments = 0;
    for (uint32_t k = 0; k < kShards; ++k) {
      total_segments += sys->shard_log(k).segment_index() + 1;
    }
    ASSERT_GT(total_segments, kShards)
        << "no shard rotated; shrink segment_max_bytes";
    // "Crash": the object goes away without a checkpoint.
  }

  Rng rng(6464);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string trial_dir = dir_ + "/rot" + std::to_string(trial);
    fs::remove_all(trial_dir);
    fs::copy(golden, trial_dir);

    ASSERT_OK_AND_ASSIGN(ShardManifest manifest,
                         LoadManifest(trial_dir + "/MANIFEST"));
    ASSERT_EQ(manifest.num_shards, kShards);
    // Trial 0 pins the no-loss boundary case; the rest tear the final
    // segment at random offsets (earlier segments are durable by
    // construction: rotation synced them before their successor
    // existed).
    uint64_t surviving_records = 0;
    for (uint32_t k = 0; k < kShards; ++k) {
      ASSERT_GE(manifest.shards[k].wals.size(), 1u);
      const fs::path tail =
          fs::path(trial_dir) / manifest.shards[k].wals.back();
      uintmax_t size = fs::file_size(tail);
      if (trial > 0) {
        fs::resize_file(tail, rng.Uniform(size + 1));
      }
      for (const std::string& wal : manifest.shards[k].wals) {
        // Count whole surviving records for the watermark check.
        Status counted =
            ReplayWal((fs::path(trial_dir) / wal).string(),
                      [&surviving_records](const Record&) {
                        ++surviving_records;
                        return Status::OK();
                      });
        ASSERT_OK(counted);
      }
    }
    if (trial == 0) {
      // Everything was durable at the crash: nothing may be missing.
      EXPECT_GE(surviving_records, watermark.durable);
    }

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                   Options()));

    // Reference: sequential replay of exactly the surviving segment
    // chains, in committed order.
    ReferenceShards reference(MakeInitialState(kWorldSeed));
    for (uint32_t k = 0; k < kShards; ++k) {
      for (const std::string& wal : manifest.shards[k].wals) {
        ASSERT_OK(reference.ReplaySurvivingLog(
            k, (fs::path(trial_dir) / wal).string()));
      }
    }
    ExpectStateEquals(*sys, reference, "rotated-segment crash trial");
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));
  }
}

/// A mid-chain segment with a torn tail is data loss (rotation synced
/// it before its successor existed) — recovery must refuse, not replay
/// around the hole.
TEST_F(DurableShardedTest, TornNonFinalSegmentIsARecoveryError) {
  const uint64_t kWorldSeed = 331;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(
            dir_, MakeInitialState(kWorldSeed),
            PipelinedOptions(SyncMode::kPipelined, /*segment_max_bytes=*/1024)));
    auto batches = MakeBatches(probe, subjects, 600, 100, 337);
    for (const auto& batch : batches) {
      Status durability;
      (void)sys->EvaluateBatchWithStatus(batch, &durability);
      ASSERT_OK(durability);
    }
    ASSERT_OK(sys->WaitDurable());
  }
  ASSERT_OK_AND_ASSIGN(ShardManifest manifest,
                       LoadManifest(dir_ + "/MANIFEST"));
  uint32_t victim = kShards;
  for (uint32_t k = 0; k < kShards; ++k) {
    if (manifest.shards[k].wals.size() >= 2) {
      victim = k;
      break;
    }
  }
  ASSERT_LT(victim, kShards) << "no shard rotated; shrink segment_max_bytes";
  const fs::path mid = fs::path(dir_) / manifest.shards[victim].wals[0];
  uintmax_t size = fs::file_size(mid);
  ASSERT_GT(size, 2u);
  fs::resize_file(mid, size - 1);  // Chop the trailing newline: torn.
  Result<std::unique_ptr<DurableShardedSystem>> reopened =
      DurableShardedSystem::Open(dir_, MakeInitialState(kWorldSeed),
                                 Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsIOError()) << reopened.status().ToString();
}

/// Fault injection on the pipelined path: failing the Nth append (and
/// every fsync after it) must never change a single decision — the
/// failure surfaces exclusively through the batch durability status,
/// the frozen watermark, and the failure counters — and a checkpoint
/// repairs the log (the snapshot supersedes the lost tail).
TEST_F(DurableShardedTest, PipelinedFaultsSurfaceInWatermarkNotDecisions) {
  const uint64_t kWorldSeed = 401;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  auto batches = MakeBatches(probe, subjects, 400, 80, 409);

  // Healthy sync-mode reference.
  std::vector<std::string> want_decisions;
  {
    const std::string ref_dir = dir_ + "/ref";
    fs::create_directories(ref_dir);
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(ref_dir, MakeInitialState(kWorldSeed),
                                   Options()));
    for (const auto& batch : batches) {
      Status durability;
      for (const Decision& d :
           sys->EvaluateBatchWithStatus(batch, &durability)) {
        want_decisions.push_back(d.ToString());
      }
      ASSERT_OK(durability);
    }
  }

  const std::string faulty_dir = dir_ + "/faulty";
  fs::create_directories(faulty_dir);
  DurableShardedOptions faulty = PipelinedOptions(SyncMode::kPipelined);
  // Every shard log fails its 20th append and every subsequent one.
  faulty.durability.fault_injector = [](const char* op, uint64_t count) {
    if (std::string(op) == "append" && count >= 20) {
      return Status::IOError("injected append failure");
    }
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(faulty_dir, MakeInitialState(kWorldSeed),
                                 faulty));
  std::vector<std::string> got_decisions;
  bool saw_durability_error = false;
  for (const auto& batch : batches) {
    Status durability;
    for (const Decision& d :
         sys->EvaluateBatchWithStatus(batch, &durability)) {
      got_decisions.push_back(d.ToString());
    }
    if (!durability.ok()) saw_durability_error = true;
  }
  ASSERT_EQ(want_decisions.size(), got_decisions.size());
  for (size_t i = 0; i < want_decisions.size(); ++i) {
    ASSERT_EQ(want_decisions[i], got_decisions[i])
        << "decision " << i << " changed under fault injection";
  }
  EXPECT_FALSE(sys->WaitDurable().ok()) << "the barrier must report the loss";
  saw_durability_error =
      saw_durability_error || !sys->WaitDurable().ok();
  EXPECT_TRUE(saw_durability_error);
  DurabilityWatermark frozen = sys->Watermark();
  EXPECT_LT(frozen.durable, frozen.applied) << "watermark must freeze";
  EXPECT_GT(sys->wal_append_failures(), 0u);

  // Checkpoint repairs: the snapshot persists the live state (including
  // every event whose log bytes were lost) and fresh logs start clean —
  // but only until the injector trips again, so drop it first the way a
  // recovered disk would. The sticky-failed log threads are still
  // counting refusals while their queues drain in the background, so
  // settle the counter before pinning it (two equal reads an interval
  // apart) — otherwise this races and flakes under load.
  uint64_t failures_before = sys->wal_append_failures();
  for (int settle = 0; settle < 400; ++settle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now_failures = sys->wal_append_failures();
    if (now_failures == failures_before) break;
    failures_before = now_failures;
  }
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->wal_append_failures(), failures_before)
      << "failure history must survive the checkpoint";
  DurabilityWatermark repaired = sys->Watermark();
  EXPECT_EQ(repaired.durable, repaired.applied)
      << "checkpoint must restore durable == applied";

  // And the checkpointed state equals the healthy reference's.
  sys.reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> recovered,
      DurableShardedSystem::Open(faulty_dir, MakeInitialState(kWorldSeed),
                                 Options()));
  ReferenceShards reference(MakeInitialState(kWorldSeed));
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) reference.ApplyEvent(e);
  }
  ExpectStateEquals(*recovered, reference,
                    "post-checkpoint fault recovery");
}

/// Crash injection across checkpoints: pre-checkpoint state (movements
/// and the entry ledger, which lives in the shard snapshots) comes from
/// the snapshot cut, only the tail is at the mercy of the truncation.
/// Two event-only checkpoints re-reference the epoch-0 base, so the cut
/// recovers from a base two epochs older than its shard snapshots.
TEST_F(DurableShardedTest, CrashInjectionAfterCheckpoint) {
  const uint64_t kWorldSeed = 131;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kWorldSeed, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  auto batches = MakeBatches(probe, subjects, 600, 100, 151);
  const size_t first_cut = batches.size() / 3;
  const size_t cut = 2 * batches.size() / 3;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(golden, MakeInitialState(kWorldSeed),
                                   Options()));
    for (size_t i = 0; i < batches.size(); ++i) {
      if (i == first_cut || i == cut) {
        ASSERT_OK(sys->Checkpoint());
        ASSERT_OK_AND_ASSIGN(ShardManifest m,
                             LoadManifest(golden + "/MANIFEST"));
        EXPECT_EQ(m.base_snapshot, "base-0.snap") << "epoch " << m.epoch;
        EXPECT_EQ(sys->last_checkpoint_dirty_segments(), kShards);
      }
      ASSERT_OK(sys->EvaluateBatch(batches[i]).status());
    }
    EXPECT_EQ(sys->epoch(), 2u);
    EXPECT_EQ(sys->base_rewrites(), 1u);
  }

  Rng rng(5353);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string trial_dir = dir_ + "/ckpt" + std::to_string(trial);
    fs::remove_all(trial_dir);
    fs::copy(golden, trial_dir);
    std::vector<fs::path> wals = ShardWalPaths(trial_dir);
    ASSERT_EQ(wals.size(), kShards);
    for (const fs::path& wal : wals) {
      fs::resize_file(wal, rng.Uniform(fs::file_size(wal) + 1));
    }

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(trial_dir, MakeInitialState(kWorldSeed),
                                   Options()));

    ReferenceShards reference(MakeInitialState(kWorldSeed));
    for (size_t i = 0; i < cut; ++i) {
      for (const AccessEvent& e : batches[i]) reference.ApplyEvent(e);
    }
    // The ledger at the cut binds: it must come back from the shard
    // snapshots, since the base carries none.
    EXPECT_GT(ExhaustedAuths(reference.state.auth_db), 0u);
    reference.RebuildStaysAtCut();
    reference.ClearAlerts();
    for (const fs::path& wal : wals) {
      ASSERT_OK(reference.ReplaySurvivingLog(ShardIndexOf(wal),
                                             wal.string()));
    }
    ExpectStateEquals(*sys, reference, "checkpointed crash trial");
    EXPECT_EQ(AlertMultiset(sys->DrainAlerts()),
              AlertMultiset(reference.MergedAlerts()));
  }
}

/// SaveManifestIfChanged is rotation's no-op detector: a republish whose
/// serialized cut equals the previously published bytes must skip the
/// write + three fsyncs, and anything else must publish.
TEST_F(DurableShardedTest, ManifestRepublishSkipsByteIdenticalRewrites) {
  ShardManifest m;
  m.epoch = 3;
  m.num_shards = 2;
  m.base_snapshot = "base-3.snap";
  m.shards.resize(2);
  m.shards[0].snapshot = "movements-0-3.snap";
  m.shards[0].wals = {"events-0-3.wal"};
  m.shards[1].snapshot = "movements-1-3.snap";
  m.shards[1].wals = {"events-1-3.wal"};
  const std::string path = dir_ + "/MANIFEST";
  std::string cache;

  // An empty cache always publishes.
  ASSERT_OK_AND_ASSIGN(bool published, SaveManifestIfChanged(m, path, &cache));
  EXPECT_TRUE(published);
  ASSERT_OK_AND_ASSIGN(std::string bytes, SerializeManifest(m));
  EXPECT_EQ(cache, bytes);

  // The same cut again: byte-identical, skipped, cache untouched.
  ASSERT_OK_AND_ASSIGN(bool again, SaveManifestIfChanged(m, path, &cache));
  EXPECT_FALSE(again);
  EXPECT_EQ(cache, bytes);

  // A rotation that actually commits a new segment republishes, and the
  // published file is the new cut.
  m.shards[1].wals.push_back("events-1-3-1.wal");
  ASSERT_OK_AND_ASSIGN(bool changed, SaveManifestIfChanged(m, path, &cache));
  EXPECT_TRUE(changed);
  ASSERT_OK_AND_ASSIGN(ShardManifest loaded, LoadManifest(path));
  ASSERT_EQ(loaded.shards[1].wals.size(), 2u);
  EXPECT_EQ(loaded.shards[1].wals[1], "events-1-3-1.wal");
}

/// The system-level counters: every happy-path rotation commits a NEW
/// segment, so it publishes; the skip path is reserved for retried
/// republishes of an unchanged cut (exercised directly above).
TEST_F(DurableShardedTest, RotationPublishesManifestOncePerNewSegment) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(401, 24, &subjects);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(
          dir_, MakeInitialState(401),
          PipelinedOptions(SyncMode::kPipelined, /*segment_max_bytes=*/2048)));
  auto batches = MakeBatches(probe, subjects, 600, 100, 409);
  for (const auto& batch : batches) {
    Status durability;
    (void)sys->EvaluateBatchWithStatus(batch, &durability);
    ASSERT_OK(durability);
  }
  ASSERT_OK(sys->WaitDurable());
  size_t rotations = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    rotations += sys->shard_log(k).segment_index();
  }
  ASSERT_GT(rotations, 0u) << "no shard rotated; shrink segment_max_bytes";
  // One publish for the fresh directory's epoch-0 cut, one per rotated
  // segment — and never a skipped rewrite on this path.
  EXPECT_EQ(sys->manifest_publishes(), rotations + 1);
  EXPECT_EQ(sys->manifest_publish_skips(), 0u);
}

// --- Cold tier: incremental checkpoints, retention, recovery ---------------

std::vector<fs::path> ColdSegPaths(const std::string& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cold-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".seg") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(DurableShardedTest, IncrementalCheckpointRewritesOnlyDirtyShards) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(211, 24, &subjects);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(211, 24), Options()));

  // Traffic to every shard: the first checkpoint rewrites all of them.
  auto batches = MakeBatches(probe, subjects, 200, 100, 223);
  for (const auto& batch : batches) {
    ASSERT_OK(sys->EvaluateBatch(batch).status());
  }
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), kShards);
  ASSERT_OK_AND_ASSIGN(ShardManifest after_full,
                       LoadManifest(dir_ + "/MANIFEST"));
  // Events touch only shard state (movements and entry ledgers): the
  // epoch-0 base is re-referenced, not rewritten.
  EXPECT_EQ(after_full.base_snapshot, "base-0.snap");

  // No traffic at all: the next cut rewrites nothing and re-references
  // every shard snapshot by name.
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);
  ASSERT_OK_AND_ASSIGN(ShardManifest after_idle,
                       LoadManifest(dir_ + "/MANIFEST"));
  EXPECT_EQ(after_idle.epoch, after_full.epoch + 1);
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(after_idle.shards[k].snapshot, after_full.shards[k].snapshot)
        << "idle checkpoint rewrote shard " << k;
    EXPECT_TRUE(fs::exists(dir_ + "/" + after_idle.shards[k].snapshot));
  }
  EXPECT_EQ(after_idle.base_snapshot, after_full.base_snapshot);

  // Traffic confined to one subject: exactly its shard is rewritten.
  const SubjectId lone = subjects[0];
  const uint32_t lone_shard = sys->ShardOf(lone);
  ASSERT_OK(
      sys->EvaluateBatch({AccessEvent::Observe(450, lone, 0)}).status());
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 1u);
  ASSERT_OK_AND_ASSIGN(ShardManifest after_lone,
                       LoadManifest(dir_ + "/MANIFEST"));
  for (uint32_t k = 0; k < kShards; ++k) {
    if (k == lone_shard) {
      EXPECT_NE(after_lone.shards[k].snapshot, after_idle.shards[k].snapshot);
    } else {
      EXPECT_EQ(after_lone.shards[k].snapshot, after_idle.shards[k].snapshot)
          << "clean shard " << k << " was rewritten";
    }
  }
  EXPECT_EQ(after_lone.base_snapshot, "base-0.snap");
  EXPECT_EQ(sys->base_rewrites(), 1u);

  // A mutation window (mutable_base(), the facade's Mutate path): the
  // next cut writes a new base, and every shard with it.
  const LocationId room = sys->base().graph.Primitives()[0];
  ASSERT_OK_AND_ASSIGN(
      LocationTemporalAuthorization extra,
      LocationTemporalAuthorization::Make(
          TimeInterval(500, 600), TimeInterval(500, 700),
          LocationAuthorization{lone, room}, /*max_entries=*/2));
  sys->mutable_base().auth_db.Add(extra);
  ASSERT_OK(sys->Checkpoint());
  ASSERT_OK_AND_ASSIGN(ShardManifest after_mutate,
                       LoadManifest(dir_ + "/MANIFEST"));
  EXPECT_EQ(after_mutate.base_snapshot,
            "base-" + std::to_string(after_mutate.epoch) + ".snap");
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), kShards);
  EXPECT_EQ(sys->base_rewrites(), 2u);
  EXPECT_FALSE(fs::exists(dir_ + "/base-0.snap"))
      << "the superseded base must be swept";

  // Back to events only: the new base is re-referenced in turn.
  ASSERT_OK(
      sys->EvaluateBatch({AccessEvent::Observe(460, lone, 0)}).status());
  ASSERT_OK(sys->Checkpoint());
  ASSERT_OK_AND_ASSIGN(ShardManifest after_events,
                       LoadManifest(dir_ + "/MANIFEST"));
  EXPECT_EQ(after_events.base_snapshot, after_mutate.base_snapshot);
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 1u);
  EXPECT_EQ(sys->base_rewrites(), 2u);

  const size_t auths = sys->base().auth_db.size();
  sys.reset();
  ASSERT_OK_AND_ASSIGN(
      sys, DurableShardedSystem::Open(dir_, MakeInitialState(211, 24),
                                      Options()));
  EXPECT_EQ(sys->base().auth_db.size(), auths);
}

/// Regression: a checkpoint whose retention pass dropped NOTHING used to
/// leave cold_files_ full of moved-from entries (the survivors vector
/// was only written back when something dropped), so persisting the
/// sealed segments dereferenced null — this exact configuration (a
/// horizon far wider than the data) crashed the soak server.
TEST_F(DurableShardedTest, CheckpointPersistsColdFilesWhenHorizonDropsNothing) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(229, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 4;
  opt.retention.horizon = Chronon{1} << 40;  // Keeps everything.
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(229, 24), opt));
    auto batches = MakeBatches(probe, subjects, 300, 60, 233);
    for (const auto& batch : batches) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
      ASSERT_OK(sys->Checkpoint());
    }
    EXPECT_GT(sys->cold_segment_count(), 0u);
    EXPECT_EQ(sys->retention_dropped_segments(), 0u);
    EXPECT_EQ(sys->dropped_events(), 0u);
    EXPECT_FALSE(ColdSegPaths(dir_).empty());
  }
  // The committed cut names those segment files; recovery loads them.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(229, 24), opt));
  EXPECT_GT(sys->cold_segment_count(), 0u);
  EXPECT_EQ(sys->dropped_events(), 0u);
}

TEST_F(DurableShardedTest, RetentionTierSealsCompactsAndDrops) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(239, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 8;
  opt.retention.horizon = 40;
  opt.retention.compaction_fanin = 3;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(239, 24), opt));
  auto batches = MakeBatches(probe, subjects, 600, 50, 241);
  uint64_t total_fed = 0;
  for (const auto& batch : batches) {
    ASSERT_OK(sys->EvaluateBatch(batch).status());
    total_fed += batch.size();
    ASSERT_OK(sys->Checkpoint());
  }
  EXPECT_GT(sys->cold_segment_count(), 0u);
  EXPECT_GT(sys->cold_bytes(), 0u);
  EXPECT_GT(sys->compaction_runs(), 0u);
  EXPECT_GT(sys->retention_dropped_segments(), 0u);
  EXPECT_GT(sys->dropped_events(), 0u);
  // Compaction keeps every shard's tier below the fanin.
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_LT(sys->shard_movements(k).cold_segments().size(),
              static_cast<size_t>(opt.retention.compaction_fanin));
  }
  // Dropped events left the store but not the ledger arithmetic:
  // total_events still counts them.
  uint64_t total_recorded = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    total_recorded += sys->shard_movements(k).total_events();
  }
  uint64_t hot = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    hot += sys->shard_movements(k).history().size();
  }
  EXPECT_LT(hot, total_recorded) << "nothing was ever sealed or dropped";
}

/// The tentpole equivalence: with tiering + retention on, every answer
/// inside the retained window matches a runtime that never seals or
/// drops — decision streams included — live AND after a crash-recovery.
TEST_F(DurableShardedTest, TieredAnswersMatchUnboundedWithinRetainedWindow) {
  const uint64_t kSeed = 251;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(kSeed, 24, &subjects);
  const std::string tiered_dir = dir_ + "/tiered";
  const std::string unbounded_dir = dir_ + "/unbounded";
  fs::create_directories(tiered_dir);
  fs::create_directories(unbounded_dir);

  DurableShardedOptions tiered_opt = Options();
  tiered_opt.retention.max_hot_events = 8;
  tiered_opt.retention.horizon = 120;
  tiered_opt.retention.compaction_fanin = 3;

  auto batches = MakeBatches(probe, subjects, 600, 60, 257);
  Chronon newest = 0;
  for (const auto& batch : batches) {
    for (const AccessEvent& e : batch) newest = std::max(newest, e.time);
  }

  auto compare_windows = [&](DurableShardedSystem* tiered,
                             DurableShardedSystem* unbounded,
                             const char* context) {
    uint64_t tiered_total = 0;
    uint64_t unbounded_total = 0;
    for (uint32_t k = 0; k < kShards; ++k) {
      tiered_total += tiered->shard_movements(k).total_events();
      unbounded_total += unbounded->shard_movements(k).total_events();
    }
    EXPECT_EQ(tiered_total, unbounded_total) << context;
    const Chronon cutoff = newest - tiered_opt.retention.horizon;
    for (SubjectId s : subjects) {
      const uint32_t k = tiered->ShardOf(s);
      for (Chronon t = cutoff; t <= newest; t += 7) {
        EXPECT_EQ(tiered->shard_movements(k).LocationAt(s, t),
                  unbounded->shard_movements(k).LocationAt(s, t))
            << context << ": subject " << s << " at t=" << t;
      }
      EXPECT_EQ(tiered->shard_movements(k).CurrentLocation(s),
                unbounded->shard_movements(k).CurrentLocation(s))
          << context << ": subject " << s;
    }
  };

  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> tiered,
        DurableShardedSystem::Open(tiered_dir, MakeInitialState(kSeed, 24),
                                   tiered_opt));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> unbounded,
        DurableShardedSystem::Open(unbounded_dir, MakeInitialState(kSeed, 24),
                                   Options()));
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(std::vector<Decision> tiered_decisions,
                           tiered->EvaluateBatch(batches[i]));
      ASSERT_OK_AND_ASSIGN(std::vector<Decision> unbounded_decisions,
                           unbounded->EvaluateBatch(batches[i]));
      ASSERT_EQ(tiered_decisions.size(), unbounded_decisions.size());
      for (size_t j = 0; j < tiered_decisions.size(); ++j) {
        EXPECT_EQ(tiered_decisions[j].granted, unbounded_decisions[j].granted)
            << "batch " << i << ", event " << j;
      }
      // Checkpoint mid-stream (not after the last batch) so the tiered
      // directory crashes with BOTH sealed segments and a live WAL tail.
      if (i + 1 == batches.size() / 2) {
        ASSERT_OK(tiered->Checkpoint());
        ASSERT_OK(tiered->Checkpoint());  // Second cut: seals + compacts.
        ASSERT_OK(unbounded->Checkpoint());
      }
    }
    ASSERT_GT(tiered->cold_segment_count(), 0u);
    compare_windows(tiered.get(), unbounded.get(), "live");
    // "Crash": destroy without a final checkpoint.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> tiered,
      DurableShardedSystem::Open(tiered_dir, MakeInitialState(kSeed, 24),
                                 tiered_opt));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> unbounded,
      DurableShardedSystem::Open(unbounded_dir, MakeInitialState(kSeed, 24),
                                 Options()));
  EXPECT_GT(tiered->cold_segment_count(), 0u);
  compare_windows(tiered.get(), unbounded.get(), "recovered");
}

/// Crash-matrix extension for the cold tier: a committed cut that names
/// a segment file the directory lost (or holds only a torn prefix of)
/// must refuse to open — never recover a shorter history silently.
TEST_F(DurableShardedTest, TornOrMissingColdSegmentFailsRecovery) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(263, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 4;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt));
    auto batches = MakeBatches(probe, subjects, 300, 60, 269);
    for (const auto& batch : batches) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
      ASSERT_OK(sys->Checkpoint());
    }
    ASSERT_GT(sys->cold_segment_count(), 0u);
  }
  std::vector<fs::path> cold = ColdSegPaths(dir_);
  ASSERT_FALSE(cold.empty());
  const fs::path victim = cold.front();
  std::string original;
  {
    std::ifstream in(victim, std::ios::binary);
    original.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(original.size(), 2u);

  // Torn at every-other byte offset: always a hard error.
  for (size_t len = 0; len < original.size(); len += 2) {
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out.write(original.data(), static_cast<std::streamsize>(len));
    }
    EXPECT_FALSE(DurableShardedSystem::Open(dir_, MakeInitialState(263, 24),
                                            opt)
                     .ok())
        << "opened with cold segment torn at " << len << " bytes";
  }
  // Missing outright: also a hard error.
  fs::remove(victim);
  EXPECT_FALSE(
      DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt).ok());
  // Restored byte-exact: opens again.
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(original.data(), static_cast<std::streamsize>(original.size()));
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(263, 24), opt));
  EXPECT_GT(sys->cold_segment_count(), 0u);
}

/// checkpoint.dirty_segments must count exactly the snapshot rewrites,
/// and the tier counters/gauges must agree with the accessors — the
/// same reconciliation ci.sh's soak scrape asserts over the wire.
TEST_F(DurableShardedTest, RetentionTelemetryReconciles) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(271, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.retention.max_hot_events = 8;
  opt.retention.horizon = 40;
  opt.retention.compaction_fanin = 3;
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(271, 24), opt));

  Counter* dirty = registry.GetCounter("checkpoint.dirty_segments");
  // The fresh directory's epoch-0 cut wrote every shard.
  uint64_t expected_dirty = dirty->value();
  EXPECT_EQ(expected_dirty, sys->last_checkpoint_dirty_segments());

  auto batches = MakeBatches(probe, subjects, 600, 50, 277);
  for (const auto& batch : batches) {
    ASSERT_OK(sys->EvaluateBatch(batch).status());
    ASSERT_OK(sys->Checkpoint());
    expected_dirty += sys->last_checkpoint_dirty_segments();
  }
  // An idle checkpoint rewrites nothing and must not move the counter.
  const uint64_t before_idle = dirty->value();
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);
  EXPECT_EQ(dirty->value(), before_idle);

  EXPECT_EQ(dirty->value(), expected_dirty);
  EXPECT_EQ(registry.GetCounter("compaction.runs")->value(),
            sys->compaction_runs());
  EXPECT_GT(sys->compaction_runs(), 0u);
  EXPECT_EQ(registry.GetCounter("retention.dropped_segments")->value(),
            sys->retention_dropped_segments());
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GetGauge("storage.cold_segments")->value()),
      sys->cold_segment_count());
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GetGauge("storage.cold_bytes")->value()),
      sys->cold_bytes());
#if defined(__linux__)
  EXPECT_GT(registry.GetGauge("storage.resident_bytes")->value(), 0);
#endif
}


// --- Ledger in the shard snapshots ---------------------------------------

/// Every shard's movement history and every authorization's ledger.
struct PersistedState {
  std::vector<std::vector<std::string>> histories;
  std::vector<int64_t> ledger;
};

PersistedState CaptureState(const DurableShardedSystem& sys) {
  PersistedState out;
  for (uint32_t k = 0; k < sys.num_shards(); ++k) {
    out.histories.emplace_back();
    for (const MovementEvent& ev : sys.shard_movements(k).history()) {
      out.histories.back().push_back(MovementKey(ev));
    }
  }
  const AuthorizationDatabase& db = sys.base().auth_db;
  for (AuthId id = 0; id < db.size(); ++id) {
    out.ledger.push_back(db.record(id).entries_used);
  }
  return out;
}

void ExpectSameState(const PersistedState& got, const PersistedState& want,
                     const char* context) {
  EXPECT_EQ(got.histories, want.histories) << context;
  EXPECT_EQ(got.ledger, want.ledger) << context;
}

/// Records replayed from the WAL tail at Open change shard state without
/// passing through the new logs: the next checkpoint must still rewrite
/// those shards, or it would re-reference the pre-tail snapshots and
/// sweep the tail along with the old logs.
TEST_F(DurableShardedTest, CheckpointAfterReopenKeepsReplayedTail) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(353, 24, &subjects);
  PersistedState live;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(353), Options()));
    for (const auto& batch : MakeBatches(probe, subjects, 400, 100, 359)) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
    live = CaptureState(*sys);
  }
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(353), Options()));
    ExpectSameState(CaptureState(*sys), live, "reopened over the tail");
    ASSERT_OK(sys->Checkpoint());  // No traffic since Open.
    EXPECT_EQ(sys->last_checkpoint_dirty_segments(), kShards);
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(353), Options()));
  ExpectSameState(CaptureState(*sys), live, "reopened after the checkpoint");
}

/// Recovery checks every ledger entry of a shard snapshot against the
/// authorization database and the partition: a torn snapshot, a foreign
/// subject's ledger, an unknown authorization id and a count above
/// max_entries each fail Open instead of loading a wrong ledger.
TEST_F(DurableShardedTest, ShardLedgerCorruptionFailsRecovery) {
  std::vector<SubjectId> subjects;
  SystemState world = MakeInitialState(307, 24, &subjects);
  const std::string golden = dir_ + "/golden";
  fs::create_directories(golden);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(golden, MakeInitialState(307), Options()));
    for (const auto& batch : MakeBatches(world, subjects, 400, 100, 313)) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
    ASSERT_OK(sys->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(ShardManifest m, LoadManifest(golden + "/MANIFEST"));
  uint32_t shard = kShards;
  ShardSnapshot good;
  for (uint32_t k = 0; k < kShards && shard == kShards; ++k) {
    ASSERT_OK_AND_ASSIGN(
        good, LoadShardSnapshot(golden + "/" + m.shards[k].snapshot,
                                LedgerPlacement::kInShards));
    if (!good.ledgers.empty()) shard = k;
  }
  ASSERT_LT(shard, kShards) << "no shard snapshot carries a ledger";
  // An authorization of a subject that lives on another shard.
  AuthId foreign_auth = kInvalidAuth;
  for (AuthId id = 0; id < world.auth_db.size(); ++id) {
    const SubjectId s = world.auth_db.record(id).auth.subject();
    if (ReferenceShards::ShardOf(s) != shard) {
      foreign_auth = id;
      break;
    }
  }
  ASSERT_NE(foreign_auth, kInvalidAuth);

  auto resave = [&](std::vector<SubjectLedger> ledgers) {
    return [&, ledgers](const std::string& path) {
      ASSERT_OK(SaveShardSnapshot(good.movements, ledgers, path));
    };
  };
  std::vector<SubjectLedger> foreign = good.ledgers;
  foreign.push_back(
      {world.auth_db.record(foreign_auth).auth.subject(), {{foreign_auth, 1}}});
  std::sort(foreign.begin(), foreign.end(),
            [](const SubjectLedger& a, const SubjectLedger& b) {
              return a.subject < b.subject;
            });
  std::vector<SubjectLedger> unknown = good.ledgers;
  unknown.back().used.emplace_back(
      static_cast<AuthId>(world.auth_db.size() + 7), 1);
  std::vector<SubjectLedger> over = good.ledgers;
  const AuthId over_id = over[0].used[0].first;
  over[0].used[0].second = world.auth_db.record(over_id).auth.max_entries() + 1;

  const std::vector<
      std::pair<std::string, std::function<void(const std::string&)>>>
      cases = {
          {"torn mid-ledger",
           [](const std::string& path) {
             std::ifstream in(path, std::ios::binary);
             const std::string contents(
                 (std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
             const size_t ledger = contents.rfind("ledger\t");
             ASSERT_NE(ledger, std::string::npos);
             fs::resize_file(path, ledger + 10);
           }},
          {"foreign subject", resave(foreign)},
          {"unknown authorization id", resave(unknown)},
          {"count above max_entries", resave(over)},
      };
  for (const auto& [name, corrupt] : cases) {
    SCOPED_TRACE(name);
    const std::string trial = dir_ + "/trial";
    fs::remove_all(trial);
    fs::copy(golden, trial);
    // The untouched copy recovers; only the corruption may fail it.
    ASSERT_OK(DurableShardedSystem::Open(trial, MakeInitialState(307),
                                         Options())
                  .status());
    fs::remove_all(trial);
    fs::copy(golden, trial);
    corrupt(trial + "/" + m.shards[shard].snapshot);
    Result<std::unique_ptr<DurableShardedSystem>> opened =
        DurableShardedSystem::Open(trial, MakeInitialState(307), Options());
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsParseError()) << opened.status().ToString();
  }
}

/// A directory written before the ledger moved into the shard snapshots:
/// its base carries the ledger in each `auth` record and its shard
/// snapshots hold only `move` records. It opens with the same ledger,
/// and its first checkpoint rewrites the base and every shard — the
/// ones without traffic too — so no later cut re-references a shard
/// snapshot that lacks its ledger.
TEST_F(DurableShardedTest, LegacyDirectoryOpensAndUpgradesOnFirstCheckpoint) {
  std::vector<SubjectId> subjects;
  SystemState world = MakeInitialState(331, 24, &subjects);
  PersistedState live;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(331), Options()));
    for (const auto& batch : MakeBatches(world, subjects, 400, 100, 337)) {
      ASSERT_OK(sys->EvaluateBatch(batch).status());
    }
    ASSERT_OK(sys->Checkpoint());
    live = CaptureState(*sys);
    // Rewrite the committed cut in the earlier format.
    ASSERT_OK_AND_ASSIGN(ShardManifest m, LoadManifest(dir_ + "/MANIFEST"));
    ASSERT_OK(SaveSnapshot(sys->base(), dir_ + "/" + m.base_snapshot,
                           LedgerPlacement::kInline));
    for (uint32_t k = 0; k < kShards; ++k) {
      std::ofstream out(dir_ + "/" + m.shards[k].snapshot,
                        std::ios::binary | std::ios::trunc);
      for (const MovementEvent& ev : sys->shard_movements(k).history()) {
        out << EncodeRecord({"move",
                             {std::to_string(ev.time),
                              std::to_string(ev.subject),
                              ev.to == kInvalidLocation
                                  ? "out"
                                  : std::to_string(ev.to)}})
            << '\n';
      }
    }
  }
  ASSERT_GT(std::count_if(live.ledger.begin(), live.ledger.end(),
                          [](int64_t used) { return used > 0; }),
            0);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(331), Options()));
    ExpectSameState(CaptureState(*sys), live, "legacy directory");
    // Traffic on one shard only; an observation leaves the ledger alone.
    ASSERT_OK(sys->EvaluateBatch({AccessEvent::Observe(5000, subjects[0], 0)})
                  .status());
    live = CaptureState(*sys);
    ASSERT_OK(sys->Checkpoint());
    EXPECT_EQ(sys->last_checkpoint_dirty_segments(), kShards);
    EXPECT_EQ(sys->base_rewrites(), 1u);
    ASSERT_OK_AND_ASSIGN(ShardManifest m, LoadManifest(dir_ + "/MANIFEST"));
    EXPECT_EQ(m.base_snapshot, "base-" + std::to_string(m.epoch) + ".snap");
    for (uint32_t k = 0; k < kShards; ++k) {
      EXPECT_OK(LoadShardSnapshot(dir_ + "/" + m.shards[k].snapshot,
                                  LedgerPlacement::kInShards)
                    .status());
    }
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(331), Options()));
  ExpectSameState(CaptureState(*sys), live, "upgraded directory");
  ASSERT_OK(sys->Checkpoint());
  EXPECT_EQ(sys->last_checkpoint_dirty_segments(), 0u);
  EXPECT_EQ(sys->base_rewrites(), 0u);
}

/// A crash between writing a checkpoint's files and publishing its
/// manifest leaves them behind. The retried checkpoint re-references a
/// clean base or shard instead of rewriting that epoch's file, so Open
/// sweeps every snapshot and cold file the committed cut does not name.
TEST_F(DurableShardedTest, OrphanFilesAreSweptAtOpen) {
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(367), Options()));
    ASSERT_OK(sys->Checkpoint());
  }
  const std::vector<std::string> orphans = {"base-2.snap", "shard-1-2.snap",
                                            "cold-0-5.seg"};
  for (const std::string& name : orphans) {
    std::ofstream(dir_ + "/" + name) << "left by a crashed checkpoint\n";
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(367), Options()));
  for (const std::string& name : orphans) {
    EXPECT_FALSE(fs::exists(dir_ + "/" + name)) << name;
  }
  ASSERT_OK_AND_ASSIGN(ShardManifest m, LoadManifest(dir_ + "/MANIFEST"));
  EXPECT_TRUE(fs::exists(dir_ + "/" + m.base_snapshot));
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(fs::exists(dir_ + "/" + m.shards[k].snapshot)) << k;
  }
}

// --- Replication read cursors ---------------------------------------------

using Slice = DurableShardedSystem::ReplicationSlice;

/// Ships shard `k` from `from` up to its durable position in
/// `chunk`-record slices, the way LogShipper resumes a subscription;
/// `slices` (optional) receives the number of non-empty slices.
std::vector<std::string> ShipChunked(DurableShardedSystem* sys, uint32_t k,
                                     uint64_t from, size_t chunk,
                                     uint64_t* slices = nullptr) {
  std::vector<std::string> out;
  for (;;) {
    Result<Slice> slice = sys->ReadShardRecords(k, from, chunk);
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    if (!slice.ok() || slice->records.empty()) break;
    if (slices != nullptr) ++*slices;
    EXPECT_EQ(slice->next, from + slice->records.size());
    out.insert(out.end(), slice->records.begin(), slice->records.end());
    from = slice->next;
  }
  return out;
}

/// Shard `k`'s whole durable chain in one read from its log floor. A
/// cursor always sits past at least one record of its chain, never at a
/// floor, so this read scans the chain from its first segment: the
/// cursor-less reference every shipped sequence is compared with.
std::vector<std::string> ReadFromFloor(DurableShardedSystem* sys, uint32_t k,
                                       uint64_t floor) {
  Result<Slice> slice =
      sys->ReadShardRecords(k, floor, std::numeric_limits<size_t>::max());
  EXPECT_TRUE(slice.ok()) << slice.status().ToString();
  if (!slice.ok()) return {};
  EXPECT_EQ(slice->next, slice->durable);
  return slice->records;
}

/// The same sequence read straight from the segment files the manifest
/// names, line by line: an oracle that shares no code with the reader.
std::vector<std::string> ReadChainFiles(const std::string& dir, uint32_t k) {
  std::vector<std::string> out;
  Result<ShardManifest> m = LoadManifest(dir + "/MANIFEST");
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  if (!m.ok()) return out;
  for (const std::string& name : m->shards[k].wals) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
  }
  return out;
}

void Ingest(DurableShardedSystem* sys,
            const std::vector<std::vector<AccessEvent>>& batches) {
  for (const auto& batch : batches) {
    ASSERT_OK(sys->EvaluateBatch(batch).status());
  }
}

struct CursorCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;
};

CursorCounts ReadCounts(MetricsRegistry& registry) {
  return {registry.GetCounter("replication.read_cursor.hits")->value(),
          registry.GetCounter("replication.read_cursor.misses")->value(),
          registry.GetCounter("replication.read_bytes")->value()};
}

/// Slices resume from cursors across rotated segments, at chunk sizes
/// that end on, before and after segment boundaries, and ship exactly
/// what one read from the floor and the raw segment files hold.
TEST_F(DurableShardedTest, ReplicationCursorChunksStraddleRotatedSegments) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(401, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.segment_max_bytes = 300;
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(401), opt));
  Ingest(sys.get(), MakeBatches(probe, subjects, 800, 20, 409));
  for (uint32_t k = 0; k < kShards; ++k) {
    ASSERT_GT(sys->shard_log(k).segment_index(), 2u)
        << "shard " << k << " did not rotate; shrink segment_max_bytes";
  }
  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::vector<std::string> reference = ReadFromFloor(sys.get(), k, 0);
    ASSERT_EQ(reference.size(), sys->ShardWatermark(k).durable);
    EXPECT_EQ(reference, ReadChainFiles(dir_, k));
    for (size_t chunk : {1, 3, 7, 64}) {
      const CursorCounts before = ReadCounts(registry);
      EXPECT_EQ(ShipChunked(sys.get(), k, 0, chunk), reference)
          << "chunk " << chunk;
      const uint64_t slices = (reference.size() + chunk - 1) / chunk;
      EXPECT_EQ(ReadCounts(registry).hits - before.hits, slices - 1)
          << "chunk " << chunk;
    }
  }
}

/// A checkpoint between slices retires the shipped positions: an old
/// position below the new floor is "resync required", and reads from
/// the new floor ship the new chain, even where a cursor from the old
/// chain sits at exactly the new floor's position.
TEST_F(DurableShardedTest, ReplicationCursorCheckpointBetweenSlices) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(419, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(419), opt));
  auto batches = MakeBatches(probe, subjects, 800, 40, 421);
  const size_t half = batches.size() / 2;
  Ingest(sys.get(), {batches.begin(), batches.begin() + half});

  // Shard 0 is shipped to its end (a cursor at the coming floor); every
  // other shard stops halfway (a cursor below it).
  std::vector<uint64_t> stopped(kShards, 0);
  for (uint32_t k = 0; k < kShards; ++k) {
    const uint64_t durable = sys->ShardWatermark(k).durable;
    ASSERT_GT(durable, 4u);
    const uint64_t upto = k == 0 ? durable : durable / 2;
    uint64_t at = 0;
    while (at < upto) {
      ASSERT_OK_AND_ASSIGN(Slice slice, sys->ReadShardRecords(
                                            k, at, std::min<uint64_t>(
                                                       3, upto - at)));
      at = slice.next;
    }
    stopped[k] = at;
  }
  ASSERT_OK(sys->Checkpoint());
  std::vector<uint64_t> floors(kShards, 0);
  for (uint32_t k = 0; k < kShards; ++k) {
    floors[k] = sys->ShardWatermark(k).durable;
  }
  Ingest(sys.get(), {batches.begin() + half, batches.end()});

  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    if (k == 0) {
      ASSERT_EQ(stopped[k], floors[k]);
    } else {
      Result<Slice> stale = sys->ReadShardRecords(k, stopped[k], 3);
      ASSERT_FALSE(stale.ok());
      EXPECT_TRUE(stale.status().IsFailedPrecondition());
      EXPECT_NE(stale.status().ToString().find("resync required"),
                std::string::npos)
          << stale.status().ToString();
    }
    const CursorCounts before = ReadCounts(registry);
    uint64_t slices = 0;
    const std::vector<std::string> shipped =
        ShipChunked(sys.get(), k, floors[k], 5, &slices);
    const CursorCounts after = ReadCounts(registry);
    EXPECT_EQ(after.misses - before.misses, 1u)
        << "the first read from the new floor must not resume an old cursor";
    EXPECT_EQ(after.hits - before.hits, slices - 1);
    const std::vector<std::string> reference =
        ReadFromFloor(sys.get(), k, floors[k]);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(shipped, reference);
    EXPECT_EQ(reference, ReadChainFiles(dir_, k));
  }
}

/// Checkpoints with no new records keep the floor but rename the chain
/// (the segment names carry the epoch) under live cursors: reads at the
/// shipped end stay empty, and the records appended afterwards ship
/// exactly as one read from the floor returns them.
TEST_F(DurableShardedTest, ReplicationCursorAcrossIdleCheckpoints) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(431, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(431), opt));
  auto batches = MakeBatches(probe, subjects, 600, 40, 433);
  const size_t third = batches.size() / 3;
  Ingest(sys.get(), {batches.begin(), batches.begin() + third});
  std::vector<uint64_t> ends(kShards, 0);
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(ShipChunked(sys.get(), k, 0, 4), ReadFromFloor(sys.get(), k, 0));
    ends[k] = sys->ShardWatermark(k).durable;
  }
  ASSERT_OK(sys->Checkpoint());
  const uint64_t epoch = sys->epoch();
  ASSERT_OK(sys->Checkpoint());
  ASSERT_OK(sys->Checkpoint());
  ASSERT_EQ(sys->epoch(), epoch + 2);
  for (uint32_t k = 0; k < kShards; ++k) {
    ASSERT_EQ(sys->ShardWatermark(k).durable, ends[k]);
    ASSERT_OK_AND_ASSIGN(Slice empty, sys->ReadShardRecords(k, ends[k], 4));
    EXPECT_TRUE(empty.records.empty());
    EXPECT_EQ(empty.next, ends[k]);
  }

  // Records land in the renamed chain. The cursors each shard's last
  // slice left name a retired segment under an older floor, so the
  // first read from the shipped end scans; later slices resume.
  Ingest(sys.get(), {batches.begin() + third, batches.end()});
  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const CursorCounts before = ReadCounts(registry);
    uint64_t slices = 0;
    const std::vector<std::string> shipped =
        ShipChunked(sys.get(), k, ends[k], 6, &slices);
    const CursorCounts after = ReadCounts(registry);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, slices - 1);
    const std::vector<std::string> reference =
        ReadFromFloor(sys.get(), k, ends[k]);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(shipped, reference);
    EXPECT_EQ(reference, ReadChainFiles(dir_, k));
  }
}

/// A reopened runtime starts with no cursors: a subscriber resumes from
/// its position by a scan, then from cursors again, over a chain of
/// replayed records followed by records appended after the reopen.
TEST_F(DurableShardedTest, ReplicationCursorResumesAcrossReopen) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(439, 24, &subjects);
  auto batches = MakeBatches(probe, subjects, 800, 40, 443);
  const size_t half = batches.size() / 2;
  std::vector<std::vector<std::string>> shipped(kShards);
  std::vector<uint64_t> at(kShards, 0);
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<DurableShardedSystem> sys,
        DurableShardedSystem::Open(dir_, MakeInitialState(439), Options()));
    Ingest(sys.get(), {batches.begin(), batches.begin() + half});
    for (uint32_t k = 0; k < kShards; ++k) {
      const uint64_t upto = sys->ShardWatermark(k).durable * 2 / 3;
      while (at[k] < upto) {
        ASSERT_OK_AND_ASSIGN(Slice slice, sys->ReadShardRecords(k, at[k], 7));
        shipped[k].insert(shipped[k].end(), slice.records.begin(),
                          slice.records.end());
        at[k] = slice.next;
      }
    }
  }
  MetricsRegistry registry;
  DurableShardedOptions opt = Options();
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(439), opt));
  Ingest(sys.get(), {batches.begin() + half, batches.end()});
  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::vector<std::string> rest = ShipChunked(sys.get(), k, at[k], 7);
    shipped[k].insert(shipped[k].end(), rest.begin(), rest.end());
    const std::vector<std::string> reference = ReadFromFloor(sys.get(), k, 0);
    EXPECT_EQ(shipped[k], reference);
    EXPECT_EQ(reference, ReadChainFiles(dir_, k));
  }
  // One scan per shard on resuming, one per shard for the reference.
  EXPECT_EQ(ReadCounts(registry).misses, 2u * kShards);
  EXPECT_GT(ReadCounts(registry).hits, 0u);
}

/// Two subscribers at different positions, reading in turn with
/// different slice sizes, each keep their own cursor: after its first
/// read neither ever scans again.
TEST_F(DurableShardedTest, ReplicationCursorsServeInterleavedSubscribers) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(449, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(449), opt));
  Ingest(sys.get(), MakeBatches(probe, subjects, 800, 40, 457));
  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::vector<std::string> reference = ReadFromFloor(sys.get(), k, 0);
    const uint64_t end = reference.size();
    ASSERT_GT(end, 20u);
    const CursorCounts before = ReadCounts(registry);
    struct Subscriber {
      uint64_t at;
      size_t chunk;
      uint64_t start;
      std::vector<std::string> got;
    };
    Subscriber subs[2] = {{0, 3, 0, {}}, {end / 3, 5, end / 3, {}}};
    uint64_t reads = 0;
    while (subs[0].at < end || subs[1].at < end) {
      for (Subscriber& sub : subs) {
        if (sub.at >= end) continue;
        ASSERT_OK_AND_ASSIGN(Slice slice,
                             sys->ReadShardRecords(k, sub.at, sub.chunk));
        ++reads;
        sub.got.insert(sub.got.end(), slice.records.begin(),
                       slice.records.end());
        sub.at = slice.next;
      }
    }
    for (const Subscriber& sub : subs) {
      EXPECT_EQ(sub.got, std::vector<std::string>(
                             reference.begin() + sub.start, reference.end()));
    }
    const CursorCounts after = ReadCounts(registry);
    EXPECT_EQ(after.misses - before.misses, 2u);
    EXPECT_EQ(after.hits - before.hits, reads - 2);
  }
}

/// Two shipper threads catch up every shard while the control thread
/// keeps ingesting; each ends with exactly the chain one read from the
/// floor returns. (Runs under the TSan CI job with the rest of this
/// suite: the cursor slots are shared by both threads.)
TEST_F(DurableShardedTest, ReplicationCursorReadsRaceIngest) {
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(461, 24, &subjects);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(461), Options()));
  auto batches = MakeBatches(probe, subjects, 1600, 40, 463);
  std::atomic<bool> ingest_done{false};
  std::vector<std::vector<std::string>> got[2];
  std::thread shippers[2];
  const size_t chunks[2] = {4, 11};
  for (int t = 0; t < 2; ++t) {
    got[t].assign(kShards, {});
    shippers[t] = std::thread([&, t] {
      std::vector<uint64_t> at(kShards, 0);
      for (bool idle = false; !idle;) {
        const bool done_before = ingest_done.load();
        idle = done_before;
        for (uint32_t k = 0; k < kShards; ++k) {
          Result<Slice> slice = sys->ReadShardRecords(k, at[k], chunks[t]);
          if (!slice.ok()) {
            ADD_FAILURE() << slice.status().ToString();
            return;
          }
          got[t][k].insert(got[t][k].end(), slice->records.begin(),
                           slice->records.end());
          at[k] = slice->next;
          // Once ingest had finished before this pass, an empty slice
          // means the shard is shipped to its final durable position.
          if (!slice->records.empty()) idle = false;
        }
      }
    });
  }
  for (const auto& batch : batches) {
    Result<std::vector<Decision>> applied = sys->EvaluateBatch(batch);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }
  ingest_done.store(true);
  for (std::thread& t : shippers) t.join();
  for (uint32_t k = 0; k < kShards; ++k) {
    const std::vector<std::string> reference = ReadFromFloor(sys.get(), k, 0);
    ASSERT_EQ(reference.size(), sys->ShardWatermark(k).durable);
    EXPECT_EQ(got[0][k], reference) << "shard " << k;
    EXPECT_EQ(got[1][k], reference) << "shard " << k;
  }
}

/// replication.read_bytes and replication.read_cursor.{hits,misses}
/// reconcile with a chunked catch-up of one unrotated segment per
/// shard: every slice after the first resumes from a cursor, so the
/// reads pass over each segment exactly once.
TEST_F(DurableShardedTest, ReplicationReadTelemetryReconciles) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(467, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(467), opt));
  Ingest(sys.get(), MakeBatches(probe, subjects, 4000, 100, 479));
  constexpr size_t kChunk = 16;
  uint64_t segment_bytes = 0;
  uint64_t slices = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    ASSERT_EQ(sys->shard_log(k).segment_index(), 0u);
    ASSERT_OK_AND_ASSIGN(ShardManifest m, LoadManifest(dir_ + "/MANIFEST"));
    ASSERT_EQ(m.shards[k].wals.size(), 1u);
    segment_bytes += fs::file_size(dir_ + "/" + m.shards[k].wals[0]);
    const uint64_t durable = sys->ShardWatermark(k).durable;
    ASSERT_GT(durable, 10 * kChunk);
    slices += (durable + kChunk - 1) / kChunk;
  }
  const CursorCounts before = ReadCounts(registry);
  EXPECT_EQ(before.hits + before.misses + before.bytes, 0u);
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(ShipChunked(sys.get(), k, 0, kChunk).size(),
              sys->ShardWatermark(k).durable);
  }
  const CursorCounts after = ReadCounts(registry);
  EXPECT_EQ(after.misses, kShards);
  EXPECT_EQ(after.hits, slices - kShards);
  EXPECT_EQ(after.bytes, segment_bytes);
}

/// A read of zero records ships nothing, whether or not a cursor sits
/// at its position, and leaves the cursors as they were: the slices
/// around it resume and ship exactly what one read from the floor does.
TEST_F(DurableShardedTest, ReplicationCursorSurvivesZeroRecordReads) {
  MetricsRegistry registry;
  std::vector<SubjectId> subjects;
  SystemState probe = MakeInitialState(487, 24, &subjects);
  DurableShardedOptions opt = Options();
  opt.durability.segment_max_bytes = 300;
  opt.durability.metrics = &registry;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DurableShardedSystem> sys,
      DurableShardedSystem::Open(dir_, MakeInitialState(487), opt));
  Ingest(sys.get(), MakeBatches(probe, subjects, 800, 40, 491));
  for (uint32_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::vector<std::string> reference = ReadFromFloor(sys.get(), k, 0);
    ASSERT_GT(reference.size(), 20u);
    const CursorCounts before = ReadCounts(registry);
    std::vector<std::string> shipped;
    uint64_t at = 0;
    uint64_t reads = 0;
    while (at < reference.size()) {
      // Zero-record reads at the cursor's position, ahead of it and
      // behind it.
      for (uint64_t pos : {at, at + 1, at / 2}) {
        if (pos > reference.size()) continue;
        ASSERT_OK_AND_ASSIGN(Slice none, sys->ReadShardRecords(k, pos, 0));
        EXPECT_TRUE(none.records.empty());
        EXPECT_EQ(none.next, pos);
      }
      ASSERT_OK_AND_ASSIGN(Slice slice, sys->ReadShardRecords(k, at, 6));
      ++reads;
      shipped.insert(shipped.end(), slice.records.begin(),
                     slice.records.end());
      at = slice.next;
    }
    EXPECT_EQ(shipped, reference);
    const CursorCounts after = ReadCounts(registry);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, reads - 1);
  }
}

}  // namespace
}  // namespace ltam

// Copyright 2026 The LTAM Authors.
// history_retention: closed-loop ApplyBatch builds a long movement
// history on a durable 2-shard runtime with retention on, checkpointing
// every 64 chronons (each checkpoint seals, drops and compacts) and
// closing and reopening the runtime after every fourth checkpoint, so
// recovery is timed at eight history lengths; then rounds of a small
// dirtying batch + Checkpoint(), a historical query sweep over the hot
// and cold tiers, and reopens of the whole history. A probe round (a
// replica catch-up, for catchup_s) follows every fourth build chunk, two
// chunks after each reopen. No service call is made. A cycle starts from
// a fresh directory; a run makes a fixed number of whole cycles for
// --seconds.

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

using ltam::QueryResult;
using ltam::Result;

constexpr size_t kBatchEvents = 1024;     // 4 chronons of 256 subjects.
constexpr size_t kBuildBatches = 512;     // 524,288 events, 2048 chronons.
constexpr size_t kCheckpointEvery = 16;   // Batches: 64 chronons.
constexpr size_t kDirtyRounds = 24;
constexpr size_t kDirtyEvents = 64;
constexpr Chronon kHorizon = 1000;
constexpr size_t kMaxHotEvents = 2048;
/// Slack of the retention check: compaction_fanin seal intervals (a
/// merged segment may span that many), README "Known fault".
constexpr uint32_t kFanin = 8;
constexpr Chronon kSealInterval = 64;
constexpr Chronon kSlack = kFanin * kSealInterval;
/// Reopens of the whole history at the end of a cycle.
constexpr int kReopens = 2;
/// Build chunks between reopens, and between probe rounds: eight of
/// each a cycle.
constexpr size_t kReopenEvery = 4;
/// Seconds of --seconds per cycle: a run makes seconds / kCycleSeconds
/// whole cycles (README "Workloads").
constexpr double kCycleSeconds = 10;

/// The inputs of one cycle and the oracle's view of them, identical in
/// every cycle of a run.
struct Inputs {
  std::vector<std::vector<AccessEvent>> build;  // kBuildBatches batches.
  std::vector<std::vector<AccessEvent>> dirty;  // kDirtyRounds batches.
  std::vector<std::vector<ltam::Decision>> build_decisions, dirty_decisions;
  Chronon now = 0;
  std::vector<std::string> sweep;
  std::vector<int> sweep_kind;  // 0 hot, 1 cold, 2 occupants, 3 contacts.
  std::vector<Result<QueryResult>> reference;
};

Inputs MakeInputs(const World& world, uint64_t seed) {
  Inputs in;
  EventStream stream(&world, seed);
  Oracle oracle(world);
  for (size_t b = 0; b < kBuildBatches; ++b) {
    in.build.push_back(stream.Next(kBatchEvents));
    in.build_decisions.push_back(oracle.Apply(in.build.back()));
  }
  for (size_t r = 0; r < kDirtyRounds; ++r) {
    in.dirty.push_back(stream.Next(kDirtyEvents));
    in.dirty_decisions.push_back(oracle.Apply(in.dirty.back()));
  }
  in.now = stream.now();
  // Query times stay inside the retention horizon, where answers are
  // equivalence-guaranteed whatever retention dropped.
  ltam::Rng rng(seed * 2654435761u + 3);
  const Chronon hot_from = in.now - 6;
  const Chronon cold_from = in.now - kHorizon + 64;
  const Chronon cold_to = in.now - 128;
  auto subject = [&] {
    return world.SubjectName(
        world.subjects[rng.Uniform(world.subjects.size())]);
  };
  auto room = [&] {
    return world.RoomName(world.rooms[rng.Uniform(world.rooms.size())]);
  };
  auto at = [&](Chronon lo, Chronon hi) {
    return std::to_string(rng.UniformRange(lo, hi));
  };
  for (int i = 0; i < 600; ++i) {
    const int kind = i % 6 < 2 ? 0 : i % 6 < 4 ? 1 : i % 6 == 4 ? 2 : 3;
    std::string q;
    if (kind == 0) {
      q = "WHERE WAS " + subject() + " AT " + at(hot_from, in.now);
    } else if (kind == 1) {
      q = "WHERE WAS " + subject() + " AT " + at(cold_from, cold_to);
    } else if (kind == 2) {
      q = "OCCUPANTS OF " + room() + " AT " + at(cold_from, in.now);
    }
    if (kind == 3) {
      const Chronon t = rng.UniformRange(cold_from, cold_to);
      q = "CONTACTS OF " + subject() + " DURING [" + std::to_string(t) + ", " +
          std::to_string(t + 32) + "]";
    }
    in.sweep.push_back(q);
    in.sweep_kind.push_back(kind);
    in.reference.push_back(oracle.Query(q));
  }
  return in;
}

/// Everything the cycles accumulate.
struct Samples {
  std::vector<double> apply_ms, chunk_eps, sustained_eps, wait_ms;
  // Every checkpoint, build and dirty.
  std::vector<double> checkpoint_ms, checkpoint_write_bytes;
  std::vector<double> checkpoint_bytes, base_bytes, dirty_segs;
  std::vector<double> query_ms, query_kind_us[4];
  // Every reopen, mid-build and final.
  std::vector<double> recovery_s, recovery_read_bytes;
  std::vector<double> recovery_bytes, disk_per_event;
  double retained_span = 0;
  ltam::RuntimeStats last_stats;
  /// Compaction runs of the last cycle: the runtime counts them since
  /// its Open, so the counts of the runtimes closed mid-build are added.
  uint64_t compaction_runs = 0;
};

/// One checkpoint: timed and, when `sample`, its written bytes measured
/// from the directory; followed by the ordering check and the
/// retention-horizon check.
void CheckpointAndCheck(AccessRuntime* rt, const World& world,
                        const std::string& dir, Chronon now, bool sample,
                        Samples* s, Tracer* tracer, Report* report,
                        double* seconds) {
  const auto before = ListFiles(dir);
  const uint64_t dirty_before = rt->Stats().checkpoint_dirty_segments;
  const Clock::time_point t0 = Clock::now();
  const IoBytes io0 = ProcessIo();
  const bool ok = [&] {
    auto span = tracer->Span("storage.checkpoint");
    return rt->Checkpoint().ok();
  }();
  const double elapsed = SecondsSince(t0);
  s->checkpoint_write_bytes.push_back(
      static_cast<double>(ProcessIo().written - io0.written));
  if (seconds != nullptr) *seconds = elapsed;
  report->Check(ok, "Checkpoint");
  s->checkpoint_ms.push_back(elapsed * 1e3);
  if (sample) {
    uint64_t written = 0, base = 0;
    for (const auto& [name, info] : ListFiles(dir)) {
      auto it = before.find(name);
      if (it != before.end() && it->second.first == info.first) continue;
      written += info.second;
      if (name.rfind("base-", 0) == 0) base += info.second;
    }
    s->checkpoint_bytes.push_back(static_cast<double>(written));
    s->base_bytes.push_back(static_cast<double>(base));
    const uint64_t dirty = rt->Stats().checkpoint_dirty_segments - dirty_before;
    s->dirty_segs.push_back(static_cast<double>(dirty));
  }
  auto span = tracer->Span("bench.check");
  Chronon oldest = ltam::kChrononMax;
  report->Check(StaysOrdered(world, rt->movements(), &oldest),
                "stays ordered and non-overlapping");
  // Retention: no retained completed stay may have ended before
  // now - horizon - slack. Fails on the current code (README).
  report->KnownFaultCheck(oldest == ltam::kChrononMax ||
                          oldest >= now - kHorizon - kSlack);
  if (oldest != ltam::kChrononMax) {
    s->retained_span = static_cast<double>(now - oldest);
  }
}

void RunCycle(const World& world, const Inputs& in, const std::string& workdir,
              ltam::MetricsRegistry* metrics, Probe* probe, Samples* s,
              Tracer* tracer, Report* report) {
  auto cycle_span = tracer->Span("bench.cycle");
  const std::string dir = NewDir(workdir, "primary");
  ltam::RuntimeOptions options = DurableOptions(world, dir, metrics);
  options.retention.horizon = kHorizon;
  options.retention.max_hot_events = kMaxHotEvents;
  std::unique_ptr<AccessRuntime> rt;
  {
    auto span = tracer->Span("runtime.open");
    rt = OpenRuntime(world, options);
  }
  report->Check(rt != nullptr, "open primary");
  if (rt == nullptr) return;
  report->Check(options.retention.compaction_fanin == kFanin,
                "default compaction fan-in as documented");
  // Closes `rt` and reopens the directory, timed.
  uint64_t closed_compactions = 0;
  auto reopen = [&] {
    if (rt != nullptr) closed_compactions += rt->Stats().compaction_runs;
    rt.reset();
    const Clock::time_point t0 = Clock::now();
    const IoBytes io0 = ProcessIo();
    {
      auto span = tracer->Span("storage.recover");
      rt = OpenRuntime(world, options);
    }
    s->recovery_s.push_back(SecondsSince(t0));
    s->recovery_read_bytes.push_back(
        static_cast<double>(ProcessIo().read - io0.read));
    report->Check(rt != nullptr, "reopen");
  };

  // Build: chunks of kCheckpointEvery batches, each through WaitDurable,
  // then the chunk's checkpoint (seal, drop, compact). The chunks after
  // a reopen run on the reopened runtime, so their decisions check the
  // recovered state against the oracle.
  for (size_t c = 0; c < kBuildBatches / kCheckpointEvery; ++c) {
    const size_t first = c * kCheckpointEvery;
    const size_t last = first + kCheckpointEvery;
    const double chunk_s =
        IngestChunk(rt.get(), world, in.build, in.build_decisions, first, last,
                    4, &s->apply_ms, &s->wait_ms, tracer, report);
    const double chunk_events =
        static_cast<double>(kCheckpointEvery * kBatchEvents);
    s->chunk_eps.push_back(chunk_events / chunk_s);
    double checkpoint_s = 0;
    CheckpointAndCheck(rt.get(), world, dir, in.build[last - 1].back().time,
                       false, s, tracer, report, &checkpoint_s);
    s->sustained_eps.push_back(chunk_events / (chunk_s + checkpoint_s));
    if (c % kReopenEvery == 1) {
      reopen();
      if (rt == nullptr) return;
    }
    if (c % kReopenEvery == 3) probe->Round();
  }
  s->disk_per_event.push_back(
      static_cast<double>(DirBytes(dir)) /
      static_cast<double>(kBuildBatches * kBatchEvents));

  // Dirty rounds: a small batch, then a checkpoint that must persist it.
  for (size_t r = 0; r < kDirtyRounds; ++r) {
    Result<ltam::BatchResult> applied = [&] {
      auto span = tracer->Span("runtime.apply_batch");
      return rt->ApplyBatch(in.dirty[r]);
    }();
    report->Check(applied.ok() && applied->durability.ok(), "ApplyBatch");
    report->Check(SameDecisions(applied, in.dirty_decisions[r]),
                  "decisions match the oracle");
    CheckpointAndCheck(rt.get(), world, dir, in.dirty[r].back().time, true, s,
                       tracer, report, nullptr);
  }
  s->last_stats = rt->Stats();
  s->compaction_runs = closed_compactions + s->last_stats.compaction_runs;

  // Historical queries over the hot and cold tiers.
  std::vector<Result<QueryResult>> live;
  {
    std::unique_ptr<ltam::QueryInterpreter> q = MakeInterpreter(*rt);
    for (size_t i = 0; i < in.sweep.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      {
        auto span = tracer->Span("query.run");
        live.push_back(q->Run(in.sweep[i]));
      }
      const double dt = SecondsSince(t0);
      s->query_ms.push_back(dt * 1e3);
      s->query_kind_us[in.sweep_kind[i]].push_back(dt * 1e6);
      report->Check(live.back().ok(), "query");
      auto span = tracer->Span("bench.check");
      report->Check(SameAnswer(live.back(), in.reference[i]),
                    "answer matches the oracle: " + in.sweep[i]);
    }
  }

  // Recovery: close and reopen the directory; the reopened runtime must
  // answer like the live one did.
  for (int i = 0; i < kReopens; ++i) {
    s->recovery_bytes.push_back(static_cast<double>(DirBytes(dir)));
    reopen();
    if (rt == nullptr) continue;
    auto span = tracer->Span("bench.check");
    std::unique_ptr<ltam::QueryInterpreter> q = MakeInterpreter(*rt);
    for (size_t k = 0; k < in.sweep.size(); k += 5) {
      report->Check(SameAnswer(q->Run(in.sweep[k]), live[k]),
                    "reopened answer matches the live runtime");
    }
  }
}

int HistoryRetentionPhase(Context& ctx, EndToEnd* e2e) {
  ctx.runtime.reset();
  const World& world = ctx.world;
  Inputs inputs;
  {
    auto span = ctx.tracer.Span("bench.oracle");
    inputs = MakeInputs(world, ctx.args.schedule_seed);
  }
  Samples s;
  const int cycles_run = Cycles(ctx.args.seconds, kCycleSeconds);
  for (int c = 0; c < cycles_run; ++c) {
    RunCycle(world, inputs, ctx.args.workdir, ctx.metrics, ctx.probe.get(),
             &s, &ctx.tracer, &ctx.report);
  }

  e2e->ingest_p50_ms = Median(s.apply_ms);
  e2e->ingest_p99_ms = Quantile(s.apply_ms, 0.99);
  e2e->max_rate_eps = Median(s.sustained_eps);
  e2e->query_p50_ms = Median(s.query_ms);
  e2e->query_p99_ms = Quantile(s.query_ms, 0.99);
  e2e->ingest_eps = Median(s.chunk_eps);
  e2e->checkpoint_ms = Mean(s.checkpoint_ms);
  e2e->recovery_s = Mean(s.recovery_s);
  e2e->checkpoint_write_bytes = Mean(s.checkpoint_write_bytes);
  e2e->recovery_read_bytes = Mean(s.recovery_read_bytes);
  e2e->disk_bytes_per_event = Median(s.disk_per_event);

  Report& report = ctx.report;
  report.Metric("runtime.wait_durable_ms", Median(s.wait_ms), "ms");
  report.Metric("storage.checkpoint_bytes_written",
                Median(s.checkpoint_bytes), "B");
  report.Metric("storage.checkpoint_dirty_segments",
                Median(s.dirty_segs), "count");
  report.Metric("storage.base_snapshot_bytes", Median(s.base_bytes), "B");
  report.Metric("storage.recovery_bytes", Median(s.recovery_bytes), "B");
  report.Metric("retention.cold_bytes_end",
                static_cast<double>(s.last_stats.cold_bytes), "B");
  report.Metric("retention.dropped_events",
                static_cast<double>(s.last_stats.dropped_events), "count");
  report.Metric("retention.retained_span", s.retained_span, "chronon");
  report.Metric("retention.cold_segments_end",
                static_cast<double>(s.last_stats.cold_segments), "count");
  report.Metric("retention.compaction_runs",
                static_cast<double>(s.compaction_runs), "count");
  report.Metric("query.where_was_hot_p50_us", Median(s.query_kind_us[0]), "us");
  report.Metric("query.where_was_cold_p50_us",
                Median(s.query_kind_us[1]), "us");
  report.Metric("query.occupants_p50_us", Median(s.query_kind_us[2]), "us");
  report.Metric("query.contacts_p50_us", Median(s.query_kind_us[3]), "us");
  return 0;
}

}  // namespace

/// The stream covers kBuildBatches * kBatchEvents / 256 chronons (256
/// subjects act per chronon) plus the dirty rounds.
const Workload kHistoryRetention = {
    "history_retention",
    static_cast<Chronon>(kBuildBatches * kBatchEvents / 256) + 64,
    kProbeCatchup, &HistoryRetentionPhase};

}  // namespace perfbench

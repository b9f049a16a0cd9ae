// Copyright 2026 The LTAM Authors.
// replica_catchup: closed-loop ingest into a durable 2-shard primary
// with no checkpoint, so the whole history stays in the WAL tail; then
// fresh demoted replicas catch up by pulling ReadReplicationSlice
// chunks of 2048 records (the LogShipper default) and calling
// ApplyReplicated; then the primary is reopened several times, each
// reopen replaying its whole WAL tail. A probe round (a checkpoint, for
// checkpoint_mean_ms) follows every ingest chunk. No service call is
// made. A cycle starts from a fresh directory; a run makes a fixed
// number of whole cycles for --seconds.

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

using ltam::QueryResult;
using ltam::Result;

constexpr size_t kBatchEvents = 512;
constexpr size_t kBatches = 512;  // 262,144 events, 1024 chronons.
constexpr size_t kChunkBatches = 32;
constexpr size_t kShipChunk = 2048;
constexpr int kCatchups = 6;
constexpr int kReopens = 6;
/// Seconds of --seconds per cycle: a run makes seconds / kCycleSeconds
/// whole cycles (README "Workloads").
constexpr double kCycleSeconds = 10;

struct Inputs {
  std::vector<std::vector<AccessEvent>> batches;
  std::vector<std::vector<ltam::Decision>> decisions;
  std::vector<std::string> sweep;
  std::vector<Result<QueryResult>> reference;
  size_t events = 0;
};

Inputs MakeInputs(const World& world, uint64_t seed) {
  Inputs in;
  EventStream stream(&world, seed);
  Oracle oracle(world);
  for (size_t b = 0; b < kBatches; ++b) {
    in.batches.push_back(stream.Next(kBatchEvents));
    in.decisions.push_back(oracle.Apply(in.batches.back()));
    in.events += kBatchEvents;
  }
  ltam::Rng rng(seed * 40503 + 11);
  for (int i = 0; i < 200; ++i) {
    const std::string t = std::to_string(rng.UniformRange(1, stream.now()));
    in.sweep.push_back(
        i % 4 == 3
            ? "OCCUPANTS OF " +
                  world.RoomName(world.rooms[rng.Uniform(world.rooms.size())]) +
                  " AT " + t
            : "WHERE WAS " +
                  world.SubjectName(
                      world.subjects[rng.Uniform(world.subjects.size())]) +
                  " AT " + t);
    in.reference.push_back(oracle.Query(in.sweep.back()));
  }
  return in;
}

struct Samples {
  std::vector<double> apply_ms, chunk_eps, wait_ms, pair_eps;
  std::vector<double> catchup_s, read_ms, apply_chunk_ms, read_growth;
  std::vector<double> query_ms, recovery_s, disk_per_event;
  std::vector<double> catchup_read_bytes, recovery_read_bytes;
  uint64_t shipped = 0;
};

void RunCycle(const World& world, const Inputs& in, const std::string& workdir,
              ltam::MetricsRegistry* metrics, Probe* probe, Samples* s,
              Tracer* tracer, Report* report) {
  auto cycle_span = tracer->Span("bench.cycle");
  const std::string dir = NewDir(workdir, "primary");
  const ltam::RuntimeOptions options = DurableOptions(world, dir, metrics);
  std::unique_ptr<AccessRuntime> rt;
  {
    auto span = tracer->Span("runtime.open");
    rt = OpenRuntime(world, options);
  }
  report->Check(rt != nullptr, "open primary");
  if (rt == nullptr) return;
  double ingest_s = 0;
  for (size_t c = 0; c < kBatches / kChunkBatches; ++c) {
    const size_t first = c * kChunkBatches;
    const double chunk_s =
        IngestChunk(rt.get(), world, in.batches, in.decisions, first,
                    first + kChunkBatches, 8, &s->apply_ms, &s->wait_ms,
                    tracer, report);
    ingest_s += chunk_s;
    s->chunk_eps.push_back(static_cast<double>(kChunkBatches * kBatchEvents) /
                           chunk_s);
    probe->Round();
  }
  s->disk_per_event.push_back(static_cast<double>(DirBytes(dir)) /
                              static_cast<double>(in.events));

  std::vector<Result<QueryResult>> live;
  {
    auto span = tracer->Span("bench.check");
    live = RunSweep(*rt, in.sweep);
    for (size_t i = 0; i < live.size(); ++i) {
      report->Check(SameAnswer(live[i], in.reference[i]),
                    "primary answer matches the oracle");
    }
    report->Check(StaysOrdered(world, rt->movements(), nullptr),
                  "stays ordered and non-overlapping");
  }

  std::vector<double> cycle_catchups;
  for (int i = 0; i < kCatchups; ++i) {
    CatchupResult c =
        CatchUpReplica(world, rt.get(), workdir, kShipChunk, tracer, report);
    cycle_catchups.push_back(c.seconds);
    s->catchup_s.push_back(c.seconds);
    s->catchup_read_bytes.push_back(c.read_bytes);
    s->read_ms.insert(s->read_ms.end(), c.read_ms.begin(), c.read_ms.end());
    s->apply_chunk_ms.insert(s->apply_chunk_ms.end(), c.apply_ms.begin(),
                             c.apply_ms.end());
    s->read_growth.push_back(c.read_growth);
    s->shipped = c.records;
    report->Check(c.ok && c.records == in.events,
                  "every logged event shipped to the replica");
    if (c.replica == nullptr) continue;
    std::unique_ptr<ltam::QueryInterpreter> q = MakeInterpreter(*c.replica);
    for (size_t k = 0; k < in.sweep.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> answer = [&] {
        auto span = tracer->Span("query.run");
        return q->Run(in.sweep[k]);
      }();
      s->query_ms.push_back(SecondsSince(t0) * 1e3);
      report->Check(answer.ok(), "replica query");
      report->Check(SameAnswer(answer, live[k]),
                    "replica answer matches the primary");
    }
    q.reset();
  }
  // The highest rate a primary and a replica that keeps pace with it
  // sustain: the slower of ingest and catch-up sets it.
  s->pair_eps.push_back(static_cast<double>(in.events) /
                        std::max(ingest_s, Median(cycle_catchups)));

  rt.reset();
  for (int i = 0; i < kReopens; ++i) {
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
    if (rt == nullptr) continue;
    auto span = tracer->Span("bench.check");
    const auto answers = RunSweep(*rt, in.sweep);
    for (size_t k = 0; k < answers.size(); k += 2) {
      report->Check(SameAnswer(answers[k], live[k]),
                    "reopened answer matches the live primary");
    }
    rt.reset();
  }
}

int ReplicaCatchupPhase(Context& ctx, EndToEnd* e2e) {
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
  e2e->max_rate_eps = Median(s.pair_eps);
  e2e->query_p50_ms = Median(s.query_ms);
  e2e->query_p99_ms = Quantile(s.query_ms, 0.99);
  e2e->ingest_eps = Median(s.chunk_eps);
  e2e->recovery_s = Mean(s.recovery_s);
  e2e->catchup_s = Mean(s.catchup_s);
  e2e->catchup_read_bytes = Mean(s.catchup_read_bytes);
  e2e->recovery_read_bytes = Mean(s.recovery_read_bytes);
  e2e->disk_bytes_per_event = Median(s.disk_per_event);

  Report& report = ctx.report;
  report.Metric("runtime.wait_durable_ms", Median(s.wait_ms), "ms");
  // The runtime exposes no replay counter (its replication positions
  // read 0 after a reopen), so this is the WAL tail the benchmark wrote
  // since the last checkpoint: every ingested event of a cycle.
  report.Metric("storage.recovery_replayed_records",
                static_cast<double>(inputs.events), "count");
  report.Metric("replication.read_slice_p50_ms", Median(s.read_ms), "ms");
  report.Metric("replication.read_slice_growth",
                Median(s.read_growth), "ratio");
  report.Metric("replication.apply_chunk_p50_ms",
                Median(s.apply_chunk_ms), "ms");
  report.Metric("replication.records_shipped", static_cast<double>(s.shipped),
                "count");
  return 0;
}

}  // namespace

/// 256 subjects act per chronon.
const Workload kReplicaCatchup = {
    "replica_catchup", static_cast<Chronon>(kBatches * kBatchEvents / 256) + 64,
    kProbeCheckpoint, &ReplicaCatchupPhase};

}  // namespace perfbench

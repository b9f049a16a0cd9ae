// Copyright 2026 The LTAM Authors.
// wire_mixed: an in-process ServiceServer over a durable 2-shard
// runtime, driven open-loop by RunLoad on a seeded Poisson schedule —
// ingest frames on two ingest connections and point WHERE WAS queries
// on their own connections to the same server. Nine fixed-rate windows
// give the latency metrics; three climbs of a rate ladder, interleaved
// with them, give the knee. A probe round (a catch-up, a checkpoint and a
// reopen, for catchup_s, checkpoint_mean_ms and recovery_s) follows
// every window and every ladder rung, while the load is stopped; the
// served runtime gets no checkpoint or replication call after set-up.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "loadgen/loadgen.h"
#include "service/server.h"
#include "sim/workload.h"

namespace perfbench {

namespace {

/// Ingest connections: the coalescer merges at most one frame per
/// connection per round, so with one connection every frame pays a
/// whole round; two let it merge under load, as the server intends.
constexpr uint32_t kConnections = 2;
/// Events per frame: a gateway batch. At the fixed rate each generator
/// thread then idles between arrivals instead of spinning.
constexpr size_t kEventsPerFrame = 128;
constexpr double kFixedRate = 100000;
constexpr double kQueryFraction = 0.3;
/// The p99 limit the knee is judged against (README "Limits").
constexpr double kP99LimitMs = 20.0;
/// A rung keeps up when it delivers at least this share of its rate.
constexpr double kKeepUpShare = 0.9;
constexpr int kLadders = 3;
constexpr int kFixedWindows = 9;
/// Every ladder runs every rung, so each run ingests the same events.
const double kLadderRates[] = {100000, 200000, 300000, 400000};

/// Adds to `out` the samples each registry histogram gained between
/// `before` and `after`.
void AddDelta(const ltam::MetricsSnapshot& after,
              const ltam::MetricsSnapshot& before,
              std::map<std::string, ltam::LatencyHistogram>* out) {
  for (const auto& [name, hist] : after.histograms) {
    std::map<uint32_t, uint64_t> old;
    uint64_t old_sum = 0;
    for (const auto& [n, h] : before.histograms) {
      if (n != name) continue;
      for (const auto& [i, c] : h.NonZeroBuckets()) old[i] = c;
      old_sum = h.sum();
    }
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
    uint64_t count = 0;
    for (const auto& [i, c] : hist.NonZeroBuckets()) {
      if (c > old[i]) {
        buckets.push_back({i, c - old[i]});
        count += c - old[i];
      }
    }
    if (count == 0) continue;
    using ltam::LatencyHistogram;
    ltam::Result<LatencyHistogram> delta = LatencyHistogram::FromParts(
        count, hist.sum() - old_sum,
        LatencyHistogram::BucketLowerBound(buckets.front().first),
        LatencyHistogram::BucketUpperBound(buckets.back().first), buckets);
    if (delta.ok()) (*out)[name].Merge(*delta);
  }
}

struct Stage {
  bool ok = false;
  ltam::LoadReport load;
  size_t expected_grants = 0;
};

class WireMixed {
 public:
  WireMixed(const Args& args, World* world, EventStream* stream,
            Oracle* oracle, Probe* probe, Tracer* tracer, Report* report)
      : args_(args),
        world_(world),
        stream_(stream),
        oracle_(oracle),
        probe_(probe),
        tracer_(tracer),
        report_(report) {}

  /// One open-loop RunLoad call at `rate` for `seconds`, its events
  /// continuing the stream's clock, replayed through the oracle.
  Stage RunStage(uint16_t port, double rate, double seconds) {
    Stage stage;
    const size_t round = kConnections * kEventsPerFrame;
    const size_t total = std::max<size_t>(
        round, static_cast<size_t>(rate * seconds) / round * round);
    ltam::LoadScenario scenario;
    scenario.streams.assign(kConnections, {});
    // Subjects are split by index modulo the connection count, so a
    // merged server batch never reorders one subject's events.
    const std::vector<AccessEvent> events = stream_->Next(total);
    for (size_t at = 0; at < events.size(); at += round) {
      std::vector<std::vector<AccessEvent>> frames(kConnections);
      for (size_t i = at; i < at + round; ++i) {
        frames[events[i].subject % kConnections].push_back(events[i]);
      }
      for (uint32_t c = 0; c < kConnections; ++c) {
        scenario.streams[c].push_back(std::move(frames[c]));
      }
    }
    const uint64_t now = static_cast<uint64_t>(stream_->now());
    ltam::Rng rng(args_.schedule_seed * 1000003 + now);
    for (int i = 0; i < 512; ++i) {
      scenario.queries.push_back(
          "WHERE WAS " +
          world_->SubjectName(
              world_->subjects[rng.Uniform(world_->subjects.size())]) +
          " AT " + std::to_string(rng.UniformRange(1, stream_->now())));
    }
    scenario.query_fraction = kQueryFraction;
    scenario.total_events = events.size();

    const size_t grants_before = oracle_->grants();
    {
      auto span = tracer_->Span("bench.oracle");
      oracle_->Apply(events);
    }
    stage.expected_grants = oracle_->grants() - grants_before;

    ltam::LoadGenOptions lo;
    lo.port = port;
    lo.query_host = "127.0.0.1";
    lo.query_port = port;
    lo.rate = rate;
    lo.connections = kConnections;
    lo.max_in_flight = 64;
    lo.schedule_seed = args_.schedule_seed * 7919 + now;
    ltam::Result<ltam::LoadReport> load = [&] {
      auto span = tracer_->Span("service.run_load", tracer_->NextRequest());
      return ltam::RunLoad(scenario, lo);
    }();
    report_->Check(load.ok(), "RunLoad");
    if (!load.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", load.status().ToString().c_str());
      return stage;
    }
    stage.load = *load;
    stage.ok = true;
    std::fprintf(stderr,
                 "perfbench: stage rate=%.0f frames=%llu p50_ms=%.3f "
                 "p99_ms=%.3f achieved=%.0f late_sends=%llu lag_ms=%.3f\n",
                 rate,
                 static_cast<unsigned long long>(load->ingest_latency.count()),
                 static_cast<double>(load->ingest_latency.p50()) / 1e6,
                 static_cast<double>(load->ingest_latency.p99()) / 1e6,
                 load->achieved_event_rate,
                 static_cast<unsigned long long>(load->late_sends),
                 static_cast<double>(load->max_sched_lag_ns) / 1e6);
    report_->Check(load->quota_refused_frames == 0 &&
                       load->events_admitted == events.size(),
                   "every ingest frame admitted");
    report_->Check(load->grants == stage.expected_grants,
                   "wire grant total matches the oracle");
    return stage;
  }

  /// Runs the rate ladder, a probe round after each rung; returns the
  /// knee: the achieved rate of the last rung before the first one that
  /// misses the p99 limit or falls behind, interpolated on p99 towards
  /// that failing rung. When the first rung already fails, its achieved
  /// rate scaled by limit / p99.
  double Ladder(uint16_t port, double rung_seconds) {
    std::vector<Stage> rungs;
    for (double rate : kLadderRates) {
      rungs.push_back(RunStage(port, rate, rung_seconds));
      probe_->Round();
    }
    double pass_rate = 0, pass_p99 = 0;
    for (size_t i = 0; i < rungs.size(); ++i) {
      const ltam::LoadReport& r = rungs[i].load;
      const double rate = kLadderRates[i];
      const double p99 = static_cast<double>(r.ingest_latency.p99()) / 1e6;
      const bool keeps_up = r.achieved_event_rate >= kKeepUpShare * rate;
      if (rungs[i].ok && p99 <= kP99LimitMs && keeps_up) {
        pass_rate = r.achieved_event_rate;
        pass_p99 = p99;
        continue;
      }
      if (pass_rate == 0) {
        return r.achieved_event_rate *
               std::min(1.0, kP99LimitMs / std::max(p99, 1e-9));
      }
      if (!keeps_up || p99 <= pass_p99) return pass_rate;
      const double share = (kP99LimitMs - pass_p99) / (p99 - pass_p99);
      return pass_rate + (rate - pass_rate) * std::clamp(share, 0.0, 1.0);
    }
    return pass_rate;
  }

 private:
  const Args& args_;
  World* world_;
  EventStream* stream_;
  Oracle* oracle_;
  Probe* probe_;
  Tracer* tracer_;
  Report* report_;
};

int WireMixedPhase(Context& ctx, EndToEnd* e2e) {
  const Args& args = ctx.args;
  Tracer& tracer = ctx.tracer;
  Report& report = ctx.report;
  ltam::MetricsRegistry* metrics = ctx.metrics;
  World& world = ctx.world;
  EventStream stream(&world, args.schedule_seed ^ 0x5eed);
  Oracle oracle(world);
  AccessRuntime* rt = ctx.runtime.get();

  ltam::ServerOptions so;
  so.io_threads = 1;
  so.read_workers = 1;
  so.metrics = metrics;
  ltam::ServiceServer server(rt, so);
  {
    auto span = tracer.Span("service.start");
    if (!server.Start().ok()) {
      std::fprintf(stderr, "perfbench: server did not start\n");
      return 1;
    }
  }
  const uint16_t port = server.bound_port();

  WireMixed wm(args, &world, &stream, &oracle, ctx.probe.get(), &tracer,
               &report);
  std::vector<Stage> windows;
  std::vector<double> knees;
  // Server stage histograms of the fixed-rate windows only.
  std::map<std::string, ltam::LatencyHistogram> fixed_hist;
  // Warm-up: server buffers, caches and the first connections;
  // discarded.
  wm.RunStage(port, kFixedRate, 0.02 * args.seconds);
  // Fixed-rate windows alternate with ladder climbs, so a stretch of
  // host noise lands on few windows; each latency metric is the median
  // of the windows' values.
  for (int l = 0; l < kLadders; ++l) {
    for (int w = 0; w < kFixedWindows / kLadders; ++w) {
      const ltam::MetricsSnapshot before =
          metrics != nullptr ? metrics->Snapshot() : ltam::MetricsSnapshot();
      windows.push_back(wm.RunStage(port, kFixedRate, 0.03 * args.seconds));
      if (metrics != nullptr) {
        AddDelta(metrics->Snapshot(), before, &fixed_hist);
      }
      ctx.probe->Round();
    }
    knees.push_back(wm.Ladder(port, 0.015 * args.seconds));
  }
  const ltam::CoalescerStats coalescer = server.coalescer_stats();
  {
    auto span = tracer.Span("service.stop");
    server.Stop();
  }
  {
    auto span = tracer.Span("runtime.wait_durable");
    report.Check(rt->WaitDurable().ok(), "WaitDurable");
  }

  // With the server stopped the runtime is queried directly: its
  // history and answers must equal the oracle's.
  {
    auto span = tracer.Span("bench.check");
    const ltam::RuntimeStats stats = rt->Stats();
    report.Check(stats.events_applied == oracle.events(),
                 "events applied equal events sent");
    report.Check(StaysOrdered(world, rt->movements(), nullptr),
                 "stays ordered and non-overlapping");
    ltam::Rng rng(args.schedule_seed * 131 + 17);
    std::vector<std::string> sweep;
    for (int i = 0; i < 256; ++i) {
      sweep.push_back(
          "WHERE WAS " +
          world.SubjectName(
              world.subjects[rng.Uniform(world.subjects.size())]) +
          " AT " + std::to_string(rng.UniformRange(1, stream.now())));
    }
    const auto answers = RunSweep(*rt, sweep);
    for (size_t i = 0; i < sweep.size(); ++i) {
      report.Check(SameAnswer(answers[i], oracle.Query(sweep[i])),
                   "wire runtime answers match the oracle");
    }
  }

  const double ms = 1e-6;
  auto window_median = [&windows](auto&& value) {
    std::vector<double> v;
    for (const Stage& w : windows) {
      v.push_back(static_cast<double>(value(w.load)));
    }
    return Median(v);
  };
  using LR = ltam::LoadReport;
  const double ingest_p50_ms =
      window_median([](const LR& r) { return r.ingest_latency.p50(); }) * ms;
  e2e->ingest_p50_ms = ingest_p50_ms;
  e2e->ingest_p99_ms =
      window_median([](const LR& r) { return r.ingest_latency.p99(); }) * ms;
  e2e->max_rate_eps = Median(knees);
  e2e->query_p50_ms =
      window_median([](const LR& r) { return r.query_latency.p50(); }) * ms;
  // A window holds a few hundred queries, too few for a p99 of its own:
  // the query p99 pools every fixed-rate window.
  ltam::LatencyHistogram queries;
  for (const Stage& w : windows) queries.Merge(w.load.query_latency);
  e2e->query_p99_ms = static_cast<double>(queries.p99()) * ms;
  e2e->ingest_eps =
      window_median([](const LR& r) { return r.achieved_event_rate; });
  e2e->disk_bytes_per_event =
      static_cast<double>(DirBytes(ctx.dir)) /
      static_cast<double>(std::max<size_t>(1, oracle.events()));

  if (metrics != nullptr) {
    auto p50_us = [&fixed_hist](const char* name, double q = 0.5) {
      auto it = fixed_hist.find(name);
      if (it == fixed_hist.end() || it->second.count() == 0) return 0.0;
      return static_cast<double>(it->second.Quantile(q)) / 1e3;
    };
    report.Metric("service.queue_wait_p50_us",
                  p50_us("ingest.queue_wait"), "us");
    report.Metric("service.decode_p50_us", p50_us("ingest.decode"), "us");
    report.Metric("service.apply_p50_us", p50_us("ingest.apply"), "us");
    report.Metric("service.write_p50_us", p50_us("ingest.write"), "us");
    report.Metric("service.outside_p50_us",
                  ingest_p50_ms * 1e3 - p50_us("ingest.e2e"), "us");
    report.Metric("service.e2e_p99_us", p50_us("ingest.e2e", 0.99), "us");
    report.Metric("service.query_run_p50_us", p50_us("query.run"), "us");
  }
  report.Metric("service.frames_per_merge",
                coalescer.merged_batches == 0
                    ? 0.0
                    : static_cast<double>(coalescer.merged_frames) /
                          static_cast<double>(coalescer.merged_batches),
                "ratio");
  report.Metric(
      "loadgen.max_sched_lag_ms",
      window_median([](const LR& r) { return r.max_sched_lag_ns; }) * ms,
      "ms");
  report.Metric("loadgen.late_sends",
                window_median([](const LR& r) { return r.late_sends; }),
                "count");
  return 0;
}

}  // namespace

const Workload kWireMixed = {
    "wire_mixed", 16384, kProbeCatchup | kProbeCheckpoint | kProbeReopen,
    &WireMixedPhase};

}  // namespace perfbench

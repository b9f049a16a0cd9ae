// Copyright 2026 The LTAM Authors.
// ltam_perfbench: one run of one benchmark workload.
//
//   ltam_perfbench --workload=<wire_mixed|history_retention|replica_catchup>
//       --seed=N --seconds=S --trace=<0|1> --workdir=DIR
//       [--world-seed=N] [--schedule-seed=N]   (both default to --seed)
//
// Prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. With --trace=0 the
// metrics are the end-to-end ones; with --trace=1 the per-layer ones,
// from a run that records spans (written to DIR-traces/) and passes
// a MetricsRegistry to the runtime and server. perfbench/run.py builds
// this binary and is the command to use; see perfbench/README.md.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Every end-to-end metric, reported by every workload (README table).
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"checkpoint_write_bytes", "B"},
    {"recovery_read_bytes", "B"},
    {"catchup_read_bytes", "B"},
    {"disk_bytes_per_event", "B"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric; a workload that does not exercise a layer
/// reports it as 0. The operation times and the ingest and query figures
/// come first: they are measured like the end-to-end metrics but vary too
/// much between runs on a shared host to carry a bound (README
/// "Steadiness and bounds").
const MetricList kPerLayer = {
    {"checkpoint_mean_ms", "ms"},
    {"recovery_s", "s"},
    {"catchup_s", "s"},
    {"ingest_p50_ms", "ms"},
    {"ingest_p99_ms", "ms"},
    {"max_rate_eps", "ev/s"},
    {"ingest_eps", "ev/s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"service.queue_wait_p50_us", "us"},
    {"service.decode_p50_us", "us"},
    {"service.apply_p50_us", "us"},
    {"service.write_p50_us", "us"},
    {"service.outside_p50_us", "us"},
    {"service.e2e_p99_us", "us"},
    {"service.frames_per_merge", "ratio"},
    {"service.query_run_p50_us", "us"},
    {"loadgen.max_sched_lag_ms", "ms"},
    {"loadgen.late_sends", "count"},
    {"runtime.apply_batch_p50_ms", "ms"},
    {"runtime.wait_durable_ms", "ms"},
    {"storage.wal_sync_p50_us", "us"},
    {"storage.checkpoint_bytes_written", "B"},
    {"storage.checkpoint_dirty_segments", "count"},
    {"storage.base_snapshot_bytes", "B"},
    {"storage.recovery_bytes", "B"},
    {"storage.recovery_replayed_records", "count"},
    {"retention.cold_bytes_end", "B"},
    {"retention.dropped_events", "count"},
    {"retention.retained_span", "chronon"},
    {"retention.cold_segments_end", "count"},
    {"retention.compaction_runs", "count"},
    {"query.where_was_hot_p50_us", "us"},
    {"query.where_was_cold_p50_us", "us"},
    {"query.occupants_p50_us", "us"},
    {"query.contacts_p50_us", "us"},
    {"replication.read_slice_p50_ms", "ms"},
    {"replication.read_slice_growth", "ratio"},
    {"replication.apply_chunk_p50_ms", "ms"},
    {"replication.records_shipped", "count"},
    {"setup.world_s", "s"},
    {"setup.open_s", "s"},
    {"calls.checkpoint", "count"},
    {"calls.replication", "count"},
    {"calls.service", "count"},
    {"calls.apply_batch", "count"},
    {"self.bench_s", "s"},
    {"self.setup_s", "s"},
    {"self.runtime_s", "s"},
    {"self.storage_s", "s"},
    {"self.query_s", "s"},
    {"self.replication_s", "s"},
    {"self.service_s", "s"},
};

bool ParseFlag(const std::string& arg, const char* flag, std::string* value) {
  const std::string prefix = std::string("--") + flag + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const std::string& bad) {
  std::fprintf(stderr,
               "bad argument '%s'\nusage: ltam_perfbench "
               "--workload=wire_mixed|history_retention|replica_catchup "
               "--seed=N --seconds=S --trace=0|1 --workdir=DIR "
               "[--world-seed=N] [--schedule-seed=N]\n",
               bad.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT: one entry point.
  Args args;
  std::string world_seed, schedule_seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "workload", &v)) {
      args.workload = v;
    } else if (ParseFlag(arg, "seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "world-seed", &v)) {
      world_seed = v;
    } else if (ParseFlag(arg, "schedule-seed", &v)) {
      schedule_seed = v;
    } else if (ParseFlag(arg, "seconds", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &v)) {
      if (v != "0" && v != "1") return Usage(arg);
      args.trace = v == "1";
    } else if (ParseFlag(arg, "workdir", &v)) {
      args.workdir = v;
    } else {
      return Usage(arg);
    }
  }
  if (args.workdir.empty() || args.seconds <= 0) {
    return Usage("--workdir/--seconds");
  }
  args.world_seed = world_seed.empty()
                        ? args.seed
                        : std::strtoull(world_seed.c_str(), nullptr, 10);
  args.schedule_seed = schedule_seed.empty()
                           ? args.seed
                           : std::strtoull(schedule_seed.c_str(), nullptr, 10);
  ltam::SetLogLevel(ltam::LogLevel::kWarning);

  const Workload* workload = nullptr;
  for (const Workload* w : {&kWireMixed, &kHistoryRetention, &kReplicaCatchup}) {
    if (args.workload == w->name) workload = w;
  }
  if (workload == nullptr) return Usage("--workload=" + args.workload);

  Tracer tracer(args.trace);
  Report report;
  FreshDir(args.workdir);
  // Start from a quiet disk: writeback and discards left by whatever ran
  // before (a build, the previous run's deleted directories) would
  // otherwise land on this run's fsyncs.
  SyncFilesystem(args.workdir);
  int rc = 0;
  {
    auto span = tracer.Span("bench.run");
    rc = RunWorkload(args, *workload, tracer, report);
  }
  RemoveDir(args.workdir);
  SyncFilesystem(args.workdir + "/..");
  if (rc != 0) return rc;
  if (!args.trace) {
    std::printf("%s\n", report.ToJson(kEndToEnd).c_str());
    return 0;
  }
  ReportCallCounts(tracer, &report);
  ReportSelfTimes(tracer, &report);
  const std::string traces = args.workdir + "-traces";
  mkdir(traces.c_str(), 0755);
  tracer.Write(traces + "/" + args.workload + "-seed" +
               std::to_string(args.seed) + ".jsonl");
  // The end-to-end figures of the traced run, for the tracing-overhead
  // comparison (perfbench/steady.py --trace-overhead).
  std::fprintf(stderr, "perfbench: traced end-to-end %s\n",
               report.ToJson(kEndToEnd).c_str());
  std::printf("%s\n", report.ToJson(kPerLayer).c_str());
  return 0;
}

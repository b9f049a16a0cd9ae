// Copyright 2026 The LTAM Authors.
// Shared pieces of the LTAM runtime benchmark (perfbench/README.md):
// the generated world and event streams, the sequential oracle, the
// independent property checks, the in-memory span tracer, the metric
// report, and the probe rounds every workload interleaves with its own
// phase.
//
// The benchmark drives the program only through its public surface
// (AccessRuntime, QueryInterpreter, ServiceServer/ServiceClient,
// RunLoad); everything here either generates inputs or checks outputs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/access_control_engine.h"
#include "query/query_language.h"
#include "runtime/access_runtime.h"
#include "storage/snapshot.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace perfbench {

using ltam::AccessEvent;
using ltam::AccessRuntime;
using ltam::Chronon;
using ltam::LocationId;
using ltam::SubjectId;
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

/// Median / arbitrary quantile (nearest rank on a sorted copy); 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Arithmetic mean; 0 for an empty sample. The per-operation timing
/// metrics are means over operations spread across the run: on a shared
/// host the contention comes and goes in phases of seconds, so an
/// operation's times are bimodal and a median flips between the modes
/// from run to run, while the mean moves only with the contended share
/// (README "Steadiness and bounds").
double Mean(const std::vector<double>& values);

/// Whole cycles a run of `seconds` makes when one cycle takes about
/// `cycle_seconds`: fixed by the arguments, never by elapsed time, so
/// every run attempts the same operations (at least one cycle).
int Cycles(double seconds, double cycle_seconds);

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// The world (graph, subjects, authorizations) and the schedule
  /// (event streams, query sweeps, arrival times) have their own seeds;
  /// both default to `seed`.
  uint64_t world_seed = 1;
  uint64_t schedule_seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

// --- Metric report -----------------------------------------------------------

/// Operation accounting plus the metrics of one run. Every program call
/// the benchmark times and every correctness check counts as one
/// attempted operation.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One program call or correctness check; a failed one is counted and
  /// marks the run incorrect.
  void Check(bool ok, const std::string& what);
  /// The retention-horizon check of history_retention: it fails on the
  /// current code by a known fault (README "Known fault"), so a failure
  /// is counted in `failed` but does not mark the run incorrect.
  void KnownFaultCheck(bool ok);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Value of a reported metric (0 when it was not reported).
  double Value(const std::string& name) const;
  /// The final result line: {"correct","attempted","failed","metrics"}
  /// holding exactly the given (name, unit) metrics, in order; a metric
  /// the workload does not exercise is emitted as 0.
  std::string ToJson(
      const std::vector<std::pair<std::string, std::string>>& metrics) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// --- Span tracer -------------------------------------------------------------

/// In-memory spans around the benchmark's calls into each layer: name
/// ("<layer>.<call>"), start, end, parent and a request id shared by
/// the spans of one request. Disabled tracers record nothing. Spans are
/// opened and closed on the main thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  /// Opens a span closed when the returned scope ends.
  Scope Span(const char* name, uint64_t request = 0) {
    return Scope(this, name, request);
  }
  bool enabled() const { return enabled_; }
  /// A fresh request id.
  uint64_t NextRequest() { return ++last_request_; }

  /// Calls per span name, counting only spans that have an ancestor
  /// named `under` and no ancestor named `except` below it.
  std::map<std::string, uint64_t> CallCounts(const std::string& under,
                                             const std::string& except) const;
  /// Self time per layer (the part of "<layer>.*" spans not covered by
  /// their child spans), in seconds.
  std::map<std::string, double> LayerSelfSeconds() const;
  /// Writes every span as JSON lines; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    uint64_t request;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  uint64_t last_request_ = 0;
  int64_t open_ = -1;
  std::vector<Record> spans_;
  Clock::time_point epoch_ = Clock::now();
};

// --- World and inputs --------------------------------------------------------

/// One generated authorization, kept by the benchmark so the coverage
/// check scans its own inputs rather than the AuthorizationDatabase.
struct GeneratedAuth {
  SubjectId subject;
  LocationId location;
  Chronon entry_start;
  Chronon entry_end;
  ltam::AuthId id;
};

/// Sizes of a generated world.
struct WorldOptions {
  uint32_t buildings = 16;
  uint32_t rooms_per_building = 12;
  uint32_t subjects = 256;
  double coverage = 0.7;
  uint32_t auths_per_location = 2;
  /// Time range the event stream covers. The first authorization of a
  /// (subject, room) pair opens at 0 and lasts [1/4, 1] of `span`; the
  /// others start uniformly in [0, span) and last [1/4, 3/4] of it, so
  /// roughly half of all requests are granted across the whole range.
  Chronon span = 4096;
};

/// A campus world: graph, subjects u0..uN-1, authorizations.
struct World {
  ltam::SystemState state;
  std::vector<SubjectId> subjects;
  std::vector<LocationId> rooms;
  std::vector<GeneratedAuth> auths;
  /// auths indexed by subject * rooms + room index.
  std::vector<std::vector<size_t>> auths_by_pair;
  std::vector<uint32_t> room_index;  // LocationId -> index into rooms.
  ltam::EngineOptions engine;

  std::string SubjectName(SubjectId s) const;
  std::string RoomName(LocationId l) const;
};

World MakeWorld(const WorldOptions& options, uint64_t seed);

/// A deterministic event stream on a global clock: at each chronon a
/// fixed group of subjects emits one event each (entry, observation or
/// exit), so every subject's events are strictly increasing in time and
/// the time reached after N events does not depend on the seed.
class EventStream {
 public:
  /// `group` subjects (taken round-robin over the world's subjects) act
  /// at each chronon; 0 means all of them.
  EventStream(const World* world, uint64_t seed, uint32_t group = 0);
  /// The next `count` events, in time order.
  std::vector<AccessEvent> Next(size_t count);
  /// Last chronon handed out (0 before the first event).
  Chronon now() const { return now_; }

 private:
  const World* world_;
  ltam::Rng rng_;
  uint32_t group_;
  size_t cursor_ = 0;
  Chronon now_ = 0;
  std::vector<char> inside_;
};

// --- Oracle and checks -------------------------------------------------------

/// The sequential Figure-3 AccessControlEngine over private copies of
/// the world's stores: the reference every configuration must match.
class Oracle {
 public:
  explicit Oracle(const World& world);
  /// Applies events in order; returns their decisions.
  std::vector<ltam::Decision> Apply(const std::vector<AccessEvent>& events);
  /// Runs a query-language statement over the oracle's stores.
  ltam::Result<ltam::QueryResult> Query(const std::string& statement) const;
  size_t grants() const { return grants_; }
  size_t events() const { return events_; }

 private:
  ltam::SystemState state_;
  std::unique_ptr<ltam::AccessControlEngine> engine_;
  std::unique_ptr<ltam::QueryEngine> query_engine_;
  std::unique_ptr<ltam::QueryInterpreter> interpreter_;
  size_t grants_ = 0;
  size_t events_ = 0;
};

/// A query interpreter over a runtime's stores and movement view.
std::unique_ptr<ltam::QueryInterpreter> MakeInterpreter(
    const AccessRuntime& rt);

bool SameAnswer(const ltam::Result<ltam::QueryResult>& a,
                const ltam::Result<ltam::QueryResult>& b);

/// True when a batch applied and each decision (grant, authorization id,
/// deny reason) equals the oracle's.
bool SameDecisions(const ltam::Result<ltam::BatchResult>& r,
                   const std::vector<ltam::Decision>& expected);

/// Independent check: every granted entry in `events` is covered by a
/// generated authorization of the same subject and location, with the
/// decision's auth id, whose entry window holds the event time.
bool GrantsCovered(const World& world, const std::vector<AccessEvent>& events,
                   const std::vector<ltam::Decision>& decisions);

/// Independent check: each subject's stays are in time order, do not
/// overlap, and only the last one may be open. Also reports the oldest
/// completed stay's exit (kChrononMax when there is none).
bool StaysOrdered(const World& world, const ltam::MovementView& view,
                  Chronon* oldest_exit);

/// Answers of `statements` on `rt`.
std::vector<ltam::Result<ltam::QueryResult>> RunSweep(
    const AccessRuntime& rt, const std::vector<std::string>& statements);

// --- Runtime helpers ---------------------------------------------------------

/// Options every durable runtime of the benchmark uses: 2 shards,
/// kPipelined sync, quiet engine options of the world.
ltam::RuntimeOptions DurableOptions(const World& world, const std::string& dir,
                                    ltam::MetricsRegistry* metrics);

/// Opens a runtime over a copy of the world's stores; null (with the
/// error on standard error) when Open fails.
std::unique_ptr<AccessRuntime> OpenRuntime(const World& world,
                                           const ltam::RuntimeOptions& options);

/// Creates an empty directory (removing any previous one).
void FreshDir(const std::string& dir);
/// Creates a new, empty directory "<parent>/<stem>-<n>" with a fresh n.
/// Directories are only deleted when the run ends: deleting large files
/// mid-run issues discards that stall later fsyncs.
std::string NewDir(const std::string& parent, const char* stem);
void RemoveDir(const std::string& dir);
/// Flushes the filesystem holding `path` (syncfs), including the
/// discards of deleted files.
void SyncFilesystem(const std::string& path);
/// Name -> (inode, size) of the regular files in `dir`.
std::map<std::string, std::pair<uint64_t, uint64_t>> ListFiles(
    const std::string& dir);
/// Total bytes of the regular files in `dir`.
uint64_t DirBytes(const std::string& dir);
/// Peak resident set size of this process, MB.
double PeakRssMb();
/// Bytes this process has passed through read and write system calls so
/// far (rchar and wchar of /proc/self/io), page-cache hits included: the
/// I/O an operation asks of the storage layer, which repeats exactly for
/// the same inputs whatever the host's speed.
struct IoBytes {
  uint64_t read = 0;
  uint64_t written = 0;
};
IoBytes ProcessIo();

/// Closed-loop ingest of batches [first, last) followed by WaitDurable.
/// Each batch is one timed ApplyBatch checked against the oracle's
/// decisions; every `cover_every`-th batch also gets the grant-coverage
/// check. Appends each ApplyBatch time to `apply_ms` and the WaitDurable
/// time to `wait_ms` (either may be null); returns the chunk's seconds.
double IngestChunk(AccessRuntime* rt, const World& world,
                   const std::vector<std::vector<AccessEvent>>& batches,
                   const std::vector<std::vector<ltam::Decision>>& decisions,
                   size_t first, size_t last, size_t cover_every,
                   std::vector<double>* apply_ms, std::vector<double>* wait_ms,
                   Tracer* tracer, Report* report);

/// Checks a sweep of `answers` against `reference`, one check each.
void CheckSweep(const std::vector<ltam::Result<ltam::QueryResult>>& answers,
                const std::vector<ltam::Result<ltam::QueryResult>>& reference,
                const char* what, Report* report);

/// One replica catch-up: a fresh demoted replica (in a new directory
/// under `workdir`) pulls every durable record of `primary` in
/// ReadReplicationSlice chunks of `chunk` records and applies them with
/// ApplyReplicated, then WaitDurable.
struct CatchupResult {
  bool ok = false;
  double seconds = 0;
  uint64_t records = 0;
  std::vector<double> read_ms;   // Per slice.
  std::vector<double> apply_ms;  // Per chunk.
  double read_growth = 0;        // Max over shards: last read / first.
  double read_bytes = 0;         // Bytes read while catching up.
  std::unique_ptr<AccessRuntime> replica;
};
CatchupResult CatchUpReplica(const World& world, AccessRuntime* primary,
                             const std::string& workdir, size_t chunk,
                             Tracer* tracer, Report* report);

// --- The common frame of every workload --------------------------------------

/// The figures every workload reports from its own phase (README
/// "End-to-end metrics" and the ingest and query rows of "Per-layer
/// metrics"). The probe rounds give the checkpoint, recovery and
/// catch-up figures where the workload names them in `probe_ops`. Each
/// is a mean per operation.
struct EndToEnd {
  double ingest_p50_ms = 0;
  double ingest_p99_ms = 0;
  double max_rate_eps = 0;
  double query_p50_ms = 0;
  double query_p99_ms = 0;
  double ingest_eps = 0;
  double disk_bytes_per_event = 0;
  double checkpoint_ms = 0;
  double recovery_s = 0;
  double catchup_s = 0;
  double checkpoint_write_bytes = 0;
  double recovery_read_bytes = 0;
  double catchup_read_bytes = 0;
};

struct Context;

/// The operations a probe round times (a bit set).
enum ProbeOp : unsigned {
  kProbeCatchup = 1,
  kProbeCheckpoint = 2,
  kProbeReopen = 4,
};

/// The probe: small durable runtimes of its own, each holding the same
/// 24k-event history (from the probe's own stream, checked against its
/// own oracle), on which a workload times the end-to-end operations its
/// phase does not, in rounds spread over the phase, so each figure
/// samples the whole run. Replicas catch up from the source runtime,
/// which keeps its whole history in the WAL; the other runtime is
/// checkpointed and reopened.
class Probe {
 public:
  /// Opens the runtimes `ops` needs in new directories and ingests the
  /// history into each.
  Probe(Context* ctx, unsigned ops);
  bool ok() const { return ok_; }
  /// One round, in a "bench.probe" span, of the operations in `ops`, in
  /// this order: a fresh replica catches up from the source (one slice
  /// per shard) and answers the probe's sweep; the other runtime is
  /// checkpointed; it is closed, reopened and answers the sweep.
  void Round();

  std::vector<double> catchup_s, checkpoint_ms, recovery_s;
  std::vector<double> catchup_read_bytes, checkpoint_write_bytes,
      recovery_read_bytes;

 private:
  Context* ctx_;
  unsigned ops_;
  bool ok_ = false;
  std::string dir_;
  std::unique_ptr<AccessRuntime> source_;
  std::unique_ptr<AccessRuntime> runtime_;
  std::vector<std::string> sweep_;
  std::vector<ltam::Result<ltam::QueryResult>> reference_;
};

/// What a workload's own phase runs on: the world, the set-up directory
/// and its empty runtime, the probe, the registry of a traced run (null
/// otherwise), the tracer and the report. `world` keeps its address: the
/// probe points into it.
struct Context {
  Context(const Args& args, Tracer& tracer, Report& report,
          ltam::MetricsRegistry* metrics);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  const Args& args;
  Tracer& tracer;
  Report& report;
  ltam::MetricsRegistry* metrics;
  World world;
  std::string dir;
  std::unique_ptr<AccessRuntime> runtime;
  std::unique_ptr<Probe> probe;
};

/// A workload: its name, the authorization span of its world (fitted to
/// the time its event stream covers), the probe operations that give the
/// end-to-end figures its phase does not measure, and its own phase,
/// which fills the rest of `e2e`, calls `ctx.probe->Round()` at fixed
/// points spread over its length, reports its per-layer metrics and
/// returns nonzero when it could not run at all.
struct Workload {
  const char* name;
  Chronon span;
  unsigned probe_ops;
  int (*phase)(Context& ctx, EndToEnd* e2e);
};
extern const Workload kWireMixed;
extern const Workload kHistoryRetention;
extern const Workload kReplicaCatchup;

/// Runs one workload: set-up (world + Open of a fresh directory,
/// repeated), the probe's set-up, then the workload's phase inside the
/// "bench.main" span; reports every end-to-end metric and the shared
/// per-layer ones.
int RunWorkload(const Args& args, const Workload& workload, Tracer& tracer,
                Report& report);

/// Per-layer call counts of the main phase (spans under "bench.main",
/// leaving out the probe rounds), so the workload split is visible:
/// checkpoint, replication and service calls the phase makes on its own
/// runtimes.
void ReportCallCounts(const Tracer& tracer, Report* report);

/// Reports the layer self times derived from the spans.
void ReportSelfTimes(const Tracer& tracer, Report* report);

/// Quantile of a registry histogram in microseconds (0 when absent).
double HistUs(const ltam::MetricsRegistry& metrics, const char* name,
              double q = 0.5);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

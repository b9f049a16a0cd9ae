// Copyright 2026 The LTAM Authors.

#include "bench.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "engine/sharded_engine.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "util/logging.h"

namespace perfbench {

using ltam::Decision;
using ltam::QueryResult;
using ltam::Result;
using ltam::Status;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int Cycles(double seconds, double cycle_seconds) {
  return std::max(1, static_cast<int>(seconds / cycle_seconds + 0.5));
}

// --- Report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
}

void Report::KnownFaultCheck(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

double Report::Value(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

std::string Report::ToJson(
    const std::vector<std::pair<std::string, std::string>>& metrics) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = Value(metrics[i].first);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics[i].second << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- Tracer ------------------------------------------------------------------

namespace {
int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, request, tracer_->open_,
                             NanosBetween(tracer_->epoch_, Clock::now()), 0});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Record& r = tracer_->spans_[static_cast<size_t>(index_)];
  r.end_ns = NanosBetween(tracer_->epoch_, Clock::now());
  tracer_->open_ = r.parent;
}

std::map<std::string, uint64_t> Tracer::CallCounts(
    const std::string& under, const std::string& except) const {
  std::map<std::string, uint64_t> out;
  for (const Record& r : spans_) {
    for (int64_t p = r.parent; p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      const char* name = spans_[static_cast<size_t>(p)].name;
      if (except == name) break;
      if (under == name) {
        ++out[r.name];
        break;
      }
    }
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t self_ns = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out[layer] += static_cast<double>(self_ns) / 1e9;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"request\": %" PRIu64
                 ", \"parent\": %" PRId64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 r.name, r.request, r.parent, r.start_ns, r.end_ns);
  }
  return std::fclose(f) == 0;
}

// --- World -------------------------------------------------------------------

std::string World::SubjectName(SubjectId s) const {
  return "u" + std::to_string(s);
}

std::string World::RoomName(LocationId l) const {
  return state.graph.location(l).name;
}

World MakeWorld(const WorldOptions& options, uint64_t seed) {
  World w;
  w.state.graph =
      ltam::MakeCampusGraph(options.buildings, options.rooms_per_building)
          .ValueOrDie();
  w.subjects = ltam::GenerateSubjects(&w.state.profiles, options.subjects);
  w.rooms = w.state.graph.Primitives();
  w.room_index.assign(w.state.graph.size(), UINT32_MAX);
  for (size_t i = 0; i < w.rooms.size(); ++i) {
    w.room_index[w.rooms[i]] = static_cast<uint32_t>(i);
  }
  // Subject names are "u<i>" with ids 0..N-1 (GenerateSubjects), which
  // the query statements rely on.
  for (size_t i = 0; i < w.subjects.size(); ++i) {
    LTAM_CHECK(w.subjects[i] == i) << "subject ids must be dense";
  }
  w.auths_by_pair.assign(w.subjects.size() * w.rooms.size(), {});
  ltam::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const Chronon span = options.span;
  for (SubjectId s : w.subjects) {
    for (size_t li = 0; li < w.rooms.size(); ++li) {
      if (!rng.Bernoulli(options.coverage)) continue;
      for (uint32_t k = 0; k < options.auths_per_location; ++k) {
        Chronon start = 0;
        Chronon len = 0;
        if (k == 0) {
          len = rng.UniformRange(span / 4, span);
        } else {
          start = rng.UniformRange(0, span - 1);
          len = rng.UniformRange(span / 4, 3 * span / 4);
        }
        const ltam::TimeInterval entry(start, start + len);
        const ltam::TimeInterval exit(start, start + len + span / 8);
        auto auth = ltam::LocationTemporalAuthorization::Make(
            entry, exit, ltam::LocationAuthorization{s, w.rooms[li]},
            ltam::kUnlimitedEntries);
        LTAM_CHECK(auth.ok()) << auth.status().ToString();
        const ltam::AuthId id = w.state.auth_db.Add(*auth);
        w.auths_by_pair[s * w.rooms.size() + li].push_back(w.auths.size());
        w.auths.push_back({s, w.rooms[li], start, start + len, id});
      }
    }
  }
  // The streams are random room visits, not adjacency-aware walks, and
  // per-denial alerts would measure the alert path instead of the
  // decision path (the load-scenario convention, sim/workload.h).
  w.engine.enforce_adjacency = false;
  w.engine.alert_on_denial = false;
  return w;
}

EventStream::EventStream(const World* world, uint64_t seed, uint32_t group)
    : world_(world),
      rng_(seed * 0xbf58476d1ce4e5b9ull + 7),
      group_(group == 0 ? static_cast<uint32_t>(world->subjects.size())
                        : group),
      inside_(world->subjects.size(), 0) {}

std::vector<AccessEvent> EventStream::Next(size_t count) {
  std::vector<AccessEvent> out;
  out.reserve(count);
  const size_t n = world_->subjects.size();
  for (size_t i = 0; i < count; ++i) {
    if (cursor_ % group_ == 0) ++now_;
    const size_t si = cursor_ % n;
    ++cursor_;
    const SubjectId s = world_->subjects[si];
    if (inside_[si] && rng_.Bernoulli(0.15)) {
      out.push_back(AccessEvent::Exit(now_, s));
      inside_[si] = 0;
      continue;
    }
    const LocationId l = world_->rooms[rng_.Uniform(world_->rooms.size())];
    out.push_back(rng_.Bernoulli(0.1) ? AccessEvent::Observe(now_, s, l)
                                      : AccessEvent::Entry(now_, s, l));
    inside_[si] = 1;
  }
  return out;
}

// --- Oracle and checks -------------------------------------------------------

Oracle::Oracle(const World& world) {
  state_.graph = world.state.graph;
  state_.profiles = world.state.profiles;
  state_.auth_db = world.state.auth_db;
  engine_ = std::make_unique<ltam::AccessControlEngine>(
      &state_.graph, &state_.auth_db, &state_.movements, &state_.profiles,
      world.engine);
  query_engine_ = std::make_unique<ltam::QueryEngine>(
      &state_.graph, &state_.auth_db, &state_.movements, &state_.profiles);
  interpreter_ = std::make_unique<ltam::QueryInterpreter>(
      query_engine_.get(), &state_.graph, &state_.profiles, &state_.movements,
      &state_.auth_db);
}

std::vector<Decision> Oracle::Apply(const std::vector<AccessEvent>& events) {
  std::vector<Decision> out;
  out.reserve(events.size());
  for (const AccessEvent& e : events) {
    out.push_back(ltam::ApplyAccessEvent(engine_.get(), e));
    if (out.back().granted) ++grants_;
  }
  events_ += events.size();
  return out;
}

Result<QueryResult> Oracle::Query(const std::string& statement) const {
  return interpreter_->Run(statement);
}

std::unique_ptr<ltam::QueryInterpreter> MakeInterpreter(
    const AccessRuntime& rt) {
  return std::make_unique<ltam::QueryInterpreter>(
      &rt.query(), &rt.graph(), &rt.profiles(), &rt.movements(),
      &rt.auth_db());
}

bool SameAnswer(const Result<QueryResult>& a, const Result<QueryResult>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().ToString() == b.status().ToString();
  return a->columns == b->columns && a->rows == b->rows;
}

bool SameDecisions(const Result<ltam::BatchResult>& r,
                   const std::vector<Decision>& expected) {
  if (!r.ok() || r->decisions.size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Decision& a = r->decisions[i];
    const Decision& b = expected[i];
    if (a.granted != b.granted || a.auth != b.auth || a.reason != b.reason) {
      return false;
    }
  }
  return true;
}

bool GrantsCovered(const World& world, const std::vector<AccessEvent>& events,
                   const std::vector<Decision>& decisions) {
  if (events.size() != decisions.size()) return false;
  for (size_t i = 0; i < events.size(); ++i) {
    const AccessEvent& e = events[i];
    if (e.kind != ltam::AccessEventKind::kRequestEntry ||
        !decisions[i].granted) {
      continue;
    }
    const uint32_t li = world.room_index[e.location];
    bool covered = false;
    for (size_t ai : world.auths_by_pair[e.subject * world.rooms.size() + li]) {
      const GeneratedAuth& a = world.auths[ai];
      if (a.id == decisions[i].auth && a.entry_start <= e.time &&
          e.time <= a.entry_end) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

bool StaysOrdered(const World& world, const ltam::MovementView& view,
                  Chronon* oldest_exit) {
  Chronon oldest = ltam::kChrononMax;
  for (SubjectId s : world.subjects) {
    const std::vector<ltam::Stay> stays = view.StaysOf(s);
    for (size_t i = 0; i < stays.size(); ++i) {
      const ltam::Stay& st = stays[i];
      if (st.subject != s || st.enter_time > st.exit_time) return false;
      const bool open = st.exit_time == ltam::kChrononMax;
      if (open && i + 1 != stays.size()) return false;
      if (i + 1 < stays.size() && stays[i + 1].enter_time < st.exit_time) {
        return false;
      }
      if (!open) oldest = std::min(oldest, st.exit_time);
    }
  }
  if (oldest_exit != nullptr) *oldest_exit = oldest;
  return true;
}

// --- Runtime helpers ---------------------------------------------------------

ltam::RuntimeOptions DurableOptions(const World& world, const std::string& dir,
                                    ltam::MetricsRegistry* metrics) {
  ltam::RuntimeOptions o;
  o.num_shards = 2;
  o.durable_dir = dir;
  o.engine = world.engine;
  o.durability.mode = ltam::SyncMode::kPipelined;
  o.metrics = metrics;
  return o;
}

std::unique_ptr<AccessRuntime> OpenRuntime(
    const World& world, const ltam::RuntimeOptions& options) {
  ltam::SystemState initial;
  initial.graph = world.state.graph;
  initial.profiles = world.state.profiles;
  initial.auth_db = world.state.auth_db;
  Result<std::unique_ptr<AccessRuntime>> rt =
      AccessRuntime::Open(std::move(initial), options);
  if (!rt.ok()) {
    std::fprintf(stderr, "perfbench: cannot open runtime: %s\n",
                 rt.status().ToString().c_str());
    return nullptr;
  }
  return std::move(rt).ValueOrDie();
}

void RemoveDir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveDir(path);
    } else {
      std::remove(path.c_str());
    }
  }
  closedir(d);
  rmdir(dir.c_str());
}

void FreshDir(const std::string& dir) {
  RemoveDir(dir);
  if (mkdir(dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    std::exit(1);
  }
}

std::string NewDir(const std::string& parent, const char* stem) {
  static int next = 0;
  const std::string dir = parent + "/" + stem + "-" + std::to_string(next++);
  FreshDir(dir);
  return dir;
}

void SyncFilesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

std::map<std::string, std::pair<uint64_t, uint64_t>> ListFiles(
    const std::string& dir) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    struct stat st;
    const std::string name = e->d_name;
    if (lstat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      out[name] = {static_cast<uint64_t>(st.st_ino),
                   static_cast<uint64_t>(st.st_size)};
    }
  }
  closedir(d);
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& [name, info] : ListFiles(dir)) total += info.second;
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

IoBytes ProcessIo() {
  std::ifstream io("/proc/self/io");
  IoBytes out;
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") out.read = value;
    if (key == "wchar:") out.written = value;
  }
  return out;
}

std::vector<Result<QueryResult>> RunSweep(
    const AccessRuntime& rt, const std::vector<std::string>& statements) {
  std::unique_ptr<ltam::QueryInterpreter> q = MakeInterpreter(rt);
  std::vector<Result<QueryResult>> out;
  out.reserve(statements.size());
  for (const std::string& s : statements) out.push_back(q->Run(s));
  return out;
}

void CheckSweep(const std::vector<Result<QueryResult>>& answers,
                const std::vector<Result<QueryResult>>& reference,
                const char* what, Report* report) {
  report->Check(answers.size() == reference.size(), what);
  for (size_t i = 0; i < answers.size() && i < reference.size(); ++i) {
    report->Check(answers[i].ok() && SameAnswer(answers[i], reference[i]),
                  std::string(what) + " #" + std::to_string(i));
  }
}

double IngestChunk(AccessRuntime* rt, const World& world,
                   const std::vector<std::vector<AccessEvent>>& batches,
                   const std::vector<std::vector<Decision>>& decisions,
                   size_t first, size_t last, size_t cover_every,
                   std::vector<double>* apply_ms, std::vector<double>* wait_ms,
                   Tracer* tracer, Report* report) {
  double seconds = 0;
  for (size_t b = first; b < last; ++b) {
    const Clock::time_point t0 = Clock::now();
    Result<ltam::BatchResult> r = [&] {
      auto span = tracer->Span("runtime.apply_batch");
      return rt->ApplyBatch(batches[b]);
    }();
    const double dt = SecondsSince(t0);
    seconds += dt;
    if (apply_ms != nullptr) apply_ms->push_back(dt * 1e3);
    report->Check(r.ok() && r->durability.ok(), "ApplyBatch");
    report->Check(SameDecisions(r, decisions[b]), "decisions match the oracle");
    if ((b - first) % cover_every == 0) {
      report->Check(r.ok() && GrantsCovered(world, batches[b], r->decisions),
                    "grants covered by generated authorizations");
    }
  }
  const Clock::time_point w0 = Clock::now();
  const bool durable = [&] {
    auto span = tracer->Span("runtime.wait_durable");
    return rt->WaitDurable().ok();
  }();
  const double wait_s = SecondsSince(w0);
  report->Check(durable, "WaitDurable");
  if (wait_ms != nullptr) wait_ms->push_back(wait_s * 1e3);
  return seconds + wait_s;
}

CatchupResult CatchUpReplica(const World& world, AccessRuntime* primary,
                             const std::string& workdir, size_t chunk,
                             Tracer* tracer, Report* report) {
  CatchupResult out;
  const std::string replica_dir = NewDir(workdir, "replica");
  out.replica = OpenRuntime(world, DurableOptions(world, replica_dir, nullptr));
  report->Check(out.replica != nullptr, "open replica");
  if (out.replica == nullptr) return out;
  {
    auto span = tracer->Span("replication.demote");
    report->Check(out.replica->DemoteToReplica().ok(), "DemoteToReplica");
  }
  Result<std::vector<uint64_t>> target = primary->ReplicationPositions();
  report->Check(target.ok(), "primary ReplicationPositions");
  if (!target.ok()) return out;
  bool ok = true;
  const Clock::time_point start = Clock::now();
  const IoBytes io_start = ProcessIo();
  for (uint32_t k = 0; k < target->size() && ok; ++k) {
    uint64_t from = 0;
    std::vector<double> shard_reads;
    while (from < (*target)[k]) {
      const uint64_t request = tracer->NextRequest();
      const Clock::time_point r0 = Clock::now();
      Result<AccessRuntime::ReplicationSlice> slice = [&] {
        auto span = tracer->Span("replication.read_slice", request);
        return primary->ReadReplicationSlice(k, from, chunk);
      }();
      shard_reads.push_back(SecondsSince(r0) * 1e3);
      report->Check(slice.ok() && !slice->records.empty(),
                    "ReadReplicationSlice");
      if (!slice.ok() || slice->records.empty()) {
        ok = false;
        break;
      }
      const Clock::time_point a0 = Clock::now();
      Result<AccessRuntime::ReplicationApplyResult> applied = [&] {
        auto span = tracer->Span("replication.apply_chunk", request);
        return out.replica->ApplyReplicated(k, from, slice->records);
      }();
      out.apply_ms.push_back(SecondsSince(a0) * 1e3);
      report->Check(applied.ok() && applied->position == slice->next,
                    "ApplyReplicated");
      if (!applied.ok()) {
        ok = false;
        break;
      }
      out.records += slice->records.size();
      from = slice->next;
    }
    if (!shard_reads.empty() && shard_reads.front() > 0) {
      out.read_growth =
          std::max(out.read_growth, shard_reads.back() / shard_reads.front());
    }
    out.read_ms.insert(out.read_ms.end(), shard_reads.begin(),
                       shard_reads.end());
  }
  {
    auto span = tracer->Span("runtime.wait_durable");
    const bool durable = out.replica->WaitDurable().ok();
    report->Check(durable, "replica WaitDurable");
    ok = ok && durable;
  }
  out.seconds = SecondsSince(start);
  out.read_bytes =
      static_cast<double>(ProcessIo().read - io_start.read);
  out.ok = ok;
  return out;
}

namespace {

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 15;
/// The probe's history (batches of 512 events) and the slice size its
/// catch-ups read: one slice holds a shard's whole history.
constexpr int kProbeBatches = 48;
constexpr size_t kProbeSlice = 16384;

}  // namespace

Probe::Probe(Context* ctx, unsigned ops) : ctx_(ctx), ops_(ops) {
  const World& world = ctx->world;
  Tracer* tracer = &ctx->tracer;
  Report* report = &ctx->report;
  // A short history: 48 batches of 512 events, about 12k records per
  // shard. Each catch-up ships it in one slice per shard, so the figure
  // has no rescan cost (ROADMAP item 5 shows in replica_catchup only),
  // and is long enough that the replica's final fsync is a small share
  // of it.
  EventStream stream(&world, ctx->args.schedule_seed ^ 0x9b0be);
  Oracle oracle(world);
  std::vector<std::vector<AccessEvent>> batches;
  std::vector<std::vector<Decision>> decisions;
  for (int b = 0; b < kProbeBatches; ++b) {
    batches.push_back(stream.Next(512));
    decisions.push_back(oracle.Apply(batches.back()));
  }
  const Chronon now = stream.now();
  ltam::Rng rng(now * 31 + 5);
  auto at = [&] { return std::to_string(rng.UniformRange(1, now)); };
  for (int i = 0; i < 48; ++i) {
    const SubjectId s = world.subjects[rng.Uniform(world.subjects.size())];
    sweep_.push_back("WHERE WAS " + world.SubjectName(s) + " AT " + at());
  }
  for (int i = 0; i < 8; ++i) {
    const LocationId l = world.rooms[rng.Uniform(world.rooms.size())];
    sweep_.push_back("OCCUPANTS OF " + world.RoomName(l) + " AT " + at());
  }
  for (const std::string& s : sweep_) reference_.push_back(oracle.Query(s));

  // Opens a runtime in a new directory, ingests the history and checks
  // its answers; null when it cannot be opened.
  auto open = [&](const char* stem, std::string* dir) {
    *dir = NewDir(ctx->args.workdir, stem);
    std::unique_ptr<AccessRuntime> rt =
        OpenRuntime(world, DurableOptions(world, *dir, nullptr));
    report->Check(rt != nullptr, std::string("open probe ") + stem);
    if (rt == nullptr) return rt;
    IngestChunk(rt.get(), world, batches, decisions, 0, batches.size(), 1,
                nullptr, nullptr, tracer, report);
    CheckSweep(RunSweep(*rt, sweep_), reference_, "probe vs oracle", report);
    return rt;
  };
  ok_ = true;
  if (ops_ & kProbeCatchup) {
    std::string source_dir;
    source_ = open("source", &source_dir);
    ok_ = ok_ && source_ != nullptr;
  }
  if (ops_ & (kProbeCheckpoint | kProbeReopen)) {
    runtime_ = open("probe", &dir_);
    ok_ = ok_ && runtime_ != nullptr;
  }
}

void Probe::Round() {
  if (!ok_) return;
  const World& world = ctx_->world;
  Tracer* tracer = &ctx_->tracer;
  Report* report = &ctx_->report;
  auto round_span = tracer->Span("bench.probe");
  if (ops_ & kProbeCatchup) {
    CatchupResult c = CatchUpReplica(world, source_.get(), ctx_->args.workdir,
                                     kProbeSlice, tracer, report);
    catchup_s.push_back(c.seconds);
    catchup_read_bytes.push_back(c.read_bytes);
    if (c.replica != nullptr) {
      CheckSweep(RunSweep(*c.replica, sweep_), reference_,
                 "probe replica vs oracle", report);
    }
  }
  if (runtime_ == nullptr) return;
  if (ops_ & kProbeCheckpoint) {
    const Clock::time_point t0 = Clock::now();
    const IoBytes io0 = ProcessIo();
    const Status st = [&] {
      auto span = tracer->Span("storage.checkpoint");
      return runtime_->Checkpoint();
    }();
    checkpoint_ms.push_back(SecondsSince(t0) * 1e3);
    checkpoint_write_bytes.push_back(
        static_cast<double>(ProcessIo().written - io0.written));
    report->Check(st.ok(), "probe Checkpoint");
  }
  if (ops_ & kProbeReopen) {
    runtime_.reset();
    const Clock::time_point t0 = Clock::now();
    const IoBytes io0 = ProcessIo();
    {
      auto span = tracer->Span("storage.recover");
      runtime_ = OpenRuntime(world, DurableOptions(world, dir_, nullptr));
    }
    recovery_s.push_back(SecondsSince(t0));
    recovery_read_bytes.push_back(
        static_cast<double>(ProcessIo().read - io0.read));
    report->Check(runtime_ != nullptr, "probe reopen");
    if (runtime_ != nullptr) {
      CheckSweep(RunSweep(*runtime_, sweep_), reference_,
                 "probe reopened vs oracle", report);
    }
  }
}

Context::Context(const Args& a, Tracer& t, Report& r,
                 ltam::MetricsRegistry* m)
    : args(a), tracer(t), report(r), metrics(m) {}

int RunWorkload(const Args& args, const Workload& workload, Tracer& tracer,
                Report& report) {
  std::unique_ptr<ltam::MetricsRegistry> metrics;
  if (args.trace) metrics = std::make_unique<ltam::MetricsRegistry>();
  Context ctx(args, tracer, report, metrics.get());

  // Set-up, repeated: world generation + Open of a fresh durable
  // directory. The last repetition's world and runtime are kept.
  WorldOptions world_options;
  world_options.span = workload.span;
  std::vector<double> setup_s, world_s, open_s;
  for (int r = 0; r < kSetups; ++r) {
    ctx.runtime.reset();
    ctx.dir = NewDir(args.workdir, "setup");
    const Clock::time_point t0 = Clock::now();
    {
      auto span = tracer.Span("setup.world");
      ctx.world = MakeWorld(world_options, args.world_seed);
    }
    world_s.push_back(SecondsSince(t0));
    const Clock::time_point t1 = Clock::now();
    {
      auto span = tracer.Span("setup.open");
      ctx.runtime = OpenRuntime(
          ctx.world, DurableOptions(ctx.world, ctx.dir, ctx.metrics));
    }
    open_s.push_back(SecondsSince(t1));
    setup_s.push_back(world_s.back() + open_s.back());
    if (ctx.runtime == nullptr) return 1;
  }

  {
    auto span = tracer.Span("bench.probe_setup");
    ctx.probe = std::make_unique<Probe>(&ctx, workload.probe_ops);
  }
  if (!ctx.probe->ok()) return 1;

  EndToEnd e2e;
  {
    auto main_span = tracer.Span("bench.main");
    const int rc = workload.phase(ctx, &e2e);
    if (rc != 0) return rc;
  }

  // A figure the phase does not measure itself is the mean of the probe
  // rounds'.
  const Probe& probe = *ctx.probe;
  auto own_or_probe = [&workload](ProbeOp op, double own,
                                  const std::vector<double>& samples) {
    return (workload.probe_ops & op) != 0 ? Mean(samples) : own;
  };
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("ingest_p50_ms", e2e.ingest_p50_ms, "ms");
  report.Metric("ingest_p99_ms", e2e.ingest_p99_ms, "ms");
  report.Metric("max_rate_eps", e2e.max_rate_eps, "ev/s");
  report.Metric("query_p50_ms", e2e.query_p50_ms, "ms");
  report.Metric("query_p99_ms", e2e.query_p99_ms, "ms");
  report.Metric("ingest_eps", e2e.ingest_eps, "ev/s");
  report.Metric("checkpoint_mean_ms",
                own_or_probe(kProbeCheckpoint, e2e.checkpoint_ms,
                             probe.checkpoint_ms),
                "ms");
  report.Metric("recovery_s",
                own_or_probe(kProbeReopen, e2e.recovery_s, probe.recovery_s),
                "s");
  report.Metric("catchup_s",
                own_or_probe(kProbeCatchup, e2e.catchup_s, probe.catchup_s),
                "s");
  report.Metric("checkpoint_write_bytes",
                own_or_probe(kProbeCheckpoint, e2e.checkpoint_write_bytes,
                             probe.checkpoint_write_bytes),
                "B");
  report.Metric("recovery_read_bytes",
                own_or_probe(kProbeReopen, e2e.recovery_read_bytes,
                             probe.recovery_read_bytes),
                "B");
  report.Metric("catchup_read_bytes",
                own_or_probe(kProbeCatchup, e2e.catchup_read_bytes,
                             probe.catchup_read_bytes),
                "B");
  report.Metric("disk_bytes_per_event", e2e.disk_bytes_per_event, "B");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");

  if (metrics != nullptr) {
    report.Metric("runtime.apply_batch_p50_ms",
                  HistUs(*metrics, "runtime.apply_batch") / 1e3, "ms");
    report.Metric("storage.wal_sync_p50_us", HistUs(*metrics, "wal.sync"),
                  "us");
  }
  report.Metric("setup.world_s", Median(world_s), "s");
  report.Metric("setup.open_s", Median(open_s), "s");
  return 0;
}

void ReportCallCounts(const Tracer& tracer, Report* report) {
  const std::map<std::string, uint64_t> calls =
      tracer.CallCounts("bench.main", "bench.probe");
  auto count = [&calls](const char* prefix) {
    uint64_t n = 0;
    for (const auto& [name, c] : calls) {
      if (name.rfind(prefix, 0) == 0) n += c;
    }
    return static_cast<double>(n);
  };
  report->Metric("calls.checkpoint", count("storage.checkpoint"), "count");
  report->Metric("calls.replication", count("replication."), "count");
  report->Metric("calls.service", count("service."), "count");
  report->Metric("calls.apply_batch", count("runtime.apply_batch"), "count");
}

void ReportSelfTimes(const Tracer& tracer, Report* report) {
  const std::map<std::string, double> self = tracer.LayerSelfSeconds();
  for (const char* layer :
       {"bench", "setup", "runtime", "storage", "query", "replication",
        "service"}) {
    auto it = self.find(layer);
    report->Metric(std::string("self.") + layer + "_s",
                   it == self.end() ? 0.0 : it->second, "s");
  }
}

double HistUs(const ltam::MetricsRegistry& metrics, const char* name,
              double q) {
  ltam::Histogram* h = metrics.FindHistogram(name);
  if (h == nullptr) return 0;
  const ltam::LatencyHistogram snap = h->Snapshot();
  return snap.count() == 0 ? 0 : static_cast<double>(snap.Quantile(q)) / 1e3;
}

}  // namespace perfbench

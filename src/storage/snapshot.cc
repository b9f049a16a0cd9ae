// Copyright 2026 The LTAM Authors.

#include "storage/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "storage/codec.h"
#include "util/string_util.h"

namespace ltam {

namespace {

/// Declares LedgerPlacement::kInShards inside a base snapshot.
constexpr const char* kLedgerInShards = "ledger-in-shards";
/// Fields of an `auth` record without the trailing ledger count.
constexpr size_t kAuthFields = 11;

std::string I64(int64_t v) { return std::to_string(v); }
std::string U32(uint32_t v) { return std::to_string(v); }

Result<int64_t> F_I64(const Record& rec, size_t i) {
  if (i >= rec.fields.size()) {
    return Status::ParseError("record '" + rec.type + "' missing field " +
                              std::to_string(i));
  }
  return ParseInt64(rec.fields[i]);
}

Result<std::string> F_Str(const Record& rec, size_t i) {
  if (i >= rec.fields.size()) {
    return Status::ParseError("record '" + rec.type + "' missing field " +
                              std::to_string(i));
  }
  return rec.fields[i];
}

Record MoveRecord(const MovementEvent& ev) {
  return Record{"move",
                {I64(ev.time), U32(ev.subject),
                 ev.to == kInvalidLocation ? "out" : U32(ev.to)}};
}

Status ApplyMoveRecord(const Record& rec, MovementDatabase* movements) {
  LTAM_ASSIGN_OR_RETURN(int64_t t, F_I64(rec, 0));
  LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 1));
  LTAM_ASSIGN_OR_RETURN(std::string to, F_Str(rec, 2));
  if (s < 0 || s > static_cast<int64_t>(UINT32_MAX)) {
    return Status::ParseError("move subject id out of range");
  }
  LocationId dest = kInvalidLocation;
  if (to != "out") {
    LTAM_ASSIGN_OR_RETURN(int64_t l, ParseInt64(to));
    if (l < 0 || l > static_cast<int64_t>(UINT32_MAX)) {
      return Status::ParseError("move location id out of range");
    }
    dest = static_cast<LocationId>(l);
  }
  return movements->RecordMovement(t, static_cast<SubjectId>(s), dest);
}

}  // namespace

Status SaveSnapshot(const SystemState& state, const std::string& path,
                    LedgerPlacement ledger) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open snapshot '" + path + "' for write");
  }
  auto emit = [&out](const Record& rec) {
    out << EncodeRecord(rec) << '\n';
  };

  // --- Graph ---------------------------------------------------------------
  const MultilevelLocationGraph& g = state.graph;
  emit({"graph-root", {g.location(g.root()).name}});
  if (ledger == LedgerPlacement::kInShards) emit({kLedgerInShards, {}});
  for (LocationId id = 1; id < g.size(); ++id) {
    const Location& loc = g.location(id);
    emit({"loc",
          {U32(id), loc.name, loc.IsComposite() ? "composite" : "primitive",
           U32(loc.parent), loc.is_entry ? "1" : "0", loc.description}});
    if (loc.boundary.has_value()) {
      Record rec{"boundary", {U32(id)}};
      for (const Point& p : loc.boundary->ring()) {
        rec.fields.push_back(StrFormat("%.17g", p.x));
        rec.fields.push_back(StrFormat("%.17g", p.y));
      }
      emit(rec);
    }
  }
  for (const auto& [a, b] : g.Edges()) {
    emit({"edge", {U32(a), U32(b)}});
  }

  // --- Profiles --------------------------------------------------------------
  const UserProfileDatabase& profiles = state.profiles;
  for (SubjectId s : profiles.AllSubjects()) {
    const Subject& subj = profiles.subject(s);
    emit({"subject", {U32(s), subj.name}});
  }
  // Supervisors after all subjects exist (forward references are legal).
  for (SubjectId s : profiles.AllSubjects()) {
    const Subject& subj = profiles.subject(s);
    if (subj.supervisor != kInvalidSubject) {
      emit({"supervisor", {U32(s), U32(subj.supervisor)}});
    }
    for (const std::string& group : subj.groups) {
      emit({"group", {U32(s), group}});
    }
    for (const std::string& role : subj.roles) {
      emit({"role", {U32(s), role}});
    }
    for (const auto& [key, value] : subj.attributes) {
      emit({"attr", {U32(s), key, value}});
    }
  }

  // --- Authorizations --------------------------------------------------------
  const AuthorizationDatabase& db = state.auth_db;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    Record auth{"auth",
                {U32(id), I64(rec.auth.entry_duration().start()),
                 I64(rec.auth.entry_duration().end()),
                 I64(rec.auth.exit_duration().start()),
                 I64(rec.auth.exit_duration().end()), U32(rec.auth.subject()),
                 U32(rec.auth.location()), I64(rec.auth.max_entries()),
                 rec.origin == AuthOrigin::kDerived ? "derived" : "explicit",
                 U32(rec.source_rule), rec.revoked ? "1" : "0"}};
    if (ledger == LedgerPlacement::kInline) {
      auth.fields.push_back(I64(rec.entries_used));
    }
    emit(auth);
  }

  // --- Rules -------------------------------------------------------------------
  for (const AuthorizationRule& rule : state.rules) {
    emit({"rule",
          {I64(rule.valid_from), U32(rule.base),
           rule.op_entry ? rule.op_entry->ToString() : "WHENEVER",
           rule.op_exit ? rule.op_exit->ToString() : "WHENEVER",
           rule.op_subject ? rule.op_subject->ToString() : "Identity",
           rule.op_location ? rule.op_location->ToString() : "Identity",
           rule.exp_n.has_value() ? rule.exp_n->text() : "n", rule.label}});
  }

  // --- Movements -----------------------------------------------------------------
  for (const MovementEvent& ev : state.movements.history()) {
    emit(MoveRecord(ev));
  }

  out.flush();
  if (!out.good()) return Status::IOError("snapshot write failed");
  return Status::OK();
}

Result<SystemState> LoadSnapshot(const std::string& path) {
  return LoadSnapshot(path, SubjectOperatorRegistry::Default(),
                      LocationOperatorRegistry::Default());
}

Result<SystemState> LoadSnapshot(
    const std::string& path, const SubjectOperatorRegistry& subject_ops,
    const LocationOperatorRegistry& location_ops, LedgerPlacement* ledger) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open snapshot '" + path + "'");
  }
  SystemState state;
  bool graph_initialized = false;
  LedgerPlacement placement = LedgerPlacement::kInline;
  std::string line;
  size_t line_no = 0;
  // Authorizations replay in id order; ledger/revocations apply inline.
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<Record> rec_or = DecodeRecord(line);
    if (!rec_or.ok()) {
      return rec_or.status().WithContext("snapshot line " +
                                         std::to_string(line_no));
    }
    const Record& rec = *rec_or;

    if (rec.type == "graph-root") {
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 0));
      state.graph = MultilevelLocationGraph(name);
      graph_initialized = true;
      continue;
    }
    if (!graph_initialized) {
      return Status::ParseError("snapshot must start with graph-root");
    }
    if (rec.type == kLedgerInShards) {
      if (state.auth_db.size() > 0) {
        return Status::ParseError(
            "ledger placement must precede the authorizations");
      }
      placement = LedgerPlacement::kInShards;
      continue;
    }
    if (rec.type == "loc") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(std::string kind, F_Str(rec, 2));
      LTAM_ASSIGN_OR_RETURN(int64_t parent, F_I64(rec, 3));
      LTAM_ASSIGN_OR_RETURN(int64_t is_entry, F_I64(rec, 4));
      LTAM_ASSIGN_OR_RETURN(std::string description, F_Str(rec, 5));
      Result<LocationId> added =
          kind == "composite"
              ? state.graph.AddComposite(name,
                                         static_cast<LocationId>(parent))
              : state.graph.AddPrimitive(name,
                                         static_cast<LocationId>(parent));
      if (!added.ok()) return added.status();
      if (*added != static_cast<LocationId>(id)) {
        return Status::ParseError("snapshot location ids are not dense");
      }
      if (is_entry != 0) {
        LTAM_RETURN_IF_ERROR(state.graph.SetEntry(*added, true));
      }
      if (!description.empty()) {
        LTAM_RETURN_IF_ERROR(state.graph.SetDescription(*added, description));
      }
      continue;
    }
    if (rec.type == "boundary") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      if ((rec.fields.size() - 1) % 2 != 0) {
        return Status::ParseError("boundary record has odd coordinate count");
      }
      std::vector<Point> ring;
      for (size_t i = 1; i + 1 < rec.fields.size(); i += 2) {
        LTAM_ASSIGN_OR_RETURN(double x, ParseDouble(rec.fields[i]));
        LTAM_ASSIGN_OR_RETURN(double y, ParseDouble(rec.fields[i + 1]));
        ring.push_back(Point{x, y});
      }
      LTAM_ASSIGN_OR_RETURN(Polygon poly, Polygon::Make(std::move(ring)));
      LTAM_RETURN_IF_ERROR(
          state.graph.SetBoundary(static_cast<LocationId>(id), poly));
      continue;
    }
    if (rec.type == "edge") {
      LTAM_ASSIGN_OR_RETURN(int64_t a, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t b, F_I64(rec, 1));
      LTAM_RETURN_IF_ERROR(state.graph.AddEdge(static_cast<LocationId>(a),
                                               static_cast<LocationId>(b)));
      continue;
    }
    if (rec.type == "subject") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(SubjectId added, state.profiles.AddSubject(name));
      if (added != static_cast<SubjectId>(id)) {
        return Status::ParseError("snapshot subject ids are not dense");
      }
      continue;
    }
    if (rec.type == "supervisor") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t sup, F_I64(rec, 1));
      LTAM_RETURN_IF_ERROR(state.profiles.SetSupervisor(
          static_cast<SubjectId>(s), static_cast<SubjectId>(sup)));
      continue;
    }
    if (rec.type == "group") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string group, F_Str(rec, 1));
      LTAM_RETURN_IF_ERROR(
          state.profiles.AddToGroup(static_cast<SubjectId>(s), group));
      continue;
    }
    if (rec.type == "role") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string role, F_Str(rec, 1));
      LTAM_RETURN_IF_ERROR(
          state.profiles.AssignRole(static_cast<SubjectId>(s), role));
      continue;
    }
    if (rec.type == "attr") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string key, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(std::string value, F_Str(rec, 2));
      LTAM_RETURN_IF_ERROR(state.profiles.SetAttribute(
          static_cast<SubjectId>(s), key, value));
      continue;
    }
    if (rec.type == "auth") {
      const size_t fields =
          placement == LedgerPlacement::kInline ? kAuthFields + 1 : kAuthFields;
      if (rec.fields.size() != fields) {
        return Status::ParseError("auth record has " +
                                  std::to_string(rec.fields.size()) +
                                  " fields, expected " +
                                  std::to_string(fields));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t es, F_I64(rec, 1));
      LTAM_ASSIGN_OR_RETURN(int64_t ee, F_I64(rec, 2));
      LTAM_ASSIGN_OR_RETURN(int64_t xs, F_I64(rec, 3));
      LTAM_ASSIGN_OR_RETURN(int64_t xe, F_I64(rec, 4));
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 5));
      LTAM_ASSIGN_OR_RETURN(int64_t l, F_I64(rec, 6));
      LTAM_ASSIGN_OR_RETURN(int64_t n, F_I64(rec, 7));
      LTAM_ASSIGN_OR_RETURN(std::string origin, F_Str(rec, 8));
      LTAM_ASSIGN_OR_RETURN(int64_t rule, F_I64(rec, 9));
      LTAM_ASSIGN_OR_RETURN(int64_t revoked, F_I64(rec, 10));
      LTAM_ASSIGN_OR_RETURN(
          LocationTemporalAuthorization auth,
          LocationTemporalAuthorization::Make(
              TimeInterval(es, ee), TimeInterval(xs, xe),
              LocationAuthorization{static_cast<SubjectId>(s),
                                    static_cast<LocationId>(l)},
              n));
      AuthId added =
          origin == "derived"
              ? state.auth_db.AddDerived(auth, static_cast<RuleId>(rule))
              : state.auth_db.Add(auth);
      if (added != static_cast<AuthId>(id)) {
        return Status::ParseError("snapshot auth ids are not dense");
      }
      if (placement == LedgerPlacement::kInline) {
        LTAM_ASSIGN_OR_RETURN(int64_t used, F_I64(rec, kAuthFields));
        LTAM_RETURN_IF_ERROR(state.auth_db.RestoreEntriesUsed(
            added, static_cast<SubjectId>(s), used));
      }
      if (revoked != 0) {
        LTAM_RETURN_IF_ERROR(state.auth_db.Revoke(added));
      }
      continue;
    }
    if (rec.type == "rule") {
      AuthorizationRule rule;
      LTAM_ASSIGN_OR_RETURN(rule.valid_from, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t base, F_I64(rec, 1));
      rule.base = static_cast<AuthId>(base);
      LTAM_ASSIGN_OR_RETURN(std::string op_entry, F_Str(rec, 2));
      LTAM_ASSIGN_OR_RETURN(rule.op_entry, ParseTemporalOperator(op_entry));
      LTAM_ASSIGN_OR_RETURN(std::string op_exit, F_Str(rec, 3));
      LTAM_ASSIGN_OR_RETURN(rule.op_exit, ParseTemporalOperator(op_exit));
      LTAM_ASSIGN_OR_RETURN(std::string op_subject, F_Str(rec, 4));
      LTAM_ASSIGN_OR_RETURN(rule.op_subject, subject_ops.Parse(op_subject));
      LTAM_ASSIGN_OR_RETURN(std::string op_location, F_Str(rec, 5));
      LTAM_ASSIGN_OR_RETURN(rule.op_location, location_ops.Parse(op_location));
      LTAM_ASSIGN_OR_RETURN(std::string expn, F_Str(rec, 6));
      LTAM_ASSIGN_OR_RETURN(rule.exp_n, CountExpr::Parse(expn));
      LTAM_ASSIGN_OR_RETURN(rule.label, F_Str(rec, 7));
      rule.id = static_cast<RuleId>(state.rules.size());
      state.rules.push_back(std::move(rule));
      continue;
    }
    if (rec.type == "move") {
      LTAM_RETURN_IF_ERROR(ApplyMoveRecord(rec, &state.movements));
      continue;
    }
    return Status::ParseError("unknown snapshot record type '" + rec.type +
                              "'");
  }
  if (ledger != nullptr) *ledger = placement;
  return state;
}

Status SaveShardSnapshot(const MovementDatabase& movements,
                         const std::vector<SubjectLedger>& ledgers,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open shard snapshot '" + path +
                           "' for write");
  }
  for (const MovementEvent& ev : movements.history()) {
    out << EncodeRecord(MoveRecord(ev)) << '\n';
  }
  // Digits and ':' need no escaping, so the line is written directly.
  std::string line;
  for (const SubjectLedger& ledger : ledgers) {
    line = "ledger\t" + U32(ledger.subject);
    AuthId prev = 0;
    for (const auto& [id, used] : ledger.used) {
      line += '\t';
      line += U32(id - prev);
      line += ':';
      line += I64(used);
      prev = id;
    }
    out << line << '\n';
  }
  out << EncodeRecord({"end",
                       {std::to_string(movements.history().size()),
                        std::to_string(ledgers.size())}})
      << '\n';
  out.flush();
  if (!out.good()) return Status::IOError("shard snapshot write failed");
  return Status::OK();
}

namespace {

/// Parses one `ledger` record: a subject, then `<gap>:<count>` pairs
/// whose running sum of gaps is the authorization id (the first gap is
/// the first id). Ids must ascend strictly and counts be positive.
Result<SubjectLedger> DecodeLedgerRecord(const Record& rec) {
  if (rec.fields.size() < 2) {
    return Status::ParseError("ledger record lists no authorization");
  }
  LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
  if (s < 0 || s >= static_cast<int64_t>(kInvalidSubject)) {
    return Status::ParseError("ledger subject id out of range");
  }
  SubjectLedger ledger;
  ledger.subject = static_cast<SubjectId>(s);
  ledger.used.reserve(rec.fields.size() - 1);
  int64_t id = 0;
  for (size_t i = 1; i < rec.fields.size(); ++i) {
    const std::string& pair = rec.fields[i];
    const size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("ledger entry '" + pair + "' is not gap:count");
    }
    LTAM_ASSIGN_OR_RETURN(int64_t gap,
                          ParseInt64(std::string_view(pair).substr(0, colon)));
    LTAM_ASSIGN_OR_RETURN(int64_t used,
                          ParseInt64(std::string_view(pair).substr(colon + 1)));
    if (gap < (i == 1 ? 0 : 1) || gap > static_cast<int64_t>(UINT32_MAX) ||
        id + gap >= static_cast<int64_t>(kInvalidAuth)) {
      return Status::ParseError("ledger authorization id out of range");
    }
    if (used < 1) {
      return Status::ParseError("ledger count must be positive");
    }
    id += gap;
    ledger.used.emplace_back(static_cast<AuthId>(id), used);
  }
  return ledger;
}

}  // namespace

Result<ShardSnapshot> LoadShardSnapshot(const std::string& path,
                                        LedgerPlacement placement) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open shard snapshot '" + path + "'");
  }
  const bool in_shards = placement == LedgerPlacement::kInShards;
  ShardSnapshot snap;
  bool ended = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where =
        "shard snapshot '" + path + "' line " + std::to_string(line_no);
    if (ended) return Status::ParseError(where + " follows the end record");
    Result<Record> rec_or = DecodeRecord(line);
    if (!rec_or.ok()) return rec_or.status().WithContext(where);
    const Record& rec = *rec_or;
    Status applied;
    if (rec.type == "move") {
      applied = ApplyMoveRecord(rec, &snap.movements);
    } else if (in_shards && rec.type == "ledger") {
      Result<SubjectLedger> ledger = DecodeLedgerRecord(rec);
      applied = ledger.status();
      if (ledger.ok() && !snap.ledgers.empty() &&
          ledger->subject <= snap.ledgers.back().subject) {
        applied = Status::ParseError("ledger subjects must ascend");
      }
      if (applied.ok()) snap.ledgers.push_back(std::move(*ledger));
    } else if (in_shards && rec.type == "end") {
      if (rec.fields.size() != 2) {
        return Status::ParseError(where + ": end record field count");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t moves, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t ledgers, F_I64(rec, 1));
      if (moves != static_cast<int64_t>(snap.movements.history().size()) ||
          ledgers != static_cast<int64_t>(snap.ledgers.size())) {
        return Status::ParseError(where +
                                  ": end record counts differ from the file");
      }
      ended = true;
    } else {
      return Status::ParseError(where + " has unexpected record '" +
                                rec.type + "'");
    }
    if (!applied.ok()) return applied.WithContext(where);
  }
  if (in_shards && !ended) {
    return Status::ParseError("shard snapshot '" + path +
                              "' has no end record (torn write?)");
  }
  return snap;
}

}  // namespace ltam

#include "obs/provenance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace locmps::obs {

namespace {

/// Same-instant tolerance, mirroring the scheduler's (locbs.cpp).
bool about(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Exact round-trip rendering: 17 significant digits reproduce the bits.
void put_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

double take_double(const std::string& s, std::size_t& pos, char sep) {
  const std::size_t end = s.find(sep, pos);
  if (end == std::string::npos)
    throw std::runtime_error("provenance: truncated candidate encoding");
  const double v = std::strtod(s.c_str() + pos, nullptr);
  pos = end + 1;
  return v;
}

}  // namespace

bool ProvCandidate::same_slot(const ProvCandidate& o) const {
  return subset == o.subset && procs == o.procs && about(start, o.start);
}

void ShortlistRecorder::offer(ProvCandidate c) {
  for (const ProvCandidate& e : entries_)
    if (e.same_slot(c)) return;  // rescored at a later probe instant
  // Stable insertion by finish: among equal finishes the earlier-scored
  // candidate keeps the lower index (deterministic: the scan order
  // itself is).
  auto it = entries_.begin();
  while (it != entries_.end() && !(c.finish < it->finish)) ++it;
  entries_.insert(it, std::move(c));
  if (entries_.size() > kMaxCandidates) entries_.pop_back();
}

std::size_t ShortlistRecorder::ensure(const ProvCandidate& c) {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].same_slot(c)) return i;
  if (entries_.size() >= kMaxCandidates) entries_.pop_back();
  auto it = entries_.begin();
  while (it != entries_.end() && !(c.finish < it->finish)) ++it;
  it = entries_.insert(it, c);
  return static_cast<std::size_t>(it - entries_.begin());
}

std::string procs_csv(const std::vector<ProcId>& procs) {
  std::string out;
  for (ProcId q : procs) {
    if (!out.empty()) out += ',';
    out += std::to_string(q);
  }
  return out;
}

std::vector<ProcId> parse_procs_csv(const std::string& csv) {
  std::vector<ProcId> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(csv.c_str() + pos, &end, 10);
    if (end == csv.c_str() + pos)
      throw std::runtime_error("provenance: malformed processor list '" +
                               csv + "'");
    out.push_back(static_cast<ProcId>(v));
    pos = static_cast<std::size_t>(end - csv.c_str());
    if (pos < csv.size()) {
      if (csv[pos] != ',')
        throw std::runtime_error("provenance: malformed processor list '" +
                                 csv + "'");
      ++pos;
    }
  }
  return out;
}

std::string encode_candidates(const std::vector<ProvCandidate>& cands) {
  std::string out;
  for (const ProvCandidate& c : cands) {
    if (!out.empty()) out += '|';
    put_double(out, c.tau);
    out += ';';
    out += std::to_string(c.subset);
    out += ';';
    put_double(out, c.start);
    out += ';';
    put_double(out, c.finish);
    out += ';';
    put_double(out, c.busy_from);
    out += ';';
    put_double(out, c.remote_bytes);
    out += ';';
    put_double(out, c.locality_score);
    out += ';';
    bool first = true;
    for (ProcId q : c.procs) {
      if (!first) out += '.';
      first = false;
      out += std::to_string(q);
    }
  }
  return out;
}

std::vector<ProvCandidate> decode_candidates(const std::string& enc) {
  std::vector<ProvCandidate> out;
  std::size_t pos = 0;
  while (pos < enc.size()) {
    std::size_t end = enc.find('|', pos);
    if (end == std::string::npos) end = enc.size();
    const std::string group = enc.substr(pos, end - pos);
    pos = end + 1;
    ProvCandidate c;
    std::size_t gp = 0;
    c.tau = take_double(group, gp, ';');
    {
      const std::size_t se = group.find(';', gp);
      if (se == std::string::npos)
        throw std::runtime_error("provenance: truncated candidate encoding");
      c.subset = std::atoi(group.c_str() + gp);
      gp = se + 1;
    }
    c.start = take_double(group, gp, ';');
    c.finish = take_double(group, gp, ';');
    c.busy_from = take_double(group, gp, ';');
    c.remote_bytes = take_double(group, gp, ';');
    c.locality_score = take_double(group, gp, ';');
    // Remainder: '.'-separated processor ids.
    while (gp < group.size()) {
      char* pe = nullptr;
      const unsigned long v = std::strtoul(group.c_str() + gp, &pe, 10);
      if (pe == group.c_str() + gp)
        throw std::runtime_error(
            "provenance: malformed candidate processor list");
      c.procs.push_back(static_cast<ProcId>(v));
      gp = static_cast<std::size_t>(pe - group.c_str());
      if (gp < group.size()) {
        if (group[gp] != '.')
          throw std::runtime_error(
              "provenance: malformed candidate processor list");
        ++gp;
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

Event decision_event(const PlacementDecision& d) {
  return Event("locbs.decision")
      .with("task", d.task)
      .with("np", static_cast<std::uint64_t>(d.np))
      .with("prio", d.prio)
      .with("est", d.est)
      .with("start", d.start)
      .with("finish", d.finish)
      .with("busy_from", d.busy_from)
      .with("backfill_branch", d.backfill_branch)
      .with("locality_branch", d.locality_branch)
      .with("comm_blind", d.comm_blind)
      .with("backfilled", d.backfilled)
      .with("pruned", d.pruned)
      .with("perturbed", d.perturbed)
      .with("holes_probed", d.holes_probed)
      .with("cands_scored", d.candidates_scored)
      .with("winner", static_cast<std::uint64_t>(d.winner))
      .with("margin", d.margin)
      .with("local_bytes", d.local_bytes)
      .with("remote_bytes", d.remote_bytes)
      .with("cands", encode_candidates(d.shortlist));
}

bool decision_from_record(const TraceRecord& rec, PlacementDecision& out) {
  if (rec.ev != "locbs.decision") return false;
  out = PlacementDecision{};
  const double traw = rec.num("task", -1.0);
  if (traw < 0.0)
    throw std::runtime_error("provenance: locbs.decision without task");
  out.task = static_cast<TaskId>(traw);
  out.np = static_cast<std::size_t>(rec.num("np"));
  out.prio = rec.num("prio");
  out.est = rec.num("est");
  out.start = rec.num("start");
  out.finish = rec.num("finish");
  out.busy_from = rec.num("busy_from");
  out.backfill_branch = rec.flag("backfill_branch");
  out.locality_branch = rec.flag("locality_branch");
  out.comm_blind = rec.flag("comm_blind");
  out.backfilled = rec.flag("backfilled");
  out.pruned = rec.flag("pruned");
  out.perturbed = rec.flag("perturbed");
  out.holes_probed = static_cast<std::uint64_t>(rec.num("holes_probed"));
  out.candidates_scored =
      static_cast<std::uint64_t>(rec.num("cands_scored"));
  out.winner = static_cast<std::size_t>(rec.num("winner"));
  out.margin = rec.num("margin", -1.0);
  out.local_bytes = rec.num("local_bytes");
  out.remote_bytes = rec.num("remote_bytes");
  if (const std::string* enc = rec.str("cands"))
    out.shortlist = decode_candidates(*enc);
  if (out.winner >= out.shortlist.size())
    throw std::runtime_error(
        "provenance: locbs.decision winner outside its shortlist");
  return true;
}

std::vector<PlacementDecision> final_decisions(
    const std::vector<TraceRecord>& records, std::size_t num_tasks) {
  std::vector<PlacementDecision> out(num_tasks);
  PlacementDecision d;
  for (const TraceRecord& rec : records) {
    if (!decision_from_record(rec, d)) continue;
    if (d.task < num_tasks) out[d.task] = std::move(d);
  }
  return out;
}

std::string decision_brief(const PlacementDecision& d) {
  std::ostringstream os;
  os << "np=" << d.np << " on {" << procs_csv(
            d.winner < d.shortlist.size() ? d.shortlist[d.winner].procs
                                          : std::vector<ProcId>{})
     << "} [" << fmt(d.start, 4) << ", " << fmt(d.finish, 4) << ")s via ";
  switch (d.winner < d.shortlist.size() ? d.shortlist[d.winner].subset : 1) {
    case 0: os << "locality"; break;
    case 2: os << "shadow"; break;
    default: os << "horizon"; break;
  }
  os << " subset";
  if (d.margin >= 0.0)
    os << ", margin " << fmt(d.margin, 4) << " s over runner-up";
  else
    os << ", no distinct alternative";
  if (d.backfilled) os << ", backfilled";
  if (d.perturbed) os << ", PERTURBED";
  return os.str();
}

void print_decision(std::ostream& os, const TaskGraph& g,
                    const PlacementDecision& d) {
  if (!d.valid()) {
    os << "no decision record (task never placed by LoCBS under an "
          "attached trace)\n";
    return;
  }
  os << "task " << d.task;
  if (d.task < g.num_tasks()) os << " (" << g.task(d.task).name << ")";
  os << ": " << decision_brief(d) << "\n";
  os << "  branches: backfill=" << (d.backfill_branch ? "on" : "off")
     << " locality=" << (d.locality_branch ? "on" : "off")
     << " comm_blind=" << (d.comm_blind ? "on" : "off") << "; ready at "
     << fmt(d.est, 4) << " s, priority " << fmt(d.prio, 4) << "\n";
  os << "  scan: " << d.holes_probed << " hole(s) probed, "
     << d.candidates_scored << " feasible candidate(s) scored"
     << (d.pruned ? ", cut off by the finish lower bound" : "") << "\n";
  os << "  realized input: " << fmt(d.local_bytes / 1e6, 3)
     << " MB local, " << fmt(d.remote_bytes / 1e6, 3) << " MB remote\n";
  os << "  shortlist (ascending finish; * = committed):\n";
  for (std::size_t i = 0; i < d.shortlist.size(); ++i) {
    const ProvCandidate& c = d.shortlist[i];
    os << "  " << (i == d.winner ? '*' : ' ') << " [" << i << "] "
       << (c.subset == 0   ? "locality"
           : c.subset == 2 ? "shadow  "
                           : "horizon ")
       << " tau=" << fmt(c.tau, 4) << " start=" << fmt(c.start, 4)
       << " finish=" << fmt(c.finish, 4) << " remote="
       << fmt(c.remote_bytes / 1e6, 3) << "MB resident="
       << fmt(c.locality_score / 1e6, 3) << "MB procs={"
       << procs_csv(c.procs) << "}\n";
  }
}

}  // namespace locmps::obs

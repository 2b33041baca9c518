#include "obs/analysis.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <stdexcept>

#include "network/block_cyclic.hpp"
#include "obs/provenance.hpp"

namespace locmps::obs {

namespace {

/// Comparison tolerance, relative to the schedule horizon.
double tolerance(double makespan) { return 1e-9 * std::max(1.0, makespan); }

}  // namespace

const char* to_string(BlameKind k) {
  switch (k) {
    case BlameKind::Source: return "source";
    case BlameKind::Data: return "data";
    case BlameKind::Processor: return "processor";
    case BlameKind::Backfill: return "backfill";
    case BlameKind::Release: return "release";
    case BlameKind::Tie: return "tie";
  }
  return "?";
}

std::vector<TaskBlame> ScheduleAnalysis::top_blame(std::size_t n) const {
  std::vector<TaskBlame> out;
  for (const TaskBlame& b : blame)
    if (b.delay_s > 0.0) out.push_back(b);
  std::sort(out.begin(), out.end(), [](const TaskBlame& a, const TaskBlame& b) {
    if (a.delay_s != b.delay_s) return a.delay_s > b.delay_s;
    return a.task < b.task;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

ScheduleAnalysis analyze_schedule(const TaskGraph& g, const Schedule& s,
                                  const CommModel& comm,
                                  const AnalysisOptions& opt) {
  if (!s.complete())
    throw std::invalid_argument("analyze_schedule: incomplete schedule");
  ScheduleAnalysis a;
  const std::size_t n = g.num_tasks();
  const std::size_t P = s.num_procs();
  a.makespan = s.makespan();
  a.num_procs = P;
  a.num_tasks = n;
  const double eps = tolerance(a.makespan);

  // --- Per-processor occupancy and the idle-hole histogram -----------------
  Timeline tl(P);
  std::vector<double> busy(P, 0.0);
  std::vector<std::size_t> tasks_on(P, 0);
  for (TaskId t : g.task_ids()) {
    const Placement& p = s.at(t);
    tl.occupy(p.procs, p.busy_from, p.finish);
    p.procs.for_each([&](ProcId q) {
      busy[q] += p.finish - p.busy_from;
      ++tasks_on[q];
    });
  }
  std::vector<double> hole_durs;
  a.procs.resize(P);
  for (ProcId q = 0; q < P; ++q) {
    ProcUtilization& u = a.procs[q];
    u.proc = q;
    u.busy_s = busy[q];
    u.tasks = tasks_on[q];
    for (const Timeline::Hole& h : tl.holes(q, a.makespan)) {
      const double d = h.end - h.start;
      u.idle_s += d;
      ++u.holes;
      hole_durs.push_back(d);
    }
    u.utilization = a.makespan > 0.0 ? u.busy_s / a.makespan : 0.0;
    a.mean_utilization += u.utilization;
  }
  if (P > 0) a.mean_utilization /= static_cast<double>(P);

  HoleHistogram& hh = a.holes;
  hh.total_holes = hole_durs.size();
  for (double d : hole_durs) {
    hh.total_idle_s += d;
    hh.longest_s = std::max(hh.longest_s, d);
  }
  if (!hole_durs.empty()) {
    hh.mean_s = hh.total_idle_s / static_cast<double>(hole_durs.size());
    const std::size_t bins = std::max<std::size_t>(1, opt.hole_bins);
    hh.counts.assign(bins, 0);
    hh.bin_edges.resize(bins + 1);
    const double width = hh.longest_s / static_cast<double>(bins);
    for (std::size_t i = 0; i <= bins; ++i)
      hh.bin_edges[i] = width * static_cast<double>(i);
    for (double d : hole_durs) {
      std::size_t bin =
          width > 0.0 ? static_cast<std::size_t>(d / width) : 0;
      ++hh.counts[std::min(bin, bins - 1)];
    }
  }

  // --- Per-edge locality breakdown -----------------------------------------
  a.edges.resize(g.num_edges());
  LocalityTotals& lt = a.locality;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    EdgeLocality& el = a.edges[e];
    el.edge = e;
    el.src = ed.src;
    el.dst = ed.dst;
    el.volume_bytes = ed.volume_bytes;
    const ProcessorSet& sp = s.at(ed.src).procs;
    const ProcessorSet& dp = s.at(ed.dst).procs;
    el.remote_bytes = opt.locality_volumes
                          ? remote_volume(ed.volume_bytes, sp, dp)
                          : (sp == dp ? 0.0 : ed.volume_bytes);
    el.local_bytes = ed.volume_bytes - el.remote_bytes;
    el.transfer_s = comm.transfer_duration(el.remote_bytes, s.at(ed.src).np(),
                                           s.at(ed.dst).np());
    if (ed.volume_bytes <= 0.0)
      el.cls = EdgeClass::Empty;
    else if (el.remote_bytes <= 0.0)
      el.cls = EdgeClass::Local;
    else if (el.local_bytes <= 0.0)
      el.cls = EdgeClass::Remote;
    else
      el.cls = EdgeClass::Partial;

    lt.total_bytes += el.volume_bytes;
    lt.local_bytes += el.local_bytes;
    lt.remote_bytes += el.remote_bytes;
    lt.transfer_seconds += el.transfer_s;
    switch (el.cls) {
      case EdgeClass::Empty: ++lt.empty_edges; break;
      case EdgeClass::Local: ++lt.local_edges; break;
      case EdgeClass::Partial: ++lt.partial_edges; break;
      case EdgeClass::Remote: ++lt.remote_edges; break;
    }
  }
  lt.locality_fraction =
      lt.total_bytes > 0.0 ? 1.0 - lt.remote_bytes / lt.total_bytes : 1.0;

  // --- Start-delay blame ----------------------------------------------------
  // Per-processor booking lists, time-ordered, to find the occupant right
  // before each task on each of its processors.
  struct Booking {
    double from;
    double to;
    TaskId task;
  };
  std::vector<std::vector<Booking>> books(P);
  for (TaskId t : g.task_ids()) {
    const Placement& p = s.at(t);
    p.procs.for_each(
        [&](ProcId q) { books[q].push_back(Booking{p.busy_from, p.finish, t}); });
  }
  for (auto& v : books)
    std::sort(v.begin(), v.end(),
              [](const Booking& x, const Booking& y) { return x.from < y.from; });

  a.blame.resize(n);
  for (TaskId t : g.task_ids()) {
    const Placement& p = s.at(t);
    TaskBlame& b = a.blame[t];
    b.task = t;
    b.start = p.start;

    for (EdgeId e : g.in_edges(t)) {
      const TaskId src = g.edge(e).src;
      const double arrival = s.at(src).finish + a.edges[e].transfer_s;
      if (arrival > b.data_ready) {
        b.data_ready = arrival;
        b.culprit = src;  // provisional; settled by the classification below
        b.edge = e;
      }
    }

    TaskId blocker = kNoTask;
    p.procs.for_each([&](ProcId q) {
      const auto& v = books[q];
      // First booking starting after ours; the one before that (if not us)
      // is the occupant we waited for.
      auto it = std::upper_bound(
          v.begin(), v.end(), p.busy_from,
          [](double x, const Booking& bk) { return x < bk.from; });
      while (it != v.begin()) {
        --it;
        if (it->task == t) continue;
        if (it->to > b.proc_ready) {
          b.proc_ready = it->to;
          blocker = it->task;
        }
        break;
      }
    });

    const EdgeId data_edge = b.edge;
    const TaskId data_culprit = b.culprit;
    const double bind = std::max(b.data_ready, b.proc_ready);
    b.slack_s = std::max(0.0, b.start - bind);
    if (b.start <= eps) {
      b.kind = BlameKind::Source;
      b.culprit = kNoTask;
      b.edge = kNoEdge;
    } else if (bind <= eps) {
      b.kind = BlameKind::Release;
      b.culprit = kNoTask;
      b.edge = kNoEdge;
    } else if (b.data_ready > b.proc_ready + eps) {
      b.kind = BlameKind::Data;
      b.delay_s = b.data_ready - b.proc_ready;
    } else if (b.proc_ready > b.data_ready + eps) {
      b.kind = BlameKind::Processor;
      b.culprit = blocker;
      b.edge = kNoEdge;
      b.delay_s = b.proc_ready - b.data_ready;
    } else {
      b.kind = BlameKind::Tie;
      b.culprit = data_culprit != kNoTask ? data_culprit : blocker;
      b.edge = data_edge;
    }
  }

  // --- Critical-path decomposition ------------------------------------------
  // Walk backward from the makespan-defining task along binding
  // constraints; every hop strictly decreases the finish time, so the walk
  // terminates. compute + redistribution + wait telescopes to the makespan.
  CriticalPathBreakdown& cp = a.critical_path;
  cp.makespan = a.makespan;
  if (n > 0) {
    TaskId cur = 0;
    for (TaskId t : g.task_ids())
      if (s.at(t).finish > s.at(cur).finish) cur = t;
    std::vector<char> visited(n, 0);
    while (true) {
      const Placement& p = s.at(cur);
      const TaskBlame& b = a.blame[cur];
      CriticalPathStep step;
      step.task = cur;
      step.compute_s = p.finish - p.start;
      cp.compute_s += step.compute_s;
      visited[cur] = 1;

      const bool via_data =
          b.kind == BlameKind::Data ||
          (b.kind == BlameKind::Tie && b.edge != kNoEdge);
      const bool via_proc =
          (b.kind == BlameKind::Processor || b.kind == BlameKind::Backfill ||
           (b.kind == BlameKind::Tie && b.edge == kNoEdge)) &&
          b.culprit != kNoTask;
      if (via_data && b.culprit != kNoTask && !visited[b.culprit]) {
        step.redist_s = a.edges[b.edge].transfer_s;
        step.wait_s = std::max(0.0, p.start - b.data_ready);
        cp.redist_s += step.redist_s;
        cp.wait_s += step.wait_s;
        cp.steps.push_back(step);
        cur = b.culprit;
      } else if (via_proc && !visited[b.culprit]) {
        step.wait_s = std::max(0.0, p.start - b.proc_ready);
        cp.wait_s += step.wait_s;
        cp.steps.push_back(step);
        cur = b.culprit;
      } else {
        // Source / Release (or a defensive stop): the remaining gap back
        // to time zero is unattributed wait.
        step.wait_s = std::max(0.0, p.start);
        cp.wait_s += step.wait_s;
        cp.steps.push_back(step);
        break;
      }
    }
    std::reverse(cp.steps.begin(), cp.steps.end());
  }

  return a;
}

void join_backfill_stats(ScheduleAnalysis& a, const MetricsSnapshot& snap) {
  BackfillStats& bf = a.backfill;
  bf.passes = snap.counter("locbs.calls");
  bf.tasks_placed = snap.counter("locbs.tasks_placed");
  bf.holes_scanned = snap.counter("locbs.holes_scanned");
  bf.hits = snap.counter("locbs.backfill_hits");
  bf.cutoffs = snap.counter("locbs.scan_cutoffs");
  bf.present = bf.tasks_placed > 0.0;
  if (bf.present) {
    bf.hit_rate = bf.hits / bf.tasks_placed;
    bf.prune_rate = bf.cutoffs / bf.tasks_placed;
  }
}

void join_fault_stats(ScheduleAnalysis& a, const MetricsSnapshot& snap) {
  FaultStats& f = a.faults;
  f.injected = snap.counter("fault.injected");
  f.procs_failed = snap.counter("fault.procs_failed");
  f.kills = snap.counter("fault.kills");
  f.transfer_timeouts = snap.counter("fault.transfer_timeouts");
  f.wasted_proc_seconds = snap.counter("fault.wasted_proc_seconds");
  f.retries = snap.counter("recovery.retries");
  f.replans = snap.counter("recovery.replans");
  f.masked_procs = snap.counter("recovery.masked_procs");
  f.backoff_seconds = snap.counter("recovery.backoff_seconds");
  f.rounds = snap.counter("recovery.rounds");
  f.present = f.injected > 0.0;
}

void join_perturb_stats(ScheduleAnalysis& a, const MetricsSnapshot& snap) {
  PerturbStats& p = a.perturb;
  p.slowed_tasks = snap.counter("perturb.slowed_tasks");
  p.stretch_seconds = snap.counter("perturb.stretch_seconds");
  p.degraded_transfers = snap.counter("perturb.degraded_transfers");
  p.link_delay_seconds = snap.counter("perturb.link_delay_seconds");
  p.present = p.slowed_tasks > 0.0 || p.degraded_transfers > 0.0;
}

void join_mitigation_stats(ScheduleAnalysis& a, const MetricsSnapshot& snap) {
  MitigationStats& m = a.mitigation;
  m.stragglers = snap.counter("mitigation.stragglers");
  m.speculations = snap.counter("mitigation.speculations");
  m.spec_wins = snap.counter("mitigation.spec_wins");
  m.spec_losses = snap.counter("mitigation.spec_losses");
  m.replans = snap.counter("mitigation.replans");
  m.wasted_seconds = snap.counter("mitigation.wasted_seconds");
  m.present = m.stragglers > 0.0;
}

void join_event_health(ScheduleAnalysis& a, const MetricsSnapshot& snap) {
  a.trace_dropped = snap.counter("obs.trace.dropped");
}

// ---------------------------------------------------------------------------
// Decision-trace ingestion.

double TraceRecord::num(std::string_view key, double fallback) const {
  for (const auto& [k, v] : nums)
    if (k == key) return v;
  return fallback;
}

bool TraceRecord::flag(std::string_view key, bool fallback) const {
  for (const auto& [k, v] : bools)
    if (k == key) return v;
  return fallback;
}

const std::string* TraceRecord::str(std::string_view key) const {
  for (const auto& [k, v] : strs)
    if (k == key) return &v;
  return nullptr;
}

namespace {

/// Minimal parser for the flat JSON objects the JsonlSink emits: every
/// value is a string, number, bool or null (no nesting). Throws
/// std::runtime_error on malformed input.
class FlatLineParser {
 public:
  explicit FlatLineParser(std::string_view line) : s_(line) {}

  TraceRecord parse() {
    TraceRecord rec;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return rec;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      parse_value(rec, key);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      skip_ws();
      if (pos_ != s_.size()) fail("trailing characters");
      return rec;
    }
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error("trace: " + std::string(why) + " at offset " +
                             std::to_string(pos_) + " in line: " +
                             std::string(s_.substr(0, 120)));
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() const {
    if (pos_ >= s_.size()) return '\0';
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated unicode escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad unicode escape");
          }
          // The sink only escapes control characters; ASCII suffices.
          out += static_cast<char>(code);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  void parse_value(TraceRecord& rec, const std::string& key) {
    const char c = peek();
    if (c == '"') {
      std::string v = parse_string();
      if (key == "ev")
        rec.ev = std::move(v);
      else
        rec.strs.emplace_back(key, std::move(v));
      return;
    }
    if (consume("true")) {
      rec.bools.emplace_back(key, true);
      return;
    }
    if (consume("false")) {
      rec.bools.emplace_back(key, false);
      return;
    }
    if (consume("null")) return;  // non-finite number; dropped
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("bad value");
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    rec.nums.emplace_back(key, v);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<TraceRecord> read_trace(std::istream& is) {
  std::vector<TraceRecord> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out.push_back(FlatLineParser(line).parse());
  }
  return out;
}

TraceSummary summarize_trace(const std::vector<TraceRecord>& records,
                             std::size_t num_tasks) {
  TraceSummary ts;
  for (const TraceRecord& r : records) {
    if (r.ev == "locbs.decision") {
      ++ts.decision_events;
    } else if (r.ev == "sim.transfer") {
      ++ts.transfer_events;
      ts.transfer_bytes += r.num("bytes");
    } else if (r.ev == "fault.fail") {
      FaultWindow w;
      w.proc = static_cast<ProcId>(r.num("proc"));
      w.fail_s = r.num("at");
      w.repair_s = r.flag("repairs") ? r.num("repair_at", -1.0) : -1.0;
      ts.fault_windows.push_back(w);
    } else if (r.ev == "fault.kill") {
      ++ts.fault_kills;
      if (const std::string* k = r.str("kind");
          k != nullptr && *k == "transfer")
        ++ts.fault_transfer_timeouts;
      ts.fault_wasted_s += r.num("wasted_s");
    } else if (r.ev == "recovery.retry") {
      ++ts.recovery_retries;
    } else if (r.ev == "recovery.replan") {
      ++ts.recovery_replans;
    } else if (r.ev == "perturb.slow") {
      ++ts.perturb_slow_events;
      ts.perturb_stretch_s += r.num("stretch_s");
    } else if (r.ev == "perturb.link") {
      ++ts.perturb_link_events;
      ts.perturb_link_delay_s += r.num("delay_s");
    } else if (r.ev == "mitigation.straggler") {
      ++ts.mitigation_stragglers;
    } else if (r.ev == "mitigation.speculate") {
      ++ts.mitigation_speculations;
      ts.mitigation_wasted_s += r.num("wasted_s");
    } else if (r.ev == "mitigation.replan") {
      ++ts.mitigation_replans;
      ts.mitigation_wasted_s += r.num("wasted_s");
    } else if (r.ev == "robust.sample") {
      ++ts.robust_samples;
    }
  }
  std::sort(ts.fault_windows.begin(), ts.fault_windows.end(),
            [](const FaultWindow& x, const FaultWindow& y) {
              if (x.fail_s != y.fail_s) return x.fail_s < y.fail_s;
              return x.proc < y.proc;
            });
  // The last decision per task belongs to the final LoCBS pass — a
  // LoC-MPS plan traces only the realization of its committed allocation,
  // and a fault run's replans supersede the earlier plans.
  ts.backfilled.assign(num_tasks, 0);
  for (const PlacementDecision& d : final_decisions(records, num_tasks)) {
    if (!d.valid()) continue;
    ts.backfilled[d.task] = d.backfilled ? 1 : 0;
    ts.final_local_bytes += d.local_bytes;
    ts.final_remote_bytes += d.remote_bytes;
  }
  return ts;
}

void join_trace(ScheduleAnalysis& a, const TraceSummary& t) {
  if (a.fault_windows.empty()) a.fault_windows = t.fault_windows;
  for (TaskBlame& b : a.blame) {
    if (b.kind != BlameKind::Processor) continue;
    if (b.culprit == kNoTask) continue;
    if (static_cast<std::size_t>(b.culprit) < t.backfilled.size() &&
        t.backfilled[b.culprit] != 0)
      b.kind = BlameKind::Backfill;
  }
}

}  // namespace locmps::obs

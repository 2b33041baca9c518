#pragma once
/// Shared helpers for the test suite.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedulers/loc_mps.hpp"
#include "speedup/model.hpp"
#include "speedup/profile.hpp"

namespace locmps::test {

/// Perfectly linear speedup, handy for hand-computable examples.
class LinearSpeedup final : public SpeedupModel {
 public:
  double speedup(std::size_t n) const override {
    return static_cast<double>(n);
  }
};

/// Profile from an explicit time table.
inline ExecutionProfile profile(std::vector<double> times) {
  return ExecutionProfile(std::move(times));
}

/// A serial task profile (no benefit from extra processors).
inline ExecutionProfile serial(double t, std::size_t max_procs) {
  return ExecutionProfile::constant(t, max_procs);
}

/// Diamond graph: a -> b, a -> c, b -> d, c -> d with unit-volume edges.
inline TaskGraph diamond(double t = 10.0, std::size_t max_procs = 8,
                         double volume = 0.0) {
  TaskGraph g;
  const TaskId a = g.add_task("a", serial(t, max_procs));
  const TaskId b = g.add_task("b", serial(t, max_procs));
  const TaskId c = g.add_task("c", serial(t, max_procs));
  const TaskId d = g.add_task("d", serial(t, max_procs));
  g.add_edge(a, b, volume);
  g.add_edge(a, c, volume);
  g.add_edge(b, d, volume);
  g.add_edge(c, d, volume);
  return g;
}

/// Chain graph t0 -> t1 -> ... -> t{n-1}.
inline TaskGraph chain(std::size_t n, double t = 10.0,
                       std::size_t max_procs = 8, double volume = 0.0) {
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i)
    g.add_task("t" + std::to_string(i), serial(t, max_procs));
  for (std::size_t i = 0; i + 1 < n; ++i)
    g.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), volume);
  return g;
}

// ---------------------------------------------------------------------------
// Minimal strict JSON parser, used to validate the observability layer's
// output (JSONL decision traces, chrome traces) without an external
// dependency. Throws std::runtime_error on any malformed input.

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;                            // Kind::Array
  std::vector<std::pair<std::string, Json>> members;  // Kind::Object

  bool is(Kind k) const { return kind == k; }
  /// Object member by key; nullptr when absent or not an object.
  const Json* get(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
  bool has(std::string_view key) const { return get(key) != nullptr; }
  /// Member number by key, \p fallback when absent / not a number.
  double num_or(std::string_view key, double fallback) const {
    const Json* v = get(key);
    return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
  }
  /// Member string by key, empty when absent / not a string.
  std::string str_or(std::string_view key) const {
    const Json* v = get(key);
    return v != nullptr && v->kind == Kind::String ? v->str : std::string();
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error("json: " + std::string(why) + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
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
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail("bad \\u escape");
          }
          // Tests only need ASCII round-trips; encode BMP as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    Json v;
    v.kind = Json::Kind::Number;
    v.number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0' || tok.empty()) fail("bad number");
    return v;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    Json v;
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::Object;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::Array;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.items.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::String;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Json::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Json::Kind::Bool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses \p text as one JSON document (strict; throws on any error).
inline Json parse_json(std::string_view text) {
  return detail::JsonParser(text).parse_document();
}

// ---------------------------------------------------------------------------
// Minimal strict XML parser, used to validate the HTML/SVG schedule
// reports (obs/report.hpp emits strict XHTML: every element closed,
// attributes quoted, text escaped). Throws std::runtime_error on any
// malformed input. No DTD/PI support — strip the `<!DOCTYPE html>` line
// before parsing (see parse_xhtml_report).

struct Xml {
  std::string tag;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<Xml> children;
  std::string text;  ///< concatenated character data of this element

  /// Attribute value by name; nullptr when absent.
  const std::string* attr(std::string_view name) const {
    for (const auto& [k, v] : attrs)
      if (k == name) return &v;
    return nullptr;
  }
  /// Depth-first search for the element with id="\p id"; nullptr if none.
  const Xml* find_by_id(std::string_view id) const {
    const std::string* a = attr("id");
    if (a != nullptr && *a == id) return this;
    for (const Xml& c : children)
      if (const Xml* hit = c.find_by_id(id)) return hit;
    return nullptr;
  }
  /// Depth-first count of elements with tag \p t (including this one).
  std::size_t count_tag(std::string_view t) const {
    std::size_t n = tag == t ? 1 : 0;
    for (const Xml& c : children) n += c.count_tag(t);
    return n;
  }
};

namespace detail {

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : s_(text) {}

  Xml parse_document() {
    skip_ws();
    Xml root = parse_element();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error("xml: " + std::string(why) + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  static bool name_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':' ||
           c == '.';
  }
  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && name_char(s_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a name");
    return std::string(s_.substr(start, pos_ - start));
  }
  void append_entity(std::string& out) {
    // At '&'. Only the five predefined entities and numeric refs.
    ++pos_;
    const std::size_t semi = s_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 8)
      fail("unterminated entity reference");
    const std::string_view ent = s_.substr(pos_, semi - pos_);
    pos_ = semi + 1;
    if (ent == "amp") out += '&';
    else if (ent == "lt") out += '<';
    else if (ent == "gt") out += '>';
    else if (ent == "quot") out += '"';
    else if (ent == "apos") out += '\'';
    else if (!ent.empty() && ent[0] == '#') {
      const bool hex = ent.size() > 1 && ent[1] == 'x';
      const std::string num(ent.substr(hex ? 2 : 1));
      char* end = nullptr;
      const long code = std::strtol(num.c_str(), &end, hex ? 16 : 10);
      if (end == nullptr || *end != '\0' || code <= 0)
        fail("bad numeric character reference");
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      }
    } else {
      fail("unknown entity reference");
    }
  }
  std::string parse_attr_value() {
    const char quote = peek();
    if (quote != '"' && quote != '\'') fail("unquoted attribute value");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated attribute value");
      const char c = s_[pos_];
      if (c == quote) {
        ++pos_;
        return out;
      }
      if (c == '<') fail("raw '<' in attribute value");
      if (c == '&') {
        append_entity(out);
        continue;
      }
      out += c;
      ++pos_;
    }
  }

  Xml parse_element() {
    if (peek() != '<') fail("expected '<'");
    ++pos_;
    Xml el;
    el.tag = parse_name();
    while (true) {
      skip_ws();
      const char c = peek();
      if (c == '/') {
        ++pos_;
        if (peek() != '>') fail("malformed empty-element tag");
        ++pos_;
        return el;
      }
      if (c == '>') {
        ++pos_;
        break;
      }
      std::string key = parse_name();
      skip_ws();
      if (peek() != '=') fail("attribute without value");
      ++pos_;
      skip_ws();
      el.attrs.emplace_back(std::move(key), parse_attr_value());
    }
    // Content: character data, child elements, comments.
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated element");
      const char c = s_[pos_];
      if (c == '<') {
        if (s_.substr(pos_, 4) == "<!--") {
          const std::size_t end = s_.find("-->", pos_ + 4);
          if (end == std::string_view::npos) fail("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
          pos_ += 2;
          const std::string close = parse_name();
          if (close != el.tag) fail("mismatched closing tag");
          skip_ws();
          if (peek() != '>') fail("malformed closing tag");
          ++pos_;
          return el;
        }
        el.children.push_back(parse_element());
        continue;
      }
      if (c == '&') {
        append_entity(el.text);
        continue;
      }
      el.text += c;
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses \p text as one XML document (strict; throws on any error).
inline Xml parse_xml(std::string_view text) {
  return detail::XmlParser(text).parse_document();
}

/// Parses the output of obs::write_html_report: requires and strips the
/// leading `<!DOCTYPE html>` line, then parses the rest as XML.
inline Xml parse_xhtml_report(std::string_view report) {
  constexpr std::string_view kDoctype = "<!DOCTYPE html>\n";
  if (report.substr(0, kDoctype.size()) != kDoctype)
    throw std::runtime_error("report does not start with <!DOCTYPE html>");
  return parse_xml(report.substr(kDoctype.size()));
}

// ---------------------------------------------------------------------------
// Differential-equivalence checking for the incremental-replanning oracle
// (test_incremental.cpp): two LoC-MPS runs that differ only in an
// execution knob (incremental on/off) must be observably identical.
//
// "Identical" means: placements (busy_from/start/finish/procs), makespan,
// iteration and locbs-call counts, every counter outside the
// digest-excluded incr.* family, every sample-series value, the full,
// untruncated decision-event stream when both runs traced, and the
// post-mortem analysis.

/// Everything one instrumented LoC-MPS run produces.
struct RunCapture {
  SchedulerResult result;
  obs::MetricsSnapshot metrics;
  std::vector<obs::Event> events;
  std::uint64_t dropped = 0;  ///< events the bounded buffer discarded
};

/// Counters that legitimately differ between equivalent runs: the incr.*
/// accounting of the incremental replay path (dirty tasks, replayed
/// tasks, full rebuilds), different by construction between the
/// incremental and from-scratch sides of the differential oracle.
inline bool digest_excluded(const std::string& name) {
  return name.rfind("incr.", 0) == 0;
}

/// Runs LoC-MPS once with full instrumentation and captures the output.
inline RunCapture run_locmps_capture(const TaskGraph& g,
                                     const Cluster& cluster,
                                     const LocMPSOptions& opt,
                                     bool with_sink) {
  LocMPSScheduler sched(opt);
  obs::MetricsRegistry reg;
  obs::EventBuffer buf;
  obs::ObsContext ctx{&reg, with_sink ? &buf : nullptr};
  sched.attach_observability(&ctx);
  RunCapture cap{sched.schedule(g, cluster), {}, {}};
  cap.metrics = reg.snapshot();
  cap.events = buf.events();
  cap.dropped = buf.dropped();
  return cap;
}

/// Asserts two runs of the same workload are observably identical (see
/// block comment above). \p ref is the reference side (sequential /
/// from-scratch), \p alt the side under test; \p label prefixes every
/// failure message.
class DifferentialChecker {
 public:
  explicit DifferentialChecker(const TaskGraph& g) : g_(&g) {}

  void expect_identical(const RunCapture& ref, const RunCapture& alt,
                        const std::string& label) const {
    // A truncated stream would compare only its prefix.
    EXPECT_EQ(ref.dropped, 0u) << label << ": reference trace truncated";
    EXPECT_EQ(alt.dropped, 0u) << label << ": trace truncated";
    expect_same_schedule(ref, alt, label);
    expect_same_counters(ref.metrics, alt.metrics, label);
    expect_same_series_values(ref.metrics, alt.metrics, label);
    expect_same_events(ref.events, alt.events, label);
  }

  void expect_same_schedule(const RunCapture& ref, const RunCapture& alt,
                            const std::string& label) const {
    EXPECT_EQ(ref.result.estimated_makespan, alt.result.estimated_makespan)
        << label;
    EXPECT_EQ(ref.result.iterations, alt.result.iterations) << label;
    ASSERT_EQ(ref.result.allocation, alt.result.allocation) << label;
    for (TaskId t : g_->task_ids()) {
      const Placement& a = ref.result.schedule.at(t);
      const Placement& b = alt.result.schedule.at(t);
      EXPECT_EQ(a.busy_from, b.busy_from) << label << ": task " << t;
      EXPECT_EQ(a.start, b.start) << label << ": task " << t;
      EXPECT_EQ(a.finish, b.finish) << label << ": task " << t;
      EXPECT_TRUE(a.procs == b.procs) << label << ": task " << t;
    }
    EXPECT_EQ(ref.metrics.counter("locmps.locbs_calls"),
              alt.metrics.counter("locmps.locbs_calls"))
        << label;
  }

  void expect_same_counters(const obs::MetricsSnapshot& ref,
                            const obs::MetricsSnapshot& alt,
                            const std::string& label) const {
    auto filter = [](const obs::MetricsSnapshot& s) {
      std::vector<std::pair<std::string, double>> out;
      for (const auto& kv : s.counters)
        if (!digest_excluded(kv.first)) out.push_back(kv);
      return out;
    };
    const auto a = filter(ref), b = filter(alt);
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << label;
      EXPECT_EQ(a[i].second, b[i].second) << label << ": " << a[i].first;
    }
  }

  void expect_same_series_values(const obs::MetricsSnapshot& ref,
                                 const obs::MetricsSnapshot& alt,
                                 const std::string& label) const {
    ASSERT_EQ(ref.series.size(), alt.series.size()) << label;
    for (std::size_t i = 0; i < ref.series.size(); ++i) {
      EXPECT_EQ(ref.series[i].name, alt.series[i].name) << label;
      ASSERT_EQ(ref.series[i].points.size(), alt.series[i].points.size())
          << label << ": " << ref.series[i].name;
      // Timestamps are wall-clock and differ; recorded values must not.
      for (std::size_t p = 0; p < ref.series[i].points.size(); ++p)
        EXPECT_EQ(ref.series[i].points[p].value,
                  alt.series[i].points[p].value)
            << label << ": " << ref.series[i].name << "[" << p << "]";
    }
  }

  void expect_same_events(const std::vector<obs::Event>& ref,
                          const std::vector<obs::Event>& alt,
                          const std::string& label) const {
    ASSERT_EQ(ref.size(), alt.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].name(), alt[i].name()) << label << ": event " << i;
      EXPECT_TRUE(ref[i].fields() == alt[i].fields())
          << label << ": fields of event " << i << " (" << ref[i].name()
          << ")";
    }
  }

  /// Asserts the post-mortem analyses of both schedules agree: same
  /// makespan decomposition, utilization, hole accounting, and locality
  /// totals (`*_bytes` to 1e-9 relative, everything else exactly).
  void expect_same_analysis(const obs::ScheduleAnalysis& ref,
                            const obs::ScheduleAnalysis& alt,
                            const std::string& label) const {
    EXPECT_EQ(ref.makespan, alt.makespan) << label;
    EXPECT_EQ(ref.mean_utilization, alt.mean_utilization) << label;
    EXPECT_EQ(ref.holes.total_holes, alt.holes.total_holes) << label;
    EXPECT_EQ(ref.holes.total_idle_s, alt.holes.total_idle_s) << label;
    auto near_bytes = [&](double a, double b, const char* what) {
      EXPECT_NEAR(a, b, 1e-9 * std::abs(a)) << label << ": " << what;
    };
    near_bytes(ref.locality.total_bytes, alt.locality.total_bytes,
               "total_bytes");
    near_bytes(ref.locality.local_bytes, alt.locality.local_bytes,
               "local_bytes");
    near_bytes(ref.locality.remote_bytes, alt.locality.remote_bytes,
               "remote_bytes");
    EXPECT_EQ(ref.locality.local_edges, alt.locality.local_edges) << label;
    EXPECT_EQ(ref.locality.partial_edges, alt.locality.partial_edges)
        << label;
    EXPECT_EQ(ref.locality.remote_edges, alt.locality.remote_edges)
        << label;
    ASSERT_EQ(ref.blame.size(), alt.blame.size()) << label;
    for (std::size_t i = 0; i < ref.blame.size(); ++i) {
      EXPECT_EQ(ref.blame[i].kind, alt.blame[i].kind)
          << label << ": blame of task " << i;
      EXPECT_EQ(ref.blame[i].delay_s, alt.blame[i].delay_s)
          << label << ": blame of task " << i;
    }
  }

 private:
  const TaskGraph* g_;
};

}  // namespace locmps::test

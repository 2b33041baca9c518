#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run.
///
/// Each span is a name, a start, an end and the index of the span that
/// was open when it began (its parent; -1 for a root). Spans are recorded
/// from the benchmark's own code around calls into the library's layers,
/// kept in memory, and written out once as a Chrome trace when the run
/// ends. A disabled tracer records nothing: a Scope then costs one branch,
/// which is how the untraced end-to-end run uses the same code.

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;
};

/// Per-name aggregate of the recorded spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;  ///< summed durations
  double mean_s() const { return count > 0 ? total_s / count : 0.0; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name)
        : t_(t.enabled_ ? &t : nullptr) {
      if (t_ != nullptr) idx_ = t_->open(name);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  std::map<std::string, SpanTotals> totals() const {
    std::map<std::string, SpanTotals> out;
    for (const Span& s : spans_) {
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_s += s.end_s - s.start_s;
    }
    return out;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, with its
  /// parent's index in args so the tree survives tools that re-nest.
  void write_chrome(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.start_s * 1e6
         << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  int open(std::string_view name) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({std::string(name), epoch_.seconds(), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    spans_[idx].end_s = epoch_.seconds();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  locmps::Stopwatch epoch_;
};

}  // namespace perfbench

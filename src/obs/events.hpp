#pragma once
/// \file events.hpp
/// Scheduler observability: structured decision events.
///
/// An Event is a name plus flat key/value fields — one scheduler decision
/// (a widening, a placement, a look-ahead outcome). Sinks receive events
/// as they happen; the JSONL sink writes one JSON object per line with a
/// monotonic "t" stamp, giving a replayable decision trace
/// (docs/observability.md documents the taxonomy).
///
/// ObsContext bundles the registry and sink into the single pointer the
/// instrumented layers carry. A null context pointer is the fast path:
/// every instrumented site guards all its work — including constructing
/// the Event — behind one `if (obs != nullptr)` branch.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "util/annotations.hpp"
#include "util/stopwatch.hpp"

namespace locmps::obs {

/// One structured event. Built fluently:
///   Event("locmps.refine").with("task", t).with("gain", g)
class Event {
 public:
  using Value = std::variant<bool, std::int64_t, double, std::string>;

  explicit Event(std::string_view name) : name_(name) {}

  Event&& with(std::string_view key, bool v) && {
    fields_.emplace_back(key, Value(v));
    return std::move(*this);
  }
  Event&& with(std::string_view key, double v) && {
    fields_.emplace_back(key, Value(v));
    return std::move(*this);
  }
  Event&& with(std::string_view key, std::int64_t v) && {
    fields_.emplace_back(key, Value(v));
    return std::move(*this);
  }
  Event&& with(std::string_view key, std::uint64_t v) && {
    fields_.emplace_back(key, Value(static_cast<std::int64_t>(v)));
    return std::move(*this);
  }
  Event&& with(std::string_view key, std::uint32_t v) && {
    fields_.emplace_back(key, Value(static_cast<std::int64_t>(v)));
    return std::move(*this);
  }
  Event&& with(std::string_view key, int v) && {
    fields_.emplace_back(key, Value(static_cast<std::int64_t>(v)));
    return std::move(*this);
  }
  Event&& with(std::string_view key, std::string_view v) && {
    fields_.emplace_back(key, Value(std::string(v)));
    return std::move(*this);
  }
  Event&& with(std::string_view key, const char* v) && {
    fields_.emplace_back(key, Value(std::string(v)));
    return std::move(*this);
  }

  const std::string& name() const { return name_; }
  const std::vector<std::pair<std::string, Value>>& fields() const {
    return fields_;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Receiver of decision events.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& e) = 0;
  /// Events this sink discarded because a retention bound was hit.
  /// Harness layers fold it into the "obs.trace.dropped" counter so a
  /// truncated decision trace is never silent.
  virtual std::uint64_t dropped() const { return 0; }
};

/// Writes events as JSON Lines: {"ev":<name>,"t":<seconds>,<fields>...}.
/// "t" is seconds since sink construction on a monotonic clock. The caller
/// owns the stream and its lifetime.
///
/// Bounded like EventBuffer: at most max_lines events are written; later
/// emits are counted in dropped() instead of growing the trace file
/// without limit on pathological graphs.
class JsonlSink final : public EventSink {
 public:
  /// Default line bound. Roomy — a full fig06 sweep stays well under it —
  /// while still capping a runaway emitter's disk use.
  static constexpr std::uint64_t kMaxLines = 1u << 20;

  explicit JsonlSink(std::ostream& os, std::uint64_t max_lines = kMaxLines)
      : os_(os), max_lines_(max_lines) {}
  void emit(const Event& e) override;
  std::uint64_t dropped() const override { return dropped_; }

 private:
  std::ostream& os_;
  Stopwatch epoch_;
  std::uint64_t max_lines_ = kMaxLines;
  std::uint64_t lines_ = 0;
  std::uint64_t dropped_ = 0;
};

/// JSON string escaping shared by the JSONL sink and the chrome-trace
/// exporter (quotes, backslashes, control characters).
std::string json_escape(std::string_view in);

/// Buffers events in memory (tests, and callers that inspect a trace
/// in process). Thread-compatible like the registry.
///
/// Capacity is bounded at kMaxEvents: once full, further emits are
/// counted in dropped() instead of growing the buffer without limit, so
/// a truncated decision trace is never silent.
class LOCMPS_THREAD_COMPATIBLE EventBuffer final : public EventSink {
 public:
  /// Retention bound, like MetricsRegistry::kMaxSamples in spirit:
  /// small enough that a runaway emitter cannot exhaust memory. A LoC-MPS
  /// plan emits one event per refinement and two per round and per task
  /// (6,284 for a 50-task synthetic DAG on 16 processors). Callers that
  /// need the whole stream must check dropped().
  static constexpr std::size_t kMaxEvents = 65536;

  void emit(const Event& e) override {
    if (events_.size() >= kMaxEvents) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<Event>& events() const { return events_; }
  /// Events discarded because the buffer was full.
  std::uint64_t dropped() const override { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

class Profiler;  // obs/profile.hpp

/// The handle instrumented layers carry. Any member may be null; the
/// whole context pointer is null when observability is off (the zero-cost
/// default).
struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  EventSink* sink = nullptr;
  Profiler* profile = nullptr;
};

/// Emit helper: true when \p obs has a sink attached.
[[nodiscard]] inline bool wants_events(const ObsContext* obs) {
  return obs != nullptr && obs->sink != nullptr;
}

/// Metrics helper: the registry, or null.
[[nodiscard]] inline MetricsRegistry* metrics_of(const ObsContext* obs) {
  return obs != nullptr ? obs->metrics : nullptr;
}

}  // namespace locmps::obs

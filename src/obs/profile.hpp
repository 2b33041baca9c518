#pragma once
/// \file profile.hpp
/// Scheduler self-profiling: hierarchical RAII spans with wall-time,
/// CPU-time, and allocation attribution.
///
/// A Profiler owns a tree of named spans. Instrumented code opens spans
/// with the LOCMPS_SPAN macro:
///
///   void hole_scan(..., const obs::ObsContext* obs) {
///     LOCMPS_SPAN(obs, "locbs.hole_scan");
///     ...
///   }
///
/// Each span records, on close: one count, the wall-clock delta
/// (steady clock), the calling thread's CPU-time delta
/// (CLOCK_THREAD_CPUTIME_ID), and the thread's allocation delta (bytes
/// and call count) as measured by the counting `operator new` hook that
/// the LOCMPS_PROFILE build option compiles into the library. Spans
/// nest: a span opened while another is open becomes (or reuses) a child
/// node, so the tree mirrors the dynamic call structure of the planner.
///
/// Like MetricsRegistry, a Profiler is thread-COMPATIBLE, not
/// thread-safe: exactly one thread records into a given profiler at a
/// time.
///
/// The profiler's own bookkeeping (node creation, interval records)
/// runs with allocation counting paused, so span allocation deltas
/// attribute only the instrumented code's allocations. Span counts and
/// byte totals are exactly reproducible run to run
/// (tests/test_self_profile.cpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/stopwatch.hpp"

namespace locmps::obs {

struct ObsContext;  // events.hpp

// ---------------------------------------------------------------------------
// Allocation accounting (counting operator new hook).

/// Per-thread allocation counters. Monotonic: only `operator new`
/// advances them (frees are not tracked — spans measure allocation
/// pressure, not live bytes).
struct AllocCounters {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

/// The calling thread's allocation counters. Always callable; stays at
/// zero when the build lacks the LOCMPS_PROFILE hook.
const AllocCounters& thread_alloc_counters() noexcept;

/// Process-wide totals across all threads (relaxed atomics).
AllocCounters process_alloc_totals() noexcept;

/// True when the counting operator new hook is compiled in
/// (-DLOCMPS_PROFILE=ON, forced off under sanitizers).
bool alloc_counting_enabled() noexcept;

/// Pauses/resumes allocation counting on the calling thread. Paired;
/// nestable. The profiler brackets its own bookkeeping with these so
/// profiler-internal allocations never pollute span deltas.
void pause_alloc_counting() noexcept;
void resume_alloc_counting() noexcept;

/// The calling thread's CPU seconds (CLOCK_THREAD_CPUTIME_ID), or 0.0
/// where unsupported.
double thread_cpu_seconds() noexcept;

/// Peak resident set size of the process in bytes (getrusage ru_maxrss),
/// or 0 where unsupported. Used by the bench telemetry memory rows.
std::uint64_t peak_rss_bytes() noexcept;

// ---------------------------------------------------------------------------
// Snapshot value types.

/// One aggregated node of the span tree. `wall_s`/`cpu_s`/allocation
/// fields are totals inclusive of children; self time is derived.
struct ProfileNode {
  std::string name;  ///< one path segment, e.g. "locbs.hole_scan"
  std::uint64_t count = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
  std::vector<ProfileNode> children;  ///< sorted by name

  /// Child with \p child_name, or null.
  const ProfileNode* child(std::string_view child_name) const;

  /// Wall seconds not covered by children (clamped at zero).
  double self_wall_s() const;
  /// CPU seconds not covered by children (clamped at zero).
  double self_cpu_s() const;
};

/// One closed span occurrence, for the Perfetto nested-slice export.
/// Times are seconds since the owning profiler's epoch.
struct ProfileInterval {
  std::string name;  ///< leaf span name
  int depth = 0;     ///< nesting depth at open (root spans are 0)
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// Value-type copy of a profiler's state: the aggregate tree plus the
/// bounded interval log. The root node is unnamed and carries no
/// aggregates of its own; totals live in its children.
struct ProfileSnapshot {
  ProfileNode root;
  std::vector<ProfileInterval> intervals;  ///< in close order
  /// Closes left out of `intervals` by the per-node kMaxIntervals bound.
  std::uint64_t intervals_dropped = 0;

  bool empty() const { return root.children.empty(); }

  /// Node at a ';'-joined path, e.g. "harness.plan;locmps.run", or null.
  const ProfileNode* find(std::string_view path) const;
};

// ---------------------------------------------------------------------------
// Profiler.

/// Hierarchical span recorder. See file comment for the threading
/// contract (thread-compatible, one recording thread at a time).
class LOCMPS_THREAD_COMPATIBLE Profiler {
 public:
  /// Per-node bound on retained ProfileIntervals: each span-tree node
  /// logs the intervals of its first kMaxIntervals closes, so a hot inner
  /// span cannot crowd the outer spans out of the log. Aggregates keep
  /// accumulating past the bound; the dropped closes are counted.
  static constexpr std::size_t kMaxIntervals = 16384;

  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// RAII span handle. Inert when constructed with a null profiler, so
  /// instrumentation sites pay one branch when profiling is off.
  class Span {
   public:
    Span(Profiler* prof, std::string_view name);
    ~Span() { stop(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early (idempotent).
    void stop();

   private:
    Profiler* prof_ = nullptr;
  };

  /// Opens a named child span of the innermost open span.
  [[nodiscard]] Span span(std::string_view name) { return Span(this, name); }

  /// Seconds since this profiler's construction (interval timebase).
  double now() const { return epoch_.seconds(); }

  /// Deep copy of the aggregate tree + interval log. Open spans have
  /// not contributed yet (they record on close).
  ProfileSnapshot snapshot() const;

  /// Clears the tree, the interval log, and the epoch. Must not be
  /// called while spans are open.
  void reset();

 private:
  struct Node {
    std::uint64_t count = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t allocs = 0;
    std::map<std::string, Node, std::less<>> children;
  };

  struct Frame {
    Node* node = nullptr;
    const std::string* name = nullptr;  ///< key in the parent's map
    double wall0 = 0.0;
    double cpu0 = 0.0;
    std::uint64_t bytes0 = 0;
    std::uint64_t allocs0 = 0;
  };

  /// The node new spans nest under: innermost open span, else root.
  Node* current() {
    return stack_.empty() ? &root_ : stack_.back().node;
  }
  void open_span(std::string_view name);
  void close_span();
  static void copy_node(const Node& from, std::string_view name,
                        ProfileNode& out);

  Node root_;
  std::vector<Frame> stack_;
  std::vector<ProfileInterval> intervals_;
  std::uint64_t intervals_dropped_ = 0;
  Stopwatch epoch_;
};

using ProfileSpan = Profiler::Span;

/// Profiler helper mirroring metrics_of/wants_events (events.hpp): the
/// attached profiler, or null.
[[nodiscard]] Profiler* profiler_of(const ObsContext* obs);

// Span convenience macro: opens an RAII span on the context's profiler
// (no-op when obs or its profiler is null). Usable once per line.
#define LOCMPS_SPAN_CAT2(a, b) a##b
#define LOCMPS_SPAN_CAT(a, b) LOCMPS_SPAN_CAT2(a, b)
#define LOCMPS_SPAN(obs_ctx, name)                              \
  ::locmps::obs::ProfileSpan LOCMPS_SPAN_CAT(locmps_span_,      \
                                             __LINE__)(         \
      ::locmps::obs::profiler_of(obs_ctx), (name))

}  // namespace locmps::obs

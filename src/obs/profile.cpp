#include "obs/profile.hpp"

#include <atomic>
#include <cstdlib>
#include <ctime>
#include <new>

#include "obs/events.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace locmps::obs {

namespace {

// Thread-local allocation state. Defined unconditionally so the
// accessors work (and report zeros) in builds without the hook.
thread_local AllocCounters tl_alloc;     // NOLINT(misc-use-internal-linkage)
thread_local int tl_alloc_pause = 0;     // >0 = counting paused

/// One thread's share of the process totals. Only the thread that owns
/// the slot writes it (a load and a store, no read-modify-write), so
/// threads allocating at once share no cache line; process_alloc_totals
/// sums every slot. A slot outlives its thread: the next thread to claim
/// it keeps adding to it, so the sum never loses an allocation.
struct AllocSlot {
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> count{0};
  std::atomic<bool> owned{true};
  AllocSlot* next = nullptr;  ///< set once, before the slot is published

  void add(std::uint64_t n) noexcept {
    bytes.store(bytes.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
};

std::atomic<AllocSlot*> g_alloc_slots{nullptr};  ///< push-only list
/// Allocations made after a thread released its slot (by its own
/// thread-exit destructors): shared, so counted with read-modify-writes.
std::atomic<std::uint64_t> g_late_bytes{0};
std::atomic<std::uint64_t> g_late_count{0};

}  // namespace

const AllocCounters& thread_alloc_counters() noexcept { return tl_alloc; }

AllocCounters process_alloc_totals() noexcept {
  AllocCounters out;
  out.bytes = g_late_bytes.load(std::memory_order_relaxed);
  out.count = g_late_count.load(std::memory_order_relaxed);
  for (const AllocSlot* slot = g_alloc_slots.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    out.bytes += slot->bytes.load(std::memory_order_relaxed);
    out.count += slot->count.load(std::memory_order_relaxed);
  }
  return out;
}

bool alloc_counting_enabled() noexcept {
#if defined(LOCMPS_PROFILE_ALLOC)
  return true;
#else
  return false;
#endif
}

void pause_alloc_counting() noexcept { ++tl_alloc_pause; }
void resume_alloc_counting() noexcept { --tl_alloc_pause; }

double thread_cpu_seconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// Snapshot value types.

const ProfileNode* ProfileNode::child(std::string_view child_name) const {
  for (const ProfileNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

double ProfileNode::self_wall_s() const {
  double s = wall_s;
  for (const ProfileNode& c : children) s -= c.wall_s;
  return s > 0.0 ? s : 0.0;
}

double ProfileNode::self_cpu_s() const {
  double s = cpu_s;
  for (const ProfileNode& c : children) s -= c.cpu_s;
  return s > 0.0 ? s : 0.0;
}

const ProfileNode* ProfileSnapshot::find(std::string_view path) const {
  const ProfileNode* node = &root;
  while (!path.empty()) {
    const std::size_t cut = path.find(';');
    const std::string_view seg =
        cut == std::string_view::npos ? path : path.substr(0, cut);
    path = cut == std::string_view::npos ? std::string_view{}
                                         : path.substr(cut + 1);
    node = node->child(seg);
    if (node == nullptr) return nullptr;
  }
  return node == &root ? nullptr : node;
}

// ---------------------------------------------------------------------------
// Profiler.

Profiler::Profiler() {
  pause_alloc_counting();
  intervals_.reserve(kMaxIntervals);
  resume_alloc_counting();
}

Profiler::~Profiler() = default;

Profiler::Span::Span(Profiler* prof, std::string_view name) : prof_(prof) {
  if (prof_ != nullptr) prof_->open_span(name);
}

void Profiler::Span::stop() {
  if (prof_ != nullptr) {
    prof_->close_span();
    prof_ = nullptr;
  }
}

void Profiler::open_span(std::string_view name) {
  pause_alloc_counting();
  // Heterogeneous find first: spans re-open the same node thousands of
  // times, and materializing the key string (a malloc for names past the
  // SSO limit) on every entry is measurable on hot LoCBS spans.
  auto& children = current()->children;
  auto it = children.find(name);
  if (it == children.end()) {
    it = children.try_emplace(std::string(name)).first;
  }
  Frame f;
  f.node = &it->second;
  f.name = &it->first;
  stack_.push_back(f);
  resume_alloc_counting();
  // Clocks and counters read last so bookkeeping cost stays outside the
  // measured window.
  Frame& back = stack_.back();
  back.bytes0 = tl_alloc.bytes;
  back.allocs0 = tl_alloc.count;
  back.cpu0 = thread_cpu_seconds();
  back.wall0 = epoch_.seconds();
}

void Profiler::close_span() {
  const double wall1 = epoch_.seconds();
  const double cpu1 = thread_cpu_seconds();
  const std::uint64_t bytes1 = tl_alloc.bytes;
  const std::uint64_t allocs1 = tl_alloc.count;
  const Frame f = stack_.back();
  pause_alloc_counting();
  stack_.pop_back();
  f.node->count += 1;
  f.node->wall_s += wall1 - f.wall0;
  f.node->cpu_s += cpu1 - f.cpu0;
  f.node->alloc_bytes += bytes1 - f.bytes0;
  f.node->allocs += allocs1 - f.allocs0;
  if (f.node->count <= kMaxIntervals) {
    ProfileInterval iv;
    iv.name = *f.name;
    iv.depth = static_cast<int>(stack_.size());
    iv.begin_s = f.wall0;
    iv.end_s = wall1;
    intervals_.push_back(std::move(iv));
  } else {
    ++intervals_dropped_;
  }
  resume_alloc_counting();
}

void Profiler::copy_node(const Node& from, std::string_view name,
                         ProfileNode& out) {
  out.name = std::string(name);
  out.count = from.count;
  out.wall_s = from.wall_s;
  out.cpu_s = from.cpu_s;
  out.alloc_bytes = from.alloc_bytes;
  out.allocs = from.allocs;
  out.children.reserve(from.children.size());
  for (const auto& [child_name, child] : from.children) {
    ProfileNode& c = out.children.emplace_back();
    copy_node(child, child_name, c);
  }
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot out;
  copy_node(root_, "", out.root);
  out.intervals = intervals_;
  out.intervals_dropped = intervals_dropped_;
  return out;
}

void Profiler::reset() {
  root_ = Node{};
  stack_.clear();
  intervals_.clear();
  intervals_dropped_ = 0;
  epoch_.reset();
}

Profiler* profiler_of(const ObsContext* obs) {
  return obs != nullptr ? obs->profile : nullptr;
}

}  // namespace locmps::obs

// ---------------------------------------------------------------------------
// Counting operator new hook (LOCMPS_PROFILE build option). Replaces the
// global allocation functions for every binary linking the library. The
// replacements delegate to malloc/free; they only add the counter bumps
// above (skipped while a profiler pauses counting on this thread).

#if defined(LOCMPS_PROFILE_ALLOC)

// GCC pairs the replaced operator delete with the *default* operator new
// when diagnosing; every operator new below is malloc-based, so free()
// is the matching deallocation.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace locmps::obs {
namespace {

thread_local AllocSlot* tl_slot = nullptr;
thread_local bool tl_slot_released = false;

/// Hands the thread's slot back when the thread exits.
struct SlotRelease {
  SlotRelease() = default;
  SlotRelease(const SlotRelease&) = delete;
  SlotRelease& operator=(const SlotRelease&) = delete;
  ~SlotRelease() {
    tl_slot->owned.store(false, std::memory_order_release);
    tl_slot = nullptr;
    tl_slot_released = true;
  }
};

/// Claims a released slot, or publishes a new one. The slots live as
/// long as the process (malloc'd, never freed: they hold its totals).
AllocSlot* claim_alloc_slot() noexcept {
  for (AllocSlot* slot = g_alloc_slots.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    bool released = false;
    if (!slot->owned.load(std::memory_order_relaxed) &&
        slot->owned.compare_exchange_strong(released, true,
                                            std::memory_order_acquire))
      return slot;
  }
  void* mem = std::malloc(sizeof(AllocSlot));
  if (mem == nullptr) return nullptr;
  auto* slot = new (mem) AllocSlot;
  slot->next = g_alloc_slots.load(std::memory_order_relaxed);
  while (!g_alloc_slots.compare_exchange_weak(slot->next, slot,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
  }
  return slot;
}

/// Adds one allocation to the calling thread's slot, claiming one on the
/// thread's first allocation.
void note_process_alloc(std::uint64_t n) noexcept {
  if (tl_slot == nullptr && !tl_slot_released) {
    tl_slot = claim_alloc_slot();
    if (tl_slot != nullptr) {
      // Registers the release with the thread's exit (its bookkeeping
      // goes through malloc, not this hook).
      static thread_local const SlotRelease release;
      (void)release;
    }
  }
  if (tl_slot != nullptr) {
    tl_slot->add(n);
    return;
  }
  g_late_bytes.fetch_add(n, std::memory_order_relaxed);
  g_late_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace
}  // namespace locmps::obs

namespace {

inline void locmps_note_alloc(std::size_t n) noexcept {
  using locmps::obs::tl_alloc;
  using locmps::obs::tl_alloc_pause;
  if (tl_alloc_pause == 0) {
    tl_alloc.bytes += n;
    tl_alloc.count += 1;
    locmps::obs::note_process_alloc(n);
  }
}

inline void* locmps_alloc(std::size_t n) noexcept {
  locmps_note_alloc(n);
  return std::malloc(n != 0 ? n : 1);
}

inline void* locmps_alloc_aligned(std::size_t n, std::size_t align) noexcept {
  locmps_note_alloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n != 0 ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = locmps_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  void* p = locmps_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return locmps_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return locmps_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t align) {
  void* p = locmps_alloc_aligned(n, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n, std::align_val_t align) {
  void* p = locmps_alloc_aligned(n, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return locmps_alloc_aligned(n, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return locmps_alloc_aligned(n, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LOCMPS_PROFILE_ALLOC

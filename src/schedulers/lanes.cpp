#include "schedulers/lanes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace locmps::lanes {

namespace {

std::atomic<bool> g_forked{false};
std::atomic<PassHook> g_pass_hook{nullptr};
std::atomic<std::size_t> g_batches{0};

std::size_t usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// How long a waiting thread polls before it sleeps in the kernel. The
/// batches of one plan follow each other within a walk or two, so helpers
/// that poll this long are awake for the next batch, and waking a
/// sleeping one would cost about a short walk.
constexpr std::chrono::microseconds kPoll{200};

/// Returns once \p a no longer holds \p old (acquire), and its new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old) noexcept {
  const auto until = std::chrono::steady_clock::now() + kPoll;
  for (unsigned spin = 1;; ++spin) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    if (spin % 64 == 0 && std::chrono::steady_clock::now() > until) break;
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

/// One helper's doorbell, on its own cache line: the caller rings it once
/// per batch that may need the helper.
struct alignas(64) Doorbell {
  std::atomic<std::uint32_t> rings{0};
};

/// The helpers. Never destroyed: its threads are detached and wait on
/// their doorbells until the process exits.
///
/// A batch's lanes are claimed in order, one at a time, by whichever
/// thread is free: lane 0 by the caller, the others by helpers that hear
/// their doorbell in time and by the caller once its own lane returns. So
/// the caller never waits for a helper that has not started; a batch
/// whose helpers are asleep runs on the caller alone, as one lane would.
class Pool {
 public:
  explicit Pool(std::size_t helpers)
      : bells_(std::make_unique<Doorbell[]>(helpers)) {
    try {
      for (; helpers_ < helpers; ++helpers_)
        std::thread([this, h = helpers_] { serve(h); }).detach();
    } catch (...) {
      // No more threads: the helpers started so far serve the pool.
    }
  }

  bool run(std::size_t n, Job job, void* ctx) noexcept {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    job_ = job;
    ctx_ = ctx;
    done_.store(0, std::memory_order_relaxed);
    // Lane 0 is claimed: it is the caller's.
    claims_.store((++batch_ << 8) | (n << 4) | 1, std::memory_order_release);
    for (std::size_t h = 0; h < std::min(n - 1, helpers_); ++h) {
      bells_[h].rings.fetch_add(1, std::memory_order_release);
      bells_[h].rings.notify_one();
    }
    job(ctx, 0, 0);
    std::uint32_t theirs = static_cast<std::uint32_t>(n - 1);
    for (std::size_t lane; claim(lane); --theirs) job(ctx, lane, 0);
    for (std::uint32_t d; (d = done_.load(std::memory_order_acquire)) != theirs;)
      await_change(done_, d);
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  /// Takes the running batch's next unclaimed lane, if any (acquire: the
  /// batch's job, context and lanes are then visible).
  bool claim(std::size_t& lane) noexcept {
    std::uint64_t c = claims_.load(std::memory_order_acquire);
    do {
      if ((c & 0xf) == ((c >> 4) & 0xf)) return false;
    } while (!claims_.compare_exchange_weak(c, c + 1,
                                            std::memory_order_acquire));
    lane = c & 0xf;
    return true;
  }

  [[noreturn]] void serve(std::size_t h) noexcept {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await_change(bells_[h].rings, seen);
      for (std::size_t lane; claim(lane);) {
        job_(ctx_, lane, h + 1);
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_one();
      }
    }
  }

  std::size_t helpers_ = 0;  ///< started; fixed once constructed
  std::atomic<bool> busy_{false};
  std::uint64_t batch_ = 0;  ///< the caller's count of batches
  // Written by the caller before it publishes a batch in claims_
  // (release) and read by a thread that claimed one of its lanes
  // (acquire).
  Job job_ = nullptr;
  void* ctx_ = nullptr;
  /// The running batch: its number << 8 | lanes << 4 | next lane. The
  /// number keeps a claim from landing in a later batch than the one it
  /// read.
  alignas(64) std::atomic<std::uint64_t> claims_{0};
  /// Lanes of the running batch that helpers claimed and finished.
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::unique_ptr<Doorbell[]> bells_;
};

/// The pool, started on first use; null if it could not be allocated.
Pool* pool() noexcept {
  static Pool* const p = []() noexcept -> Pool* {
#if defined(__linux__)
    pthread_atfork(nullptr, nullptr,
                   [] { g_forked.store(true, std::memory_order_relaxed); });
#endif
    try {
      return new Pool(width() - 1);
    } catch (...) {
      return nullptr;
    }
  }();
  return p;
}

}  // namespace

std::size_t width() noexcept {
  static const std::size_t cpus = std::min(usable_cpus(), kMaxLanes);
  return g_forked.load(std::memory_order_relaxed) ? 1 : cpus;
}

bool run(std::size_t n, Job job, void* ctx) noexcept {
  if (g_forked.load(std::memory_order_relaxed)) return false;
  Pool* const p = pool();
  if (p == nullptr || !p->run(n, job, ctx)) return false;
  g_batches.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t batches_run() noexcept {
  return g_batches.load(std::memory_order_relaxed);
}

void set_pass_hook(PassHook hook) noexcept {
  g_pass_hook.store(hook, std::memory_order_relaxed);
}

PassHook pass_hook() noexcept {
  return g_pass_hook.load(std::memory_order_relaxed);
}

}  // namespace locmps::lanes

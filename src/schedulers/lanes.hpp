#pragma once
/// \file lanes.hpp
/// The process-wide helper pool on which LoC-MPS runs speculative
/// look-ahead rounds (schedulers/loc_mps.cpp, docs/ALGORITHMS.md §3).
///
/// After a look-ahead round reverts, the next rounds' entries are known
/// before any of them runs, so an unobserved plan walks up to width()
/// rounds at once, one per lane: lane 0 on the calling thread, the others
/// on helper threads started on the pool's first use and kept for the
/// life of the process. A lane no helper has claimed when the caller's
/// lane returns runs on the caller, so a batch never waits for a helper
/// to wake. The pool synchronizes with atomics only (a doorbell per
/// helper, a claim word, a done count), so it takes no lock. One plan
/// uses the pool at a time; a plan that finds it busy runs its rounds on
/// one lane, as does every plan in a forked child, whose helpers do not
/// exist.

#include <cstddef>

namespace locmps {

struct IncrementalContext;  // schedulers/incremental.hpp

namespace lanes {

/// Most lanes one plan runs at once.
inline constexpr std::size_t kMaxLanes = 4;

/// Lanes a plan may run at once: the CPUs this process may run on, at
/// most kMaxLanes; 1 on a one-CPU host and in a forked child.
std::size_t width() noexcept;

/// A lane's work: called once per lane with the lane's index and the
/// thread that runs it (0 the caller, h + 1 helper h; a thread runs one
/// lane at a time). It must not throw; a lane keeps its own exception for
/// the caller to fold.
using Job = void (*)(void* ctx, std::size_t lane, std::size_t thread);

/// Runs job(ctx, i) once for every lane i < n, at once where helpers are
/// free: lane 0 on the calling thread, each other lane on the first
/// thread to claim it, in lane order. Returns when all n have returned.
/// Returns false without running anything when the pool is busy with
/// another plan or the process is a fork of the one that started it.
/// 2 <= n <= width().
bool run(std::size_t n, Job job, void* ctx) noexcept;

/// run() over a callable taking the lane and the thread.
template <typename Fn>
bool run(std::size_t n, Fn& fn) noexcept {
  return run(
      n,
      [](void* ctx, std::size_t lane, std::size_t thread) {
        (*static_cast<Fn*>(ctx))(lane, thread);
      },
      &fn);
}

/// Batches run() has run in this process (a test's evidence that plans
/// batched at all).
std::size_t batches_run() noexcept;

/// Test seam: when set, LoC-MPS calls it before every LoCBS pass of a
/// look-ahead walk with the round, the lane (0 = the calling thread's)
/// and the evaluation stream of the thread that walks it. A throw from it
/// acts as a throw from that pass. Null — the default — in every real run.
using PassHook = void (*)(std::size_t round, std::size_t lane,
                          IncrementalContext& stream);
void set_pass_hook(PassHook hook) noexcept;
PassHook pass_hook() noexcept;

}  // namespace lanes
}  // namespace locmps

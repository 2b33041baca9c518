#pragma once
/// \file annotations.hpp
/// Clang thread-safety annotations (docs/static_analysis.md).
///
/// Under Clang with -Wthread-safety the LOCMPS_* macros expand to the
/// `capability` attribute family, so taking a lock out of order or
/// touching a LOCMPS_GUARDED_BY member without its mutex fails the build
/// (CI runs clang++ -Werror=thread-safety over the whole library). Under
/// GCC and MSVC they expand to nothing and cost nothing.
///
/// Raw std::mutex carries none of these attributes in libstdc++, which
/// makes locking through it invisible to the analysis — that is why
/// locmps-lint's raw-mutex rule bans naked std synchronization primitives
/// everywhere but this header. Code that needs a lock wraps the primitive
/// here first, in a class that carries LOCMPS_CAPABILITY; the planner
/// itself takes no locks (its look-ahead lanes synchronize through
/// atomics, schedulers/lanes.cpp).
///
/// Thread-compatible classes (safe from one thread at a time, externally
/// synchronized or thread-private by design — obs::MetricsRegistry,
/// obs::EventBuffer) carry the LOCMPS_THREAD_COMPATIBLE marker instead of
/// a capability: they have no lock for the analysis to track, and
/// compare_schemes' worker grid gives every run its own
/// (core/experiment.cpp).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LOCMPS_TSA(x) __attribute__((x))
#endif
#endif
#ifndef LOCMPS_TSA
#define LOCMPS_TSA(x)  // not Clang: annotations compile away
#endif

/// Class attribute: instances are lockable capabilities.
#define LOCMPS_CAPABILITY(name) LOCMPS_TSA(capability(name))
/// Class attribute: RAII objects that hold a capability for their scope.
#define LOCMPS_SCOPED_CAPABILITY LOCMPS_TSA(scoped_lockable)
/// Member attribute: reads/writes require holding the given capability.
#define LOCMPS_GUARDED_BY(x) LOCMPS_TSA(guarded_by(x))
/// Member attribute: the pointee is guarded by the given capability.
#define LOCMPS_PT_GUARDED_BY(x) LOCMPS_TSA(pt_guarded_by(x))
/// Function attribute: caller must hold the capability.
#define LOCMPS_REQUIRES(...) \
  LOCMPS_TSA(requires_capability(__VA_ARGS__))
/// Function attribute: caller must NOT hold the capability.
#define LOCMPS_EXCLUDES(...) LOCMPS_TSA(locks_excluded(__VA_ARGS__))
/// Function attribute: acquires the capability (and does not release it).
#define LOCMPS_ACQUIRE(...) \
  LOCMPS_TSA(acquire_capability(__VA_ARGS__))
/// Function attribute: releases the capability.
#define LOCMPS_RELEASE(...) \
  LOCMPS_TSA(release_capability(__VA_ARGS__))
/// Function attribute: acquires the capability when returning `ret`.
#define LOCMPS_TRY_ACQUIRE(ret, ...) \
  LOCMPS_TSA(try_acquire_capability(ret, __VA_ARGS__))
/// Function attribute: returns a reference to the given capability.
#define LOCMPS_RETURN_CAPABILITY(x) LOCMPS_TSA(lock_returned(x))
/// Function attribute: opt this function out of the analysis (use only
/// with a comment explaining why the analysis cannot see the invariant).
#define LOCMPS_NO_THREAD_SAFETY_ANALYSIS \
  LOCMPS_TSA(no_thread_safety_analysis)

/// Documentation-only marker for thread-compatible classes: safe from one
/// thread at a time; confinement (not a lock) is the synchronization.
#define LOCMPS_THREAD_COMPATIBLE

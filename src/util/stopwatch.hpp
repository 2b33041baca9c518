#pragma once
/// \file stopwatch.hpp
/// Wall-clock timing for scheduling-overhead measurements (Fig 6b, Fig 10).

#include <chrono>

namespace locmps {

/// Monotonic stopwatch, started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }


 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace locmps

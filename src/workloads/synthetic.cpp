#include "workloads/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "speedup/downey.hpp"

namespace locmps {

TaskGraph make_synthetic_dag(const SyntheticParams& p, Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(p.min_tasks),
                      static_cast<std::int64_t>(p.max_tasks)));
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    // Uniform with the requested mean; bounded away from zero so profiles
    // stay positive.
    const double t1 =
        std::max(1e-3, rng.uniform(0.0, 2.0 * p.mean_serial_time));
    const double A = rng.uniform(1.0, p.amax);
    const DowneyModel model(A, p.sigma);
    g.add_task("t" + std::to_string(i),
               ExecutionProfile(model, t1, p.max_procs));
  }
  // Random precedence: task i draws predecessors among earlier tasks so the
  // result is a DAG by construction. In-degree ~ U[1, 2*avg-1] gives the
  // requested average degree once i is large enough.
  const auto deg_hi =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(2.0 * p.avg_degree) - 1);
  // The 'want' distinct predecessors are a partial Fisher-Yates shuffle of
  // the pool 0..i-1, kept sparse: a slot is listed once a swap touches it
  // (at most 2*want of them), and an unlisted slot x holds task x. This
  // keeps the generator linear in |V|.
  std::vector<std::pair<std::size_t, TaskId>> pool;  // (slot, task)
  auto entry = [&](std::size_t slot) {  // slot's index in pool
    for (std::size_t e = 0; e < pool.size(); ++e)
      if (pool[e].first == slot) return e;
    pool.emplace_back(slot, static_cast<TaskId>(slot));
    return pool.size() - 1;
  };
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(i), rng.uniform_int(1, deg_hi)));
    pool.clear();
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(k),
                          static_cast<std::int64_t>(i) - 1));
      // Swap by index: entry() may grow the pool.
      const std::size_t ek = entry(k);
      const std::size_t ej = entry(j);
      std::swap(pool[ek].second, pool[ej].second);
      const double cost =
          p.ccr > 0.0
              ? rng.uniform(0.0, 2.0 * p.mean_serial_time * p.ccr)
              : 0.0;
      g.add_edge(pool[ek].second, static_cast<TaskId>(i),
                 cost * p.bandwidth_Bps);
    }
  }
  return g;
}

std::vector<TaskGraph> make_synthetic_suite(const SyntheticParams& p,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<TaskGraph> out;
  out.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng child = rng.split(i + 1);
    out.push_back(make_synthetic_dag(p, child));
  }
  return out;
}

}  // namespace locmps

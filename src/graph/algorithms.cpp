#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace locmps {

std::vector<TaskId> topological_order(const TaskGraph& g) {
  std::vector<std::size_t> indeg(g.num_tasks());
  for (TaskId t : g.task_ids()) indeg[t] = g.in_degree(t);
  std::vector<TaskId> stack;
  for (TaskId t : g.task_ids())
    if (indeg[t] == 0) stack.push_back(t);
  std::vector<TaskId> order;
  order.reserve(g.num_tasks());
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    order.push_back(t);
    for (EdgeId e : g.out_edges(t)) {
      const TaskId d = g.edge(e).dst;
      if (--indeg[d] == 0) stack.push_back(d);
    }
  }
  if (order.size() != g.num_tasks())
    throw std::invalid_argument("topological_order: graph has a cycle");
  return order;
}

namespace {

/// Iterative DFS marking every vertex reachable from t via \p next.
template <typename NextFn>
std::vector<char> reach(const TaskGraph& g, TaskId t, NextFn&& next) {
  std::vector<char> seen(g.num_tasks(), 0);
  std::vector<TaskId> stack{t};
  seen[t] = 1;
  while (!stack.empty()) {
    const TaskId u = stack.back();
    stack.pop_back();
    next(u, [&](TaskId v) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    });
  }
  return seen;
}

}  // namespace

std::vector<char> descendants(const TaskGraph& g, TaskId t) {
  return reach(g, t, [&](TaskId u, auto&& visit) {
    for (EdgeId e : g.out_edges(u)) visit(g.edge(e).dst);
  });
}

std::vector<char> ancestors(const TaskGraph& g, TaskId t) {
  return reach(g, t, [&](TaskId u, auto&& visit) {
    for (EdgeId e : g.in_edges(u)) visit(g.edge(e).src);
  });
}

std::vector<TaskId> concurrent_set(const TaskGraph& g, TaskId t) {
  const auto desc = descendants(g, t);
  const auto anc = ancestors(g, t);
  std::vector<TaskId> out;
  for (TaskId u : g.task_ids())
    if (!desc[u] && !anc[u]) out.push_back(u);
  return out;
}

ConcurrencyAnalysis::ConcurrencyAnalysis(const TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  ratio_.assign(n, 0.0);
  if (n == 0) return;
  const std::vector<TaskId> order = topological_order(g);
  std::vector<double> serial(n);
  for (TaskId u = 0; u < n; ++u) serial[u] = g.task(u).profile.serial_time();
  // 64 tasks at a time: bit j of desc[u] (anc[u]) says that u is a
  // descendant (an ancestor) of task base + j, itself included. One sweep
  // in topological order and one against it propagate all 64 at once.
  std::vector<std::uint64_t> desc(n), anc(n);
  double work[64];
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t width = std::min<std::size_t>(64, n - base);
    auto self = [&](TaskId u) {
      return u >= base && u < base + width ? std::uint64_t{1} << (u - base)
                                           : std::uint64_t{0};
    };
    for (TaskId u : order) {
      std::uint64_t m = self(u);
      for (EdgeId e : g.in_edges(u)) m |= desc[g.edge(e).src];
      desc[u] = m;
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      std::uint64_t m = self(*it);
      for (EdgeId e : g.out_edges(*it)) m |= anc[g.edge(e).dst];
      anc[*it] = m;
    }
    // Ascending u, the order of concurrent_set, so every sum adds the same
    // terms in the same order as summing over concurrent_set(g, t).
    const std::uint64_t chunk =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::fill(work, work + width, 0.0);
    for (TaskId u = 0; u < n; ++u)
      for (std::uint64_t m = chunk & ~(desc[u] | anc[u]); m != 0; m &= m - 1)
        work[std::countr_zero(m)] += serial[u];
    for (std::size_t j = 0; j < width; ++j)
      ratio_[base + j] = work[j] / serial[base + j];
  }
}

double Levels::critical_path_length() const {
  double best = 0.0;
  for (std::size_t i = 0; i < top.size(); ++i)
    best = std::max(best, top[i] + bottom[i]);
  return best;
}

}  // namespace locmps

#pragma once
/// \file algorithms.hpp
/// Graph algorithms over TaskGraph: topological order, reachability,
/// concurrency analysis (the cr(t) measure of Section III-C), and generic
/// top/bottom level computation parameterized by vertex/edge weights.

#include <concepts>
#include <stdexcept>
#include <vector>

#include "graph/task_graph.hpp"

namespace locmps {

/// Topological order of all tasks. Throws std::invalid_argument on cycles.
std::vector<TaskId> topological_order(const TaskGraph& g);

/// Boolean mask of tasks reachable from \p t following edge direction,
/// including \p t itself (DFS(G, t) in the paper's notation).
std::vector<char> descendants(const TaskGraph& g, TaskId t);

/// Boolean mask of tasks from which \p t is reachable, including \p t
/// (DFS on the transpose, DFS(G^T, t)).
std::vector<char> ancestors(const TaskGraph& g, TaskId t);

/// Maximal set of tasks that can run concurrently with \p t:
/// cG(t) = V - descendants(t) - ancestors(t), ascending. Two searches per
/// call; ConcurrencyAnalysis answers it for every task at once and is
/// checked against it.
std::vector<TaskId> concurrent_set(const TaskGraph& g, TaskId t);

/// Precomputed concurrency ratios for every task.
///
/// cr(t) = (sum of uniprocessor times of tasks concurrent with t) /
///         (uniprocessor time of t).
/// A low ratio means little work competes with t for processors, so widening
/// t is unlikely to serialize other critical work (Section III-C). The
/// analysis is purely structural, so it is computed once per graph and
/// cached by the schedulers. It propagates the reachability of 64 tasks at
/// a time as bit masks, in O(|V|) words, and adds each sum in the order of
/// concurrent_set, so every ratio equals the one summed over that set.
class ConcurrencyAnalysis {
 public:
  explicit ConcurrencyAnalysis(const TaskGraph& g);

  double ratio(TaskId t) const { return ratio_[t]; }
  const std::vector<double>& ratios() const { return ratio_; }

 private:
  std::vector<double> ratio_;
};

/// Top and bottom levels of every task under given weights.
struct Levels {
  /// topL(t): longest path length from any source to t, excluding t's own
  /// weight (0 for sources).
  std::vector<double> top;
  /// bottomL(t): longest path length from t to any sink, including t's own
  /// weight.
  std::vector<double> bottom;

  /// Critical-path length of the graph: max over t of top[t] + bottom[t].
  double critical_path_length() const;
};

/// Computes Levels with vertex weights \p vw(TaskId)->double and edge
/// weights \p ew(EdgeId)->double. Both callables must be pure.
template <typename VW, typename EW>
  requires std::invocable<VW, TaskId> && std::invocable<EW, EdgeId>
Levels compute_levels(const TaskGraph& g, VW&& vw, EW&& ew) {
  const auto order = topological_order(g);
  Levels lv;
  lv.top.assign(g.num_tasks(), 0.0);
  lv.bottom.assign(g.num_tasks(), 0.0);
  for (TaskId t : order) {
    double top = 0.0;
    for (EdgeId e : g.in_edges(t)) {
      const TaskId p = g.edge(e).src;
      top = std::max(top, lv.top[p] + vw(p) + ew(e));
    }
    lv.top[t] = top;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double below = 0.0;
    for (EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      below = std::max(below, ew(e) + lv.bottom[s]);
    }
    lv.bottom[t] = vw(t) + below;
  }
  return lv;
}

}  // namespace locmps

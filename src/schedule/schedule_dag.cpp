#include "schedule/schedule_dag.hpp"

#include <algorithm>
#include <stdexcept>

namespace locmps {

ScheduleDag::ScheduleDag(const TaskGraph& g)
    : g_(&g),
      vertex_time_(g.num_tasks(), 0.0),
      edge_time_(g.num_edges(), 0.0),
      pseudo_out_(g.num_tasks()),
      pseudo_in_(g.num_tasks()) {}

void ScheduleDag::add_pseudo_edge(TaskId src, TaskId dst) {
  if (src >= g_->num_tasks() || dst >= g_->num_tasks() || src == dst)
    throw std::invalid_argument("ScheduleDag: bad pseudo edge");
  pseudo_.emplace_back(src, dst);
  pseudo_out_[src].push_back(dst);
  pseudo_in_[dst].push_back(src);
}

CriticalPathInfo ScheduleDag::critical_path() const {
  const std::size_t n = g_->num_tasks();
  // Kahn order over the combined (real + pseudo) edge set.
  std::vector<std::size_t> indeg(n, 0);
  for (TaskId t = 0; t < n; ++t)
    indeg[t] = g_->in_degree(t) + pseudo_in_[t].size();
  std::vector<TaskId> stack;
  for (TaskId t = 0; t < n; ++t)
    if (indeg[t] == 0) stack.push_back(t);

  // Longest path ending at each vertex, with backtracking info.
  std::vector<double> dist(n, 0.0);
  std::vector<TaskId> pred(n, kNoTask);
  std::vector<EdgeId> pred_edge(n, kNoEdge);
  std::vector<TaskId> order;
  order.reserve(n);
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    order.push_back(t);
    dist[t] += vertex_time_[t];
    auto relax = [&](TaskId d, double w, EdgeId via) {
      if (dist[t] + w > dist[d]) {
        dist[d] = dist[t] + w;
        pred[d] = t;
        pred_edge[d] = via;
      }
    };
    for (EdgeId e : g_->out_edges(t))
      relax(g_->edge(e).dst, edge_time_[e], e);
    for (TaskId d : pseudo_out_[t]) relax(d, 0.0, kNoEdge);
    for (EdgeId e : g_->out_edges(t))
      if (--indeg[g_->edge(e).dst] == 0) stack.push_back(g_->edge(e).dst);
    for (TaskId d : pseudo_out_[t])
      if (--indeg[d] == 0) stack.push_back(d);
  }
  if (order.size() != n)
    throw std::logic_error("ScheduleDag: pseudo edges created a cycle");

  TaskId end = 0;
  for (TaskId t = 1; t < n; ++t)
    if (dist[t] > dist[end]) end = t;

  CriticalPathInfo cp;
  cp.length = dist[end];
  for (TaskId t = end; t != kNoTask; t = pred[t]) {
    cp.tasks.push_back(t);
    cp.comp_cost += vertex_time_[t];
    if (pred[t] != kNoTask) {
      cp.edges.push_back(pred_edge[t]);
      if (pred_edge[t] != kNoEdge) cp.comm_cost += edge_time_[pred_edge[t]];
    }
  }
  std::reverse(cp.tasks.begin(), cp.tasks.end());
  std::reverse(cp.edges.begin(), cp.edges.end());
  return cp;
}

}  // namespace locmps

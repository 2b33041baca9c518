#pragma once
/// \file schedule_dag.hpp
/// The schedule-DAG G' (Section III-A): the application DAG augmented with
/// zero-weight pseudo-edges representing dependences *induced by resource
/// limits* (task B had to wait for task A because A held the processors).
/// The critical path of G' is the longest path through the current
/// schedule; LoC-MPS attacks its dominating cost component each iteration.

#include <vector>

#include "graph/task_graph.hpp"

namespace locmps {

/// Sentinel edge id marking a pseudo-edge step on a critical path.
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// Critical path of a schedule-DAG, decomposed into its cost components.
struct CriticalPathInfo {
  std::vector<TaskId> tasks;  ///< path vertices, in precedence order
  /// edges[i] joins tasks[i] -> tasks[i+1]; kNoEdge denotes a pseudo-edge.
  std::vector<EdgeId> edges;
  double length = 0.0;     ///< total path length (Tcomp + Tcomm)
  double comp_cost = 0.0;  ///< sum of vertex weights on the path (Tcomp)
  double comm_cost = 0.0;  ///< sum of edge weights on the path (Tcomm)
};

/// G' = base graph + pseudo-edges, with per-vertex execution times (under
/// the current allocation) and per-edge realized communication times.
class ScheduleDag {
 public:
  /// Binds to \p g; vertex and edge weights start at zero. The referenced
  /// graph must outlive this object.
  explicit ScheduleDag(const TaskGraph& g);

  const TaskGraph& graph() const { return *g_; }

  void set_vertex_time(TaskId t, double w) { vertex_time_[t] = w; }
  double vertex_time(TaskId t) const { return vertex_time_[t]; }

  void set_edge_time(EdgeId e, double w) { edge_time_[e] = w; }
  double edge_time(EdgeId e) const { return edge_time_[e]; }

  /// Adds an induced dependence src -> dst (weight 0). Must not create a
  /// cycle; pseudo-edges always point forward in schedule time, so the
  /// scheduler upholds this by construction.
  void add_pseudo_edge(TaskId src, TaskId dst);

  const std::vector<std::pair<TaskId, TaskId>>& pseudo_edges() const {
    return pseudo_;
  }

  /// Longest path through G' under the stored weights, computed afresh on
  /// every call in O(|V| + |E| + pseudo-edges). LoC-MPS asks once per
  /// refinement, each time of a newly realized dag.
  CriticalPathInfo critical_path() const;

 private:
  const TaskGraph* g_;
  std::vector<double> vertex_time_;
  std::vector<double> edge_time_;
  std::vector<std::pair<TaskId, TaskId>> pseudo_;
  // Pseudo adjacency, indexed by task.
  std::vector<std::vector<TaskId>> pseudo_out_;
  std::vector<std::vector<TaskId>> pseudo_in_;
};

}  // namespace locmps

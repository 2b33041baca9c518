#pragma once
/// \file transform.hpp
/// Linear-chain coarsening, a scheduler preprocessing step: a maximal
/// chain of tasks with no other fan-in/fan-out can only ever execute
/// sequentially, so it can be scheduled as one composite task (classic
/// clustering); the composite runs its members back-to-back on the same
/// processor set, which also internalizes the chain's communication.
/// `schedule_tool --coarsen` schedules the coarse graph.

#include <vector>

#include "graph/task_graph.hpp"

namespace locmps {

/// Result of linear-chain coarsening.
struct Coarsening {
  TaskGraph graph;  ///< the coarse DAG of composite tasks
  /// member_of[original task] = composite task in `graph`.
  std::vector<TaskId> member_of;
  /// members[composite task] = original tasks in execution order.
  std::vector<std::vector<TaskId>> members;
};

/// Merges every maximal linear chain (consecutive tasks where the edge
/// u -> v satisfies out_degree(u) == 1 and in_degree(v) == 1) into one
/// composite task whose profile is the member-wise sum et_c(p) =
/// sum_i et_i(p). Edges between different composites are preserved with
/// their volumes; intra-chain edges are internalized.
Coarsening coarsen_chains(const TaskGraph& g);

}  // namespace locmps

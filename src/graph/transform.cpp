#include "graph/transform.hpp"

#include "graph/algorithms.hpp"

namespace locmps {

Coarsening coarsen_chains(const TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  // An edge u->v is contractible iff it is u's only out-edge and v's only
  // in-edge. Follow contractible edges to form maximal chains.
  auto contractible_next = [&](TaskId u) -> TaskId {
    if (g.out_degree(u) != 1) return kNoTask;
    const Edge& ed = g.edge(g.out_edges(u)[0]);
    return g.in_degree(ed.dst) == 1 ? ed.dst : kNoTask;
  };
  std::vector<char> has_contractible_pred(n, 0);
  for (TaskId u : g.task_ids())
    if (const TaskId v = contractible_next(u); v != kNoTask)
      has_contractible_pred[v] = 1;

  Coarsening c;
  c.member_of.assign(n, kNoTask);
  for (TaskId head : topological_order(g)) {
    if (has_contractible_pred[head]) continue;  // interior of some chain
    std::vector<TaskId> chain{head};
    for (TaskId v = contractible_next(head); v != kNoTask;
         v = contractible_next(v))
      chain.push_back(v);
    // Composite profile: member-wise sum (sequential execution).
    const std::size_t width = g.task(head).profile.max_procs();
    std::vector<double> table(width, 0.0);
    std::string name;
    for (TaskId t : chain) {
      for (std::size_t p = 1; p <= width; ++p)
        table[p - 1] += g.task(t).profile.time(p);
      if (!name.empty()) name += '+';
      name += g.task(t).name;
    }
    const TaskId comp =
        c.graph.add_task(std::move(name), ExecutionProfile(std::move(table)));
    for (TaskId t : chain) c.member_of[t] = comp;
    c.members.push_back(std::move(chain));
  }
  // Inter-composite edges (intra-chain edges collapse).
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    const TaskId a = c.member_of[ed.src];
    const TaskId b = c.member_of[ed.dst];
    if (a != b) c.graph.add_edge(a, b, ed.volume_bytes);
  }
  return c;
}

}  // namespace locmps

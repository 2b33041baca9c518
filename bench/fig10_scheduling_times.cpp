/// Figure 10: scheduling times of the schemes for (a) the CCSD T1
/// computation and (b) Strassen matrix multiplication (Section IV-B).
///
/// Expected shape: LoC-MPS is the most expensive scheme and CPA the
/// cheapest, but LoC-MPS's planning time stays orders of magnitude below
/// the application makespans it improves.
///
/// Every timed panel re-plans each cell LOCMPS_SCHED_REPS times (default
/// 5) so the sched_seconds medians carry order-statistic CIs the
/// scripts/bench_diff.py ratchet can gate on. Panel c plans a synthetic
/// suite with LoC-MPS twice, incrementally and from scratch
/// (incremental = false): the committed telemetry then contains both
/// sides of the incremental-replanning speedup, which CI pins with
/// `--speedup-gate` (an intra-document ratio, machine-independent).
/// Panel d stresses planning on a |V| >= 2000 synthetic DAG under a
/// bounded refinement budget (docs/incremental.md).

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "schedulers/registry.hpp"
#include "workloads/strassen.hpp"
#include "workloads/tce.hpp"

using namespace locmps;

namespace {

constexpr double kMyrinetBps = 2e9 / 8.0;

void panel(const char* name, const TaskGraph& g, const char* csv) {
  const auto procs = bench::proc_sweep();
  const std::vector<TaskGraph> graphs{g};
  const Comparison c =
      compare_schemes(graphs, paper_schemes(), procs, kMyrinetBps, true, {},
                      0, {}, bench::sched_reps());

  std::cout << "\n=== Fig 10" << name << ": scheduling time (seconds) ===\n";
  Table t = scheduling_time_table(c);
  t.print(std::cout);
  t.maybe_write_csv(csv);
  bench::telemetry().record(name, c, graphs);

  // The paper's observation: planning cost vs application makespan.
  std::cout << "\nLoC-MPS planning time vs resulting makespan:\n";
  Table ratio({"P", "sched(s)", "makespan(s)", "ratio"});
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const double st = c.sched_seconds[pi][0];
    const double mk = c.makespan[pi][0];
    ratio.add_row({std::to_string(procs[pi]), fmt(st, 4), fmt(mk, 2),
                   fmt(mk > 0 ? st / mk : 0.0, 4)});
  }
  ratio.print(std::cout);
}

/// LoC-MPS planning time on a suite of synthetic DAGs, incrementally and
/// from scratch. Both produce bit-identical schedules, so the two panels
/// differ only in sched_seconds.
void incremental_panel() {
  const auto procs = bench::proc_sweep();
  std::vector<TaskGraph> graphs;
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = procs.back();
  Rng rng(777001);
  for (std::size_t i = 0; i < bench::suite_size(); ++i)
    graphs.push_back(make_synthetic_dag(p, rng));

  std::cout << "\n=== Fig 10c: LoC-MPS planning time, incremental vs"
            << " from-scratch (synthetic suite, " << graphs.size()
            << " graphs) ===\n";
  const Comparison inc = compare_schemes(graphs, {"loc-mps"}, procs,
                                         kMyrinetBps, true, {}, 1, {},
                                         bench::sched_reps());
  bench::telemetry().record("c (synthetic)", inc, graphs);
  // The from-scratch reference: identical schedules, every LoCBS
  // evaluation re-scanned in full. Its sched_seconds against the
  // incremental panel above is the replay speedup CI ratchets.
  SchedulerOptions so;
  so.incremental = false;
  const Comparison scratch =
      compare_schemes(graphs, {"loc-mps"}, procs, kMyrinetBps, true, {}, 1,
                      so, bench::sched_reps());
  bench::telemetry().record("c (synthetic, from-scratch)", scratch, graphs);

  Table t({"P", "from-scratch(s)", "incremental(s)", "speedup",
           "makespan(s)"});
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const double off = scratch.sched_seconds[pi][0];
    const double on = inc.sched_seconds[pi][0];
    t.add_row({std::to_string(procs[pi]), fmt(off, 4), fmt(on, 4),
               fmt(on > 0 ? off / on : 0.0, 2),
               fmt(inc.makespan[pi][0], 2)});
  }
  t.print(std::cout);
  t.maybe_write_csv("fig10c.csv");
}

/// Large-graph planning stress: one |V| >= 2000 synthetic DAG at the
/// sweep's largest processor count, refinement capped by
/// SchedulerOptions::plan_budget so the panel stays bounded at any
/// scale. Exercises the incremental hot path where it matters most —
/// thousands of placements per LoCBS evaluation.
void large_graph_panel() {
  const auto procs = bench::proc_sweep();
  SyntheticParams p;
  p.min_tasks = 2048;
  p.max_tasks = 2048;
  p.avg_degree = 4.0;
  p.ccr = 0.5;
  p.max_procs = procs.back();
  Rng rng(20480101);
  const std::vector<TaskGraph> graphs{make_synthetic_dag(p, rng)};
  const std::vector<std::size_t> big{procs.back()};

  SchedulerOptions so;
  so.plan_budget = 256;
  const Comparison c = compare_schemes(graphs, {"loc-mps"}, big, kMyrinetBps,
                                       true, {}, 1, so, bench::sched_reps());
  std::cout << "\n=== Fig 10d: LoC-MPS planning time, |V| = "
            << graphs[0].num_tasks() << " (plan budget " << so.plan_budget
            << ") ===\n";
  Table t = scheduling_time_table(c);
  t.print(std::cout);
  t.maybe_write_csv("fig10d.csv");
  bench::telemetry().record("d (large synthetic, |V|=2048)", c, graphs);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOut obs = bench::parse_obs(argc, argv);
  const bench::ProfileOut prof =
      bench::parse_profile_out("fig10_scheduling_times", argc, argv);
  bench::init_telemetry("fig10_scheduling_times", argc, argv);
  std::cout << "Reproduction of Fig 10 (scheduling times)\n";
  const auto procs = bench::proc_sweep();
  // A production-size problem instance (o=48, v=192): the paper's point is
  // that planning time stays orders of magnitude below the application
  // makespan, which requires the application not to be toy-sized.
  TCEParams tp;
  tp.occupied = 48;
  tp.virt = 192;
  tp.max_procs = procs.back();
  StrassenParams sp;
  sp.n = 4096;
  sp.max_procs = procs.back();
  panel("a (CCSD T1)", make_ccsd_t1(tp), "fig10a.csv");
  panel("b (Strassen 4096)", make_strassen(sp), "fig10b.csv");
  incremental_panel();
  large_graph_panel();
  bench::write_telemetry();
  bench::maybe_dump_obs(obs);
  bench::maybe_dump_profile(prof, "fig10_scheduling_times");
  return 0;
}

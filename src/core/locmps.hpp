#pragma once
/// \file locmps.hpp
/// Umbrella header: the full public API of the LoC-MPS library.
///
/// Typical use:
/// \code
///   #include "core/locmps.hpp"
///   using namespace locmps;
///
///   TaskGraph g = make_ccsd_t1();
///   Cluster cluster(32, 250e6);          // 32 procs, 2 Gbps Myrinet
///   auto run = evaluate_scheme("loc-mps", g, cluster);
///   std::cout << run.makespan << "\n"
///             << render_gantt(g, run.schedule);
/// \endcode

#include "cluster/cluster.hpp"
#include "cluster/processor_set.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/transform.hpp"
#include "graph/task_graph.hpp"
#include "network/block_cyclic.hpp"
#include "network/comm_model.hpp"
#include "schedule/event_sim.hpp"
#include "schedule/gantt.hpp"
#include "schedule/metrics.hpp"
#include "schedule/schedule.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedule/timeline.hpp"
#include "schedule/trace_export.hpp"
#include "schedulers/annealing.hpp"
#include "schedulers/cpa.hpp"
#include "schedulers/cpr.hpp"
#include "schedulers/data_parallel.hpp"
#include "schedulers/icaslb.hpp"
#include "schedulers/loc_mps.hpp"
#include "schedulers/locbs.hpp"
#include "schedulers/online.hpp"
#include "schedulers/registry.hpp"
#include "schedulers/scheduler.hpp"
#include "schedulers/task_parallel.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/downey.hpp"
#include "speedup/profile.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "schedulers/tsas.hpp"
#include "schedulers/twol.hpp"
#include "workloads/strassen.hpp"
#include "workloads/structured.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

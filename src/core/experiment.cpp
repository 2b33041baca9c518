#include "core/experiment.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "schedulers/registry.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace locmps {

namespace {

/// Worker count: explicit argument, else LOCMPS_THREADS, else 1.
std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("LOCMPS_THREADS")) {
    const long v = std::atol(env);
    if (v > 1) return static_cast<std::size_t>(v);
  }
  return 1;
}

/// Runs fn(0..count) across `threads` workers (inline when threads <= 1).
template <typename Fn>
void parallel_for(std::size_t count, std::size_t threads, Fn&& fn) {
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  const std::size_t workers = std::min(threads, count);
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1))
        fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

SchemeRun evaluate_scheme(const std::string& scheme, const TaskGraph& g,
                          const Cluster& cluster, const SimOptions& sim,
                          obs::EventSink* sink,
                          const SchedulerOptions& sched_opt,
                          obs::Profiler* profiler) {
  // One registry per run: compare_schemes fans runs out over threads, so
  // the registry must not be shared across evaluations.
  obs::MetricsRegistry metrics;
  obs::ObsContext obs{&metrics, sink, profiler};

  const SchedulerPtr sched = make_scheduler(scheme, sched_opt);
  sched->attach_observability(&obs);
  Stopwatch sw;
  SchedulerResult planned;
  {
    // The span brackets exactly the stopwatch region so the profile root
    // reconciles with scheduling_seconds (locmps-inspect --profile
    // asserts the two agree within 2%).
    LOCMPS_SPAN(&obs, "harness.plan");
    planned = sched->schedule(g, cluster);
  }
  const double plan_time = sw.seconds();
  metrics.set("scheduler.plan_seconds", plan_time);

  // Every scheme reports its own iterations (a LoC-MPS-backed plan's
  // equal the locmps.locbs_calls it adds); the counter exposes them beside
  // the run's other counters.
  metrics.set("scheduler.iterations",
              static_cast<double>(planned.iterations));

  const CommModel comm(cluster);
  // Schemes that do not orchestrate locality transfer full volumes
  // between differing layouts (the paper's evaluation model).
  SimOptions run_sim = sim;
  run_sim.locality_volumes = scheme_exploits_locality(scheme);
  run_sim.obs = &obs;
  SimResult executed;
  {
    LOCMPS_SPAN(&obs, "harness.simulate");
    executed = simulate_execution(g, planned.schedule, comm, run_sim);
  }
  metrics.set("sim.makespan", executed.makespan);

  // Sink-side truncation (bounded JSONL trace) folds into the counters
  // before the snapshot so the report can surface it.
  if (obs.sink != nullptr && obs.sink->dropped() > 0)
    metrics.add("obs.trace.dropped",
                static_cast<double>(obs.sink->dropped()));

  SchemeRun run;
  run.scheme = scheme;
  run.makespan = executed.makespan;
  run.estimated = planned.estimated_makespan;
  run.scheduling_seconds = plan_time;
  run.counters = metrics.snapshot();
  run.iterations = planned.iterations;
  run.allocation = std::move(planned.allocation);
  run.schedule = std::move(executed.executed);

  // Post-mortem analytics under the same locality model the simulation
  // charged.
  obs::AnalysisOptions an;
  an.locality_volumes = run_sim.locality_volumes;
  {
    LOCMPS_SPAN(&obs, "harness.analyze");
    run.analysis = obs::analyze_schedule(g, run.schedule, comm, an);
  }
  return run;
}

namespace {

/// One timed planning-only pass with a fresh scheduler and registry: the
/// extra sched_reps samples behind compare_schemes' timing statistics.
/// Simulation and analysis are skipped — only sched_samples grows.
double time_planning_pass(const std::string& scheme, const TaskGraph& g,
                          const Cluster& cluster,
                          const SchedulerOptions& sched_opt) {
  obs::MetricsRegistry metrics;
  obs::ObsContext obs{&metrics, nullptr, nullptr};
  const SchedulerPtr sched = make_scheduler(scheme, sched_opt);
  sched->attach_observability(&obs);
  Stopwatch sw;
  (void)sched->schedule(g, cluster);
  return sw.seconds();
}

}  // namespace

Comparison compare_schemes(std::span<const TaskGraph> graphs,
                           const std::vector<std::string>& schemes,
                           const std::vector<std::size_t>& procs,
                           double bandwidth_Bps, bool overlap,
                           const SimOptions& sim, std::size_t threads,
                           const SchedulerOptions& sched_opt,
                           std::size_t sched_reps) {
  Comparison c;
  c.schemes = schemes;
  c.procs = procs;
  c.relative.assign(procs.size(),
                    std::vector<double>(schemes.size(), 0.0));
  c.makespan = c.relative;
  c.sched_seconds = c.relative;
  c.relative_samples.assign(
      procs.size(), std::vector<std::vector<double>>(
                        schemes.size(), std::vector<double>(graphs.size())));
  c.makespan_samples = c.relative_samples;
  c.sched_samples = c.relative_samples;
  const std::size_t workers = resolve_threads(threads);
  const std::size_t reps = std::max<std::size_t>(1, sched_reps);

  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const Cluster cluster(procs[pi], bandwidth_Bps, overlap);
    // One slot per (graph, scheme); workers write disjoint cells. The
    // timing reps of one cell run back-to-back on one worker so they see
    // comparable load.
    const std::size_t ns = schemes.size();
    std::vector<double> ms(graphs.size() * ns, 0.0);
    std::vector<double> st(graphs.size() * ns * reps, 0.0);
    parallel_for(graphs.size() * ns, workers, [&](std::size_t idx) {
      const std::size_t gi = idx / ns;
      const std::size_t si = idx % ns;
      const SchemeRun run = evaluate_scheme(schemes[si], graphs[gi], cluster,
                                            sim, nullptr, sched_opt);
      ms[idx] = run.makespan;
      st[idx * reps] = run.scheduling_seconds;
      for (std::size_t r = 1; r < reps; ++r)
        st[idx * reps + r] =
            time_planning_pass(schemes[si], graphs[gi], cluster, sched_opt);
    });
    for (std::size_t si = 0; si < ns; ++si) {
      std::vector<double> rel(graphs.size()), m(graphs.size()),
          t(graphs.size() * reps);
      for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        rel[gi] = ms[gi * ns] / ms[gi * ns + si];
        m[gi] = ms[gi * ns + si];
        for (std::size_t r = 0; r < reps; ++r)
          t[gi * reps + r] = st[(gi * ns + si) * reps + r];
      }
      c.relative[pi][si] = mean(rel);
      c.makespan[pi][si] = mean(m);
      c.sched_seconds[pi][si] = mean(t);
      c.relative_samples[pi][si] = std::move(rel);
      c.makespan_samples[pi][si] = std::move(m);
      c.sched_samples[pi][si] = std::move(t);
    }
  }
  return c;
}

namespace {

Table grid_table(const Comparison& c,
                 const std::vector<std::vector<double>>& cells,
                 int precision) {
  std::vector<std::string> header{"P"};
  for (const auto& s : c.schemes) header.push_back(s);
  Table t(std::move(header));
  for (std::size_t pi = 0; pi < c.procs.size(); ++pi)
    t.add_row_numeric(std::to_string(c.procs[pi]), cells[pi], precision);
  return t;
}

}  // namespace

Table relative_performance_table(const Comparison& c) {
  return grid_table(c, c.relative, 3);
}

Table scheduling_time_table(const Comparison& c) {
  return grid_table(c, c.sched_seconds, 4);
}

}  // namespace locmps

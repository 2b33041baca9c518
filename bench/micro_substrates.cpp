/// Substrate microbenchmarks (google-benchmark): the primitives on the
/// scheduler's hot path — block-cyclic volume accounting, critical-path
/// extraction, concurrency analysis, one LoCBS pass and one event-sim
/// execution.

#include <benchmark/benchmark.h>

#include <numeric>
#include <sstream>

#include "graph/algorithms.hpp"
#include "obs/events.hpp"
#include "network/block_cyclic.hpp"
#include "schedule/event_sim.hpp"
#include "schedulers/locbs.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

namespace {

using namespace locmps;

TaskGraph bench_graph(std::size_t max_procs) {
  SyntheticParams p;
  p.ccr = 1.0;
  p.min_tasks = 50;
  p.max_tasks = 50;
  p.max_procs = max_procs;
  Rng rng(12345);
  return make_synthetic_dag(p, rng);
}

void BM_RemoteFraction(benchmark::State& state) {
  const std::size_t P = state.range(0);
  Rng rng(1);
  std::vector<ProcId> all(P);
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<ProcId> src(all.begin(), all.begin() + P / 2);
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<ProcId> dst(all.begin(), all.begin() + P / 3 + 1);
  std::sort(src.begin(), src.end());
  std::sort(dst.begin(), dst.end());
  for (auto _ : state)
    benchmark::DoNotOptimize(remote_fraction(src, dst));
}
BENCHMARK(BM_RemoteFraction)->Arg(16)->Arg(64)->Arg(256);

void BM_CriticalPath(benchmark::State& state) {
  const TaskGraph g = bench_graph(32);
  ScheduleDag dag(g);
  for (TaskId t : g.task_ids()) dag.set_vertex_time(t, 1.0 + t);
  for (EdgeId e = 0; e < g.num_edges(); ++e) dag.set_edge_time(e, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(dag.critical_path());
}
BENCHMARK(BM_CriticalPath);

void BM_ConcurrencyAnalysis(benchmark::State& state) {
  const TaskGraph g = bench_graph(32);
  for (auto _ : state)
    benchmark::DoNotOptimize(ConcurrencyAnalysis(g).ratios().size());
}
BENCHMARK(BM_ConcurrencyAnalysis);

void BM_LoCBSPass(benchmark::State& state) {
  const std::size_t P = state.range(0);
  const TaskGraph g = bench_graph(P);
  const CommModel comm{Cluster(P)};
  Rng rng(7);
  Allocation np(g.num_tasks());
  for (auto& a : np)
    a = static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(P)));
  for (auto _ : state) benchmark::DoNotOptimize(locbs(g, np, comm).makespan);
}
BENCHMARK(BM_LoCBSPass)->Arg(16)->Arg(64)->Arg(128);

// The same pass with a metrics registry attached: quantifies the cost of
// counter flushing (the obs-off overhead is the null branch in
// BM_LoCBSPass itself — compare against a pre-obs baseline).
void BM_LoCBSPassMetrics(benchmark::State& state) {
  const std::size_t P = state.range(0);
  const TaskGraph g = bench_graph(P);
  const CommModel comm{Cluster(P)};
  Rng rng(7);
  Allocation np(g.num_tasks());
  for (auto& a : np)
    a = static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(P)));
  obs::MetricsRegistry metrics;
  obs::ObsContext ctx{&metrics, nullptr};
  for (auto _ : state) {
    metrics.reset();
    benchmark::DoNotOptimize(
        locbs(g, np, comm, {}, nullptr, &ctx).makespan);
  }
}
BENCHMARK(BM_LoCBSPassMetrics)->Arg(16)->Arg(64)->Arg(128);

// ...and with a full JSONL sink discarding into a resettable buffer: the
// worst-case cost of streaming the decision trace.
void BM_LoCBSPassJsonl(benchmark::State& state) {
  const std::size_t P = state.range(0);
  const TaskGraph g = bench_graph(P);
  const CommModel comm{Cluster(P)};
  Rng rng(7);
  Allocation np(g.num_tasks());
  for (auto& a : np)
    a = static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(P)));
  obs::MetricsRegistry metrics;
  for (auto _ : state) {
    metrics.reset();
    std::ostringstream buf;
    obs::JsonlSink sink(buf);
    obs::ObsContext ctx{&metrics, &sink};
    benchmark::DoNotOptimize(
        locbs(g, np, comm, {}, nullptr, &ctx).makespan);
  }
}
BENCHMARK(BM_LoCBSPassJsonl)->Arg(64);

void BM_EventSim(benchmark::State& state) {
  const std::size_t P = 32;
  const TaskGraph g = bench_graph(P);
  const CommModel comm{Cluster(P)};
  const LocBSResult plan = locbs(g, Allocation(g.num_tasks(), 2), comm);
  SimOptions opt;
  opt.single_port = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        simulate_execution(g, plan.schedule, comm, opt).makespan);
}
BENCHMARK(BM_EventSim);

void BM_TCEGraphBuild(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(make_ccsd_t1().num_tasks());
}
BENCHMARK(BM_TCEGraphBuild);

}  // namespace

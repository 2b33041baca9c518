/// Tests for the HTML/text schedule reports (obs/report.hpp): strict
/// XHTML well-formedness (parsed with the minimal XML parser from
/// test_util.hpp), escaping of hostile names, the blame-table bound —
/// and the end-to-end fig06 reconciliation required of the report: the
/// aggregate local/remote volumes printed in the HTML must match the
/// simulator's comm-model counters and the decision trace of the same
/// run.

#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "test_util.hpp"
#include "workloads/synthetic.hpp"

namespace locmps {
namespace {

/// Parses the numeric text content of the element with the given id.
double id_value(const test::Xml& root, std::string_view id) {
  const test::Xml* el = root.find_by_id(id);
  EXPECT_NE(el, nullptr) << "missing id " << id;
  if (el == nullptr) return -1.0;
  return std::strtod(el->text.c_str(), nullptr);
}

/// Two-task chain with one remote edge: enough to exercise every report
/// section (gantt, utilization, holes, locality, critical path, blame).
struct ReportFixture {
  TaskGraph g;
  Schedule s;
  Cluster cluster{4, 1e6};
  obs::ScheduleAnalysis a;

  explicit ReportFixture(std::string_view name_b = "b")
      : g(), s(2, 4) {
    const TaskId ta = g.add_task("a", test::serial(10.0, 4));
    const TaskId tb = g.add_task(std::string(name_b), test::serial(10.0, 4));
    g.add_edge(ta, tb, 5e6);
    s.place(ta, 0.0, 0.0, 10.0, ProcessorSet::of(4, {0}));
    s.place(tb, 15.0, 15.0, 25.0, ProcessorSet::of(4, {1}));
    a = obs::analyze_schedule(g, s, CommModel(cluster));
  }
};

TEST(Report, HtmlIsStrictWellFormedXhtml) {
  const ReportFixture f;
  obs::ReportOptions opt;
  opt.title = "unit fixture";
  opt.subtitle = "chain a -> b";
  const std::string html = obs::html_report(f.g, f.s, f.a, opt);
  const test::Xml root = test::parse_xhtml_report(html);
  EXPECT_EQ(root.tag, "html");
  EXPECT_EQ(root.count_tag("head"), 1u);
  EXPECT_EQ(root.count_tag("body"), 1u);
  EXPECT_GE(root.count_tag("svg"), 1u);   // the Gantt
  EXPECT_GE(root.count_tag("table"), 4u); // util, holes, locality, blame
  EXPECT_GE(root.count_tag("title"), 2u); // document + SVG tooltips
}

TEST(Report, AggregateVolumesMatchAnalysis) {
  const ReportFixture f;
  const test::Xml root =
      test::parse_xhtml_report(obs::html_report(f.g, f.s, f.a));
  // Byte values are printed with one decimal: absolute error <= 0.05.
  EXPECT_NEAR(id_value(root, "agg-total-bytes"), f.a.locality.total_bytes,
              0.06);
  EXPECT_NEAR(id_value(root, "agg-local-bytes"), f.a.locality.local_bytes,
              0.06);
  EXPECT_NEAR(id_value(root, "agg-remote-bytes"), f.a.locality.remote_bytes,
              0.06);
}

TEST(Report, EscapesHostileTaskNames) {
  const ReportFixture f("<evil> & \"friends\"");
  const std::string html = obs::html_report(f.g, f.s, f.a);
  EXPECT_EQ(html.find("<evil>"), std::string::npos);
  EXPECT_NE(html.find("&lt;evil&gt; &amp; &quot;friends&quot;"),
            std::string::npos);
  EXPECT_NO_THROW(test::parse_xhtml_report(html));
}

TEST(Report, XmlEscapeCoversAllFiveEntities) {
  EXPECT_EQ(obs::xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(obs::xml_escape("plain"), "plain");
}

TEST(Report, BlameTableRespectsTopN) {
  // Chain of 5 ping-ponging between two procs: every hop is a remote
  // 1 s transfer, so four tasks carry positive (data-bound) start delay.
  const TaskGraph g = test::chain(5, 10.0, 2, 1e6);
  Schedule s(5, 2);
  double t = 0.0;
  for (TaskId i = 0; i < 5; ++i) {
    const double start = i == 0 ? 0.0 : t + 1.0;  // 1 s transfer per hop
    s.place(i, start, start, start + 10.0,
            ProcessorSet::of(2, {static_cast<ProcId>(i % 2)}));
    t = start + 10.0;
  }
  const Cluster cl(2, 1e6);
  const auto a = obs::analyze_schedule(g, s, CommModel(cl));
  ASSERT_EQ(a.top_blame(10).size(), 4u);

  obs::ReportOptions few;
  few.top_blame = 2;
  const std::string html_few = obs::html_report(g, s, a, few);
  obs::ReportOptions many;
  many.top_blame = 10;
  const std::string html_many = obs::html_report(g, s, a, many);
  const std::size_t rows_few =
      test::parse_xhtml_report(html_few).count_tag("tr");
  const std::size_t rows_many =
      test::parse_xhtml_report(html_many).count_tag("tr");
  EXPECT_EQ(rows_many - rows_few, 2u);  // 4 blame rows vs 2
}

TEST(Report, TextSummaryMentionsEverySection) {
  const ReportFixture f;
  const std::string txt = obs::text_report(f.a);
  for (const char* needle :
       {"makespan", "utilization", "locality", "critical path",
        "start blame"}) {
    EXPECT_NE(txt.find(needle), std::string::npos) << needle;
  }
}

/// Acceptance check: on a fig06-style workload the HTML report's
/// aggregate local/remote volumes must exactly match the comm-model
/// counters from the decision trace of the same run.
TEST(Report, Fig06EndToEndReconciliation) {
  SyntheticParams p;
  p.ccr = 0.1;
  p.amax = 48;
  p.sigma = 2;
  Rng rng(20060903);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const Cluster cluster(32, p.bandwidth_Bps);

  // Instrumented run: decision trace captured in-memory.
  std::ostringstream trace_out;
  SchemeRun run;
  {
    obs::JsonlSink sink(trace_out);
    run = evaluate_scheme("loc-mps", g, cluster, SimOptions{}, &sink);
  }

  // Trace digest of the same run.
  std::istringstream trace_in(trace_out.str());
  const auto records = obs::read_trace(trace_in);
  ASSERT_FALSE(records.empty());
  const auto digest = obs::summarize_trace(records, g.num_tasks());
  // Only LoC-MPS's final realization traces its placements.
  EXPECT_EQ(digest.decision_events, g.num_tasks());

  // Analyzer totals == simulator counters == trace, to rounding.
  const auto& lt = run.analysis.locality;
  const double tol = 1e-9 * std::max(1.0, lt.remote_bytes);
  EXPECT_NEAR(lt.remote_bytes, run.counters.counter("sim.remote_bytes"), tol);
  EXPECT_NEAR(lt.remote_bytes, digest.transfer_bytes, tol);
  EXPECT_NEAR(lt.remote_bytes, digest.final_remote_bytes, tol);
  EXPECT_NEAR(lt.local_bytes, digest.final_local_bytes,
              1e-9 * std::max(1.0, lt.local_bytes));
  EXPECT_EQ(static_cast<double>(lt.local_edges),
            run.counters.counter("sim.local_edges"));
  EXPECT_EQ(static_cast<double>(lt.partial_edges + lt.remote_edges),
            run.counters.counter("sim.transfers"));
  EXPECT_EQ(digest.transfer_events,
            static_cast<std::size_t>(run.counters.counter("sim.transfers")));

  // And the HTML report prints those same aggregates (1-decimal fixed).
  const std::string html = obs::html_report(g, run.schedule, run.analysis);
  const test::Xml root = test::parse_xhtml_report(html);
  EXPECT_NEAR(id_value(root, "agg-remote-bytes"),
              run.counters.counter("sim.remote_bytes"), 0.06);
  EXPECT_NEAR(id_value(root, "agg-local-bytes"), lt.local_bytes, 0.06);
  EXPECT_NEAR(id_value(root, "agg-total-bytes"), lt.total_bytes, 0.06);
}

}  // namespace
}  // namespace locmps

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace locmps::obs {
namespace {

TEST(ObsMetrics, CountersAccumulateAndCreateAtZero) {
  MetricsRegistry m;
  EXPECT_DOUBLE_EQ(m.value("a"), 0.0);
  EXPECT_DOUBLE_EQ(m.value("a", -1.0), -1.0);  // absent -> fallback
  m.add("a");
  m.add("a", 2.5);
  EXPECT_DOUBLE_EQ(m.value("a"), 3.5);
  EXPECT_DOUBLE_EQ(m.value("a", -1.0), 3.5);
}

TEST(ObsMetrics, SetOverwritesLikeAGauge) {
  MetricsRegistry m;
  m.add("g", 10.0);
  m.set("g", 4.0);
  EXPECT_DOUBLE_EQ(m.value("g"), 4.0);
  m.set("fresh", 7.0);
  EXPECT_DOUBLE_EQ(m.value("fresh"), 7.0);
}

TEST(ObsMetrics, CellPtrIsStableAcrossInserts) {
  MetricsRegistry m;
  double* cell = m.cell_ptr("hot");
  // Insert names on both sides of "hot"; the slot must not move.
  for (int i = 0; i < 100; ++i) {
    m.add("a" + std::to_string(i));
    m.add("z" + std::to_string(i));
  }
  EXPECT_EQ(cell, m.cell_ptr("hot"));
  *cell += 5.0;
  ++*cell;
  EXPECT_DOUBLE_EQ(m.value("hot"), 6.0);
}

TEST(ObsMetrics, ResetClearsEverythingAndRestartsEpoch) {
  MetricsRegistry m;
  m.add("c", 3.0);
  m.sample("s", 1.0);
  m.reset();
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.series.empty());
  EXPECT_GE(m.now(), 0.0);
}

TEST(ObsMetrics, SnapshotIsSortedAndIndependent) {
  MetricsRegistry m;
  m.add("zz", 2.0);
  m.add("aa", 1.0);
  MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "aa");
  EXPECT_EQ(snap.counters[1].first, "zz");
  EXPECT_DOUBLE_EQ(snap.counter("aa"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counter("absent", -2.0), -2.0);
  // The snapshot is a value copy: mutating the registry must not move it.
  m.add("aa", 100.0);
  m.reset();
  EXPECT_DOUBLE_EQ(snap.counter("aa"), 1.0);
}

TEST(ObsMetrics, SampleSeriesKeepTimeOrderedPoints) {
  MetricsRegistry m;
  m.sample("ms", 10.0);
  m.sample("ms", 8.0);
  m.sample("ms", 9.0);
  const MetricsSnapshot snap = m.snapshot();
  const SeriesStats* ms = snap.find_series("ms");
  ASSERT_NE(ms, nullptr);
  ASSERT_EQ(ms->points.size(), 3u);
  EXPECT_DOUBLE_EQ(ms->points[0].value, 10.0);
  EXPECT_DOUBLE_EQ(ms->points[1].value, 8.0);
  EXPECT_DOUBLE_EQ(ms->points[2].value, 9.0);
  for (std::size_t i = 1; i < ms->points.size(); ++i)
    EXPECT_LE(ms->points[i - 1].t_s, ms->points[i].t_s);
  EXPECT_EQ(snap.find_series("absent"), nullptr);
}

TEST(ObsMetrics, NowIsMonotonic) {
  MetricsRegistry m;
  const double a = m.now();
  const double b = m.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace locmps::obs

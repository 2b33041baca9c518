#include "obs/metrics.hpp"

#include <algorithm>

namespace locmps::obs {

double MetricsSnapshot::counter(std::string_view name, double fallback) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& kv, std::string_view n) { return kv.first < n; });
  if (it == counters.end() || it->first != name) return fallback;
  return it->second;
}

const TimerStats* MetricsSnapshot::timer(std::string_view name) const {
  for (const TimerStats& t : timers)
    if (t.name == name) return &t;
  return nullptr;
}

const SeriesStats* MetricsSnapshot::find_series(std::string_view name) const {
  for (const SeriesStats& s : series)
    if (s.name == name) return &s;
  return nullptr;
}

double& MetricsRegistry::cell(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), 0.0).first->second;
}

void MetricsRegistry::sample(std::string_view name, double value) {
  auto it = series_.find(name);
  if (it == series_.end())
    it = series_.emplace(std::string(name), SeriesData{}).first;
  if (it->second.points.size() < kMaxSamples)
    it->second.points.push_back(SamplePoint{now(), value});
}

void MetricsRegistry::record_span(const std::string& name, double begin_s,
                                  double end_s) {
  TimerData& td = timers_[name];
  td.total_s += end_s - begin_s;
  td.count += 1;
  if (td.spans.size() < kMaxSpans)
    td.spans.push_back(TimerSpan{begin_s, end_s});
}

void MetricsRegistry::reset() {
  counters_.clear();
  timers_.clear();
  series_.clear();
  epoch_.reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_)
    snap.counters.emplace_back(name, value);
  snap.timers.reserve(timers_.size());
  for (const auto& [name, td] : timers_) {
    TimerStats ts;
    ts.name = name;
    ts.total_s = td.total_s;
    ts.count = td.count;
    ts.spans = td.spans;
    snap.timers.push_back(std::move(ts));
  }
  snap.series.reserve(series_.size());
  for (const auto& [name, sd] : series_) {
    SeriesStats ss;
    ss.name = name;
    ss.points = sd.points;
    snap.series.push_back(std::move(ss));
  }
  return snap;
}

}  // namespace locmps::obs

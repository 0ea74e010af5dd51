#include "quake/obs/report.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace quake::obs {
namespace {

// Converting a double outside the target type's range is undefined, so
// decoded integer fields are range-checked first (NaN fails both tests).
// max/2 + 1 is a power of two, so the exclusive upper bound is exact.
template <class T>
T checked_cast(double v) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(v >= lo && v < hi)) {
    throw std::runtime_error("decode_report: value out of range");
  }
  return static_cast<T>(v);
}

}  // namespace

std::vector<double> encode_report(const RankReport& report) {
  std::vector<double> out;
  const Registry& m = report.metrics;
  auto put_str = [&out](const std::string& s) {
    out.push_back(static_cast<double>(s.size()));
    for (char c : s) out.push_back(static_cast<double>(c));
  };
  out.push_back(static_cast<double>(report.rank));
  out.push_back(static_cast<double>(m.scopes.size()));
  for (const auto& [k, s] : m.scopes) {
    put_str(k);
    out.push_back(static_cast<double>(s.calls));
    out.push_back(s.seconds);
  }
  out.push_back(static_cast<double>(m.counters.size()));
  for (const auto& [k, v] : m.counters) {
    put_str(k);
    out.push_back(static_cast<double>(v));
  }
  out.push_back(static_cast<double>(m.gauges.size()));
  for (const auto& [k, v] : m.gauges) {
    put_str(k);
    out.push_back(v);
  }
  out.push_back(static_cast<double>(m.series.size()));
  for (const auto& [k, v] : m.series) {
    put_str(k);
    out.push_back(static_cast<double>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

RankReport decode_report(std::span<const double> data) {
  std::size_t pos = 0;
  auto next = [&]() -> double {
    if (pos >= data.size()) {
      throw std::runtime_error("decode_report: truncated buffer");
    }
    return data[pos++];
  };
  // Every counted item takes at least one more double, so a count larger
  // than what is left is a lie (and must not size an allocation).
  auto next_count = [&]() -> std::size_t {
    const double v = next();
    if (!(v >= 0.0) || v > static_cast<double>(data.size() - pos)) {
      throw std::runtime_error("decode_report: bad count");
    }
    return static_cast<std::size_t>(v);
  };
  auto next_str = [&]() -> std::string {
    const std::size_t n = next_count();
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = checked_cast<char>(next());
    }
    return s;
  };

  RankReport r;
  r.rank = checked_cast<int>(next());
  const std::size_t n_scopes = next_count();
  for (std::size_t i = 0; i < n_scopes; ++i) {
    std::string k = next_str();
    ScopeStats s;
    s.calls = checked_cast<std::uint64_t>(next());
    s.seconds = next();
    r.metrics.scopes.emplace(std::move(k), s);
  }
  const std::size_t n_counters = next_count();
  for (std::size_t i = 0; i < n_counters; ++i) {
    std::string k = next_str();
    r.metrics.counters.emplace(std::move(k),
                               checked_cast<std::int64_t>(next()));
  }
  const std::size_t n_gauges = next_count();
  for (std::size_t i = 0; i < n_gauges; ++i) {
    std::string k = next_str();
    r.metrics.gauges.emplace(std::move(k), next());
  }
  const std::size_t n_series = next_count();
  for (std::size_t i = 0; i < n_series; ++i) {
    std::string k = next_str();
    const std::size_t n = next_count();
    std::vector<double> v(n);
    for (std::size_t j = 0; j < n; ++j) v[j] = next();
    r.metrics.series.emplace(std::move(k), std::move(v));
  }
  return r;
}

MergedReport merge_reports(std::span<const RankReport> reports) {
  MergedReport out;
  out.n_ranks = static_cast<int>(reports.size());
  if (reports.empty()) return out;
  const double n = static_cast<double>(reports.size());

  // Union of keys first, then reduce treating missing entries as zero.
  for (const RankReport& r : reports) {
    for (const auto& [k, s] : r.metrics.scopes) out.scopes[k];
    for (const auto& [k, v] : r.metrics.counters) out.counters[k];
    for (const auto& [k, v] : r.metrics.gauges) out.gauges[k];
  }
  auto reduce = [&](auto& summary_map, auto value_of) {
    for (auto& [key, summary] : summary_map) {
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      double sum = 0.0;
      for (const RankReport& r : reports) {
        const double v = value_of(r, key);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
      }
      summary.min = mn;
      summary.max = mx;
      summary.sum = sum;
      // The accumulation can round sum/n just outside [min, max] when every
      // rank reports the same value; the mean of samples lies inside.
      summary.mean = std::clamp(sum / n, mn, mx);
    }
  };
  for (auto& [key, sc] : out.scopes) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (const RankReport& r : reports) {
      const auto it = r.metrics.scopes.find(key);
      const double v = it != r.metrics.scopes.end() ? it->second.seconds : 0.0;
      if (it != r.metrics.scopes.end()) sc.calls_total += it->second.calls;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += v;
    }
    sc.seconds = {mn, std::clamp(sum / n, mn, mx), mx, sum};
  }
  reduce(out.counters, [](const RankReport& r, const std::string& key) {
    const auto it = r.metrics.counters.find(key);
    return it != r.metrics.counters.end() ? static_cast<double>(it->second)
                                          : 0.0;
  });
  reduce(out.gauges, [](const RankReport& r, const std::string& key) {
    const auto it = r.metrics.gauges.find(key);
    return it != r.metrics.gauges.end() ? it->second : 0.0;
  });
  return out;
}

}  // namespace quake::obs

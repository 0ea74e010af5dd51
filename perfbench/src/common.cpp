#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace pb {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::range(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tail tail(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= min_beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - min_beyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - min_beyond) /
                 static_cast<double>(n);
  t.beyond = min_beyond;
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void spin_warmup(double seconds, int threads) {
  std::atomic<double> sink{0.0};
  std::vector<std::thread> pool;
  const double stop = now_s() + seconds;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, stop, t] {
      double x = 1.0 + t;
      while (now_s() < stop) {
        for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 1e-9;
      }
      sink.store(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
}

int Trace::begin(const std::string& name, std::uint64_t request) {
  const int id = add(name, now_s(), 0.0, current(), request, 1);
  stack_.push_back(id);
  return id;
}

void Trace::end(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Trace::add(const std::string& name, double t0, double t1, int parent,
               std::uint64_t request, int tid) {
  spans_.push_back(Span{name, t0, t1, parent, request, tid});
  return static_cast<int>(spans_.size() - 1);
}

double Trace::self_time(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  // Union of the children's intervals, clipped to the parent (children of
  // one span may overlap: serve's concurrent requests).
  std::vector<std::pair<double, double>> iv;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      iv.emplace_back(std::max(c.t0, s.t0), std::min(c.t1, s.t1));
    }
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return (s.t1 - s.t0) - covered;
}

double Trace::self_time(const std::string& name) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) sum += self_time(static_cast<int>(i));
  }
  return sum;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.name == name) d.push_back(s.t1 - s.t0);
  }
  return d;
}

double Trace::residual_frac(const std::string& root) const {
  double total = 0.0;
  for (const double d : durations(root)) total += d;
  return total > 0.0 ? self_time(root) / total : 0.0;
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::fail(std::int64_t n, const std::string& what) {
  if (n <= 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %lld failed: %s\n",
               static_cast<long long>(n), what.c_str());
}

void Report::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pb

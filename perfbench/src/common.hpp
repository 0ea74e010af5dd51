#pragma once

// Shared pieces of the benchmark program: options, seeded input generation,
// order statistics, the result line, and the benchmark's own span trace.
//
// The program measures the quake libraries from outside: every number it
// reports is the wall time of a call into a public entry point, a field of
// a public result struct, or a count derived from public data.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock since the first call (the process epoch all
// spans share).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           // toy sizes, for the name/unit check
  std::string work_dir = ".";   // scratch files (etree stores, checkpoints)
  std::string trace_out;        // Chrome trace-event JSON (traced runs)

  // serve: the open-loop rate ladder [req/s], its nominal rung, the tail
  // latency limit [s], lanes, ranks per lane and the per-shard queue bound.
  std::vector<double> ladder;
  double nominal_rps = 0.0;
  double limit_s = 0.0;
  int lanes = 2;
  int ranks_per_lane = 2;
  int queue_bound = 64;
};

// splitmix64: the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int range(int lo, int hi);  // inclusive
  double exponential(double rate);

 private:
  std::uint64_t s_;
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// The highest percentile that still has at least `min_beyond` samples above
// it: for n samples, the (n - min_beyond)-th order statistic.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v, std::size_t min_beyond = 10);

// Process peak resident set size [MB].
double peak_rss_mb();

// FNV-1a over raw bytes: the bitwise fingerprint of solver outputs.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// Busy-spins `threads` threads for `seconds`: brings idle virtual CPUs up to
// speed before anything is timed (the first second of a cold run otherwise
// reads up to 3x slow).
void spin_warmup(double seconds, int threads);

// The benchmark's own spans: name, start, end, parent span, request id.
// Spans are recorded only when tracing is on and are kept in memory until
// the workload ends.
class Trace {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    int tid = 1;
  };

  bool enabled = false;

  int begin(const std::string& name, std::uint64_t request = 0);
  void end(int id);
  // A span whose interval was measured elsewhere (serve's request phases).
  int add(const std::string& name, double t0, double t1, int parent,
          std::uint64_t request, int tid);
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  // Duration of span `id` minus the part its children cover.
  [[nodiscard]] double self_time(int id) const;
  // Summed self time of every span with the given name.
  [[nodiscard]] double self_time(const std::string& name) const;
  // Durations of every span with the given name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  // Summed self time over summed duration of every span named `root`: the
  // share of the end-to-end time no layer span accounts for.
  [[nodiscard]] double residual_frac(const std::string& root) const;

  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span on a Trace (a no-op when tracing is off).
class SpanScope {
 public:
  SpanScope(Trace& t, const std::string& name, std::uint64_t request = 0)
      : t_(t), id_(t.enabled ? t.begin(name, request) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) t_.end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Trace& t_;
  int id_;
};

// The final result line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // One checked output: a failed check counts as a failed operation and
  // marks the run incorrect.
  void check(bool ok, const std::string& what);
  // Operations attempted, and those that failed or were refused.
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(std::int64_t n, const std::string& what);
  [[nodiscard]] bool ok() const { return correct_ && failed_ == 0; }
  [[nodiscard]] double ok_frac() const {
    return attempted_ > 0 ? 1.0 - static_cast<double>(failed_) /
                                      static_cast<double>(attempted_)
                          : 1.0;
  }
  void print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// Times one call [s].
template <class F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

int run_forward(const Options& opt, Report& rep, Trace& tr);
int run_serve(const Options& opt, Report& rep, Trace& tr);
int run_recover(const Options& opt, Report& rep, Trace& tr);
int run_invert(const Options& opt, Report& rep, Trace& tr);

}  // namespace pb

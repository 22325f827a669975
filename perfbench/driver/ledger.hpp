// Benchmark-side measurement record for one driver run.
//
// Every host time here is taken from the benchmark's own files, around
// calls into the wsp library's public API; nothing is recorded inside the
// library.  Samples are kept in memory and written out once, as JSON, when
// the run ends.  perfbench/run.py turns them into medians, percentiles and
// the coverage / overhead ratios.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Raw measurements of one run, keyed by name:
///   series — samples, one per repetition or per call;
///   values — scalars (simulated statistics, counts, byte sizes);
///   checks — named correctness checks, each passed or failed.
class Ledger {
 public:
  void sample(const std::string& series, double v) {
    series_[series].push_back(v);
  }
  std::vector<double>& series(const std::string& name) {
    return series_[name];
  }
  void set(const std::string& name, double v) { values_[name] = v; }

  /// Records one correctness check and returns `ok`.
  bool check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    return ok;
  }

  /// The whole record as one JSON object.
  std::string to_json() const;

 private:
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, bool>> checks_;
};

/// Adds the host time of its scope to `total_ms`.
class Span {
 public:
  explicit Span(double& total_ms) : total_(total_ms), t0_(Clock::now()) {}
  ~Span() { total_ += ms_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& total_;
  Clock::time_point t0_;
};

/// Calls rep(i) for i = 0, 1, ... at least `min_reps` times, and again only
/// while the time used so far plus the slowest repetition still fits in
/// `seconds`.  Returns the repetition count.
template <typename F>
int repeat_for(double seconds, int min_reps, F&& rep) {
  const Clock::time_point start = Clock::now();
  double slowest_ms = 0.0;
  int n = 0;
  for (;;) {
    const Clock::time_point t = Clock::now();
    rep(n++);
    slowest_ms = std::max(slowest_ms, ms_since(t));
    if (n >= min_reps && ms_since(start) + slowest_ms > seconds * 1e3)
      return n;
  }
}

/// Median of `v` (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// What every workload receives from the command line.
struct RunArgs {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< checkpoint files go here
};

void run_cosim(const RunArgs& args, Ledger& out);
void run_campaign(const RunArgs& args, Ledger& out);

}  // namespace perfbench

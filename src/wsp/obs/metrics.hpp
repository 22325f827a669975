// Observability: named metrics with deterministic contents.
//
// The simulator's subsystems (NoC meshes, PDN solver, degradation
// campaigns, scrub chains) used to keep hand-rolled per-struct counters and
// re-derive percentiles ad hoc; this registry gives them one seam.  Three
// metric kinds:
//
//   * Counter   — monotonically increasing u64 (events).
//   * Gauge     — last-written double (levels: residuals, voltages).
//   * Histogram — the exact value distribution as sorted (value, count)
//                 runs, one per distinct recorded value (in the style of
//                 HdrHistogram).  Every statistic — count, sum, min, max,
//                 nearest-rank p50/p95/p99 — is exact at any count, and
//                 memory grows with the distinct values, not the samples.
//                 Cycle latencies take a few hundred distinct values.
//
// Determinism contract: metrics record simulation quantities only — cycle
// counts, iteration counts, amperes — never wall-clock time (wall time
// lives exclusively in the trace export, wsp/obs/trace.hpp).  Registry
// iteration order is name-sorted (std::map), so two runs that perform the
// same recordings serialise byte-identically regardless of thread count or
// registration order.  A registry is single-writer by design: it is owned
// by one simulator object (or one campaign trial) and must not be shared
// across concurrently running owners — parallel campaign trials each fill
// their own and the results are folded in trial order afterwards.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wsp/common/fields.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

namespace wsp::obs {

/// Monotonic event counter.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
  friend bool operator==(const Counter&, const Counter&) = default;
};

auto fields(Of<Counter> auto& c) { return std::tie(c.value); }

/// Last-written level.
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
  friend bool operator==(const Gauge&, const Gauge&) = default;
};

/// Exact value distribution: (value, count) runs in ascending value order.
class Histogram {
 public:
  /// RunReport's log2 bucket: 0 | [1,2) | [2,4) | ... | [2^63, 2^64).
  static int bucket_of(std::uint64_t value) {
    return value == 0 ? 0 : std::bit_width(value);
  }

  /// One distinct recorded value and how often it was recorded (> 0).
  struct Run {
    std::uint64_t value = 0;
    std::uint64_t count = 0;
    friend bool operator==(const Run&, const Run&) = default;
    friend auto fields(Of<Run> auto& r) { return std::tie(r.value, r.count); }
  };

  void record(std::uint64_t value) { add(value, 1); }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return runs_.empty() ? 0 : runs_.front().value; }
  std::uint64_t max() const { return runs_.empty() ? 0 : runs_.back().value; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Nearest-rank percentile, p in [0, 1]: the value at rank
  /// max(1, ceil(p * count)).  p == 1 is the maximum; empty returns 0.
  std::uint64_t percentile(double p) const;

  const std::vector<Run>& runs() const { return runs_; }

  /// Adds `other`'s recordings to this histogram.
  void merge(const Histogram& other);

  friend bool operator==(const Histogram& a, const Histogram& b) {
    return a.runs_ == b.runs_;
  }

  /// Checkpoint hooks.  The frame is the run list alone; count and sum are
  /// recomputed on load, so they cannot disagree with the runs.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  void add(std::uint64_t value, std::uint64_t n);

  std::vector<Run> runs_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Named metrics with stable addresses and name-sorted iteration.
///
/// `counter("noc.issued")` creates on first use and always returns the same
/// object (std::map nodes never move), so subsystems resolve their handles
/// once at construction and increment through the pointer on the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Value of a counter, 0 when absent (read-only lookup, no creation).
  std::uint64_t counter_value(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Name-sorted views — the deterministic iteration order.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Folds `other` into this registry: counters add, gauges take `other`'s
  /// value (last writer wins), histograms merge.  Fold order is the
  /// caller's responsibility where determinism matters (e.g. campaign
  /// trials fold in trial order).
  void merge(const MetricsRegistry& other);

  friend bool operator==(const MetricsRegistry& a, const MetricsRegistry& b) {
    return a.counters_ == b.counters_ && a.gauges_ == b.gauges_ &&
           a.histograms_ == b.histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace wsp::obs

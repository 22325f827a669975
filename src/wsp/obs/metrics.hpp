// Observability: named metrics with deterministic contents.
//
// The simulator's subsystems (NoC meshes, PDN solver, degradation
// campaigns, scrub chains) used to keep hand-rolled per-struct counters and
// re-derive percentiles ad hoc; this registry gives them one seam.  Three
// metric kinds:
//
//   * Counter   — monotonically increasing u64 (events).
//   * Gauge     — last-written double (levels: residuals, voltages).
//   * Histogram — fixed 65-bucket log2 value distribution (bucket 0 holds
//                 the value 0, bucket k holds [2^(k-1), 2^k)), plus exact
//                 retained samples up to a cap so p50/p95/p99 extraction is
//                 *exact* (nearest-rank over the real sample set) rather
//                 than bucket-resolution.  Past the cap, percentiles
//                 degrade deterministically to the bucket upper bound.
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

/// Nearest-rank percentile over `samples` (mutated in place by
/// nth_element).  p in [0, 1]; rank = max(1, ceil(p * n)).  Exact for every
/// n >= 1: n == 1 returns the sole element for every p, and p == 1 returns
/// the maximum.  Empty input returns 0.
std::uint64_t nearest_rank_percentile(std::vector<std::uint64_t>& samples,
                                      double p);

/// Log2-bucketed value distribution with exact percentile extraction.
class Histogram {
 public:
  /// 0 | [1,2) | [2,4) | ... | [2^63, 2^64): 65 fixed buckets.
  static constexpr int kBucketCount = 65;
  /// Samples retained verbatim for exact percentiles; beyond this the
  /// histogram keeps only bucket counts (recording stays O(1) memory).
  static constexpr std::size_t kExactSampleCap = std::size_t{1} << 20;

  static int bucket_of(std::uint64_t value) {
    return value == 0 ? 0 : std::bit_width(value);
  }
  /// Largest value the bucket covers (inclusive).
  static std::uint64_t bucket_upper_bound(int bucket);

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// True while every recorded value is still retained (percentiles exact).
  bool exact() const { return samples_.size() == count_; }

  /// Nearest-rank percentile, p in [0, 1].  Exact while `exact()`;
  /// afterwards the deterministic bucket upper bound at that rank.
  std::uint64_t percentile(double p) const;

  const std::uint64_t* buckets() const { return buckets_; }

  /// Adds `other`'s recordings to this histogram (bucket-wise; retained
  /// samples are concatenated up to the cap).
  void merge(const Histogram& other);

  friend bool operator==(const Histogram& a, const Histogram& b);

  /// Checkpoint hooks: the full distribution state (buckets, aggregates,
  /// retained samples) round-trips, so percentiles after a resume are the
  /// ones an uninterrupted run would report.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  std::uint64_t buckets_[kBucketCount] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> samples_;
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

  /// Checkpoint hooks.  load_state updates metrics *in place* and never
  /// erases a map node: subsystems cache Counter*/Gauge* handles resolved
  /// at construction, and those addresses must survive a load.  Metrics
  /// present in the snapshot are overwritten, metrics absent from it are
  /// zeroed, missing ones are created.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace wsp::obs

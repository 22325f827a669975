// Observability: unified machine-readable run report.
//
// A `RunReport` gathers everything one simulator run produced — bench
// measurements (from bench/bench_json.hpp), named scalar results, and full
// `MetricsRegistry` dumps per subsystem — into a single JSON document
// (`RUNREPORT_<name>.json`), so CI and analysis scripts read one file
// instead of scraping per-subsystem stdout.  Serialisation is fully
// deterministic: sections and names are emitted in sorted order
// (std::map), doubles with %.17g round-trip precision, no timestamps.
// Validated in CI against schemas/runreport.schema.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wsp/obs/metrics.hpp"

namespace wsp::obs {

/// %.17g — shortest text that round-trips the exact double.
std::string json_double(double v);

class RunReport {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Mirrors bench/bench_json.hpp's Measurement so wsp_obs stays free of
  /// bench includes; bench mains convert when assembling the report.
  struct BenchEntry {
    std::string name;
    double wall_ms = 0.0;
    std::uint64_t iterations = 0;
    int threads = 1;
    double speedup_vs_serial = 0.0;  // 0 when not measured
  };

  explicit RunReport(std::string name) : name_(std::move(name)) {}

  void add_bench(const BenchEntry& entry) { bench_.push_back(entry); }
  void add_scalar(const std::string& section, const std::string& name,
                  double value) {
    scalars_[section][name] = value;
  }
  /// Snapshots `registry` under `section` (counters, gauges, histogram
  /// count/sum/min/max/mean/p50/p95/p99 + non-empty buckets).
  void add_metrics(const std::string& section,
                   const MetricsRegistry& registry);

  std::string to_json() const;
  /// to_json() written to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;
  /// write() to RUNREPORT_<name>.json in the working directory (override
  /// path with the WSP_RUNREPORT_FILE environment variable); returns the
  /// path written, empty on failure.
  std::string write_default() const;

 private:
  struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::map<int, std::uint64_t> buckets;  // only non-empty buckets
  };
  struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };

  std::string name_;
  std::vector<BenchEntry> bench_;
  std::map<std::string, std::map<std::string, double>> scalars_;
  std::map<std::string, MetricsSnapshot> metrics_;
};

}  // namespace wsp::obs

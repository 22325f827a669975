// Observability layer (wsp::obs) + the metrics-correctness bugfix sweep:
// golden percentile/histogram values against a scalar reference, registry
// determinism, trace recording/export, RunReport serialisation, and the
// exact-value regression tests for the TrafficReport percentile/mean fix,
// Rng::below(0), transient settle detection, and WSP_THREADS parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/obs/report.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/pdn/transient.hpp"

namespace wsp {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;

/// Scalar nearest-rank reference: sort a copy, take element at
/// max(1, ceil(p*n)) - 1.  Histogram::percentile must match this for every
/// sample set and every p.
std::uint64_t reference_percentile(std::vector<std::uint64_t> samples,
                                   double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Histogram recorded(const std::vector<std::uint64_t>& samples) {
  Histogram h;
  for (const std::uint64_t v : samples) h.record(v);
  return h;
}

// Every p the oracle streams below are checked at.
constexpr double kOracleP[] = {0.0, 0.01, 0.5, 0.9, 0.99, 1.0};

void expect_matches_reference(const Histogram& h,
                              const std::vector<std::uint64_t>& samples) {
  ASSERT_EQ(h.count(), samples.size());
  for (const double p : kOracleP)
    EXPECT_EQ(h.percentile(p), reference_percentile(samples, p)) << "p=" << p;
}

// ---------------------------------------------------------------- metrics

TEST(Percentile, EmptyReturnsZero) {
  const Histogram h;
  for (const double p : kOracleP) EXPECT_EQ(h.percentile(p), 0u) << "p=" << p;
  EXPECT_EQ(reference_percentile({}, 0.5), 0u);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  const std::vector<std::uint64_t> s{7};
  const Histogram h = recorded(s);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(p), 7u) << "p=" << p;
    EXPECT_EQ(h.percentile(p), reference_percentile(s, p)) << "p=" << p;
  }
}

TEST(Percentile, TwoSamplesTailPercentilesPickTheLarger) {
  // The old floor(p * (n-1)) formula returned index 0 for p95/p99 at n=2 —
  // reporting the MINIMUM as the tail latency.  Nearest rank: rank
  // ceil(0.95*2) = 2, the larger sample.
  const std::vector<std::uint64_t> s{20, 10};
  const Histogram h = recorded(s);
  for (const auto& [p, want] :
       {std::pair{0.50, 10u}, {0.95, 20u}, {0.99, 20u}}) {
    EXPECT_EQ(h.percentile(p), want) << "p=" << p;
    EXPECT_EQ(h.percentile(p), reference_percentile(s, p)) << "p=" << p;
  }
}

TEST(Percentile, HundredSamplesExactRanks) {
  std::vector<std::uint64_t> s(100);
  for (std::uint64_t i = 0; i < 100; ++i) s[i] = i + 1;  // 1..100
  // Shuffle deterministically; recording order must not matter.
  Rng rng(42);
  for (std::size_t i = s.size(); i > 1; --i)
    std::swap(s[i - 1], s[rng.below(i)]);
  const Histogram h = recorded(s);
  for (const auto& [p, want] :
       {std::pair{0.50, 50u}, {0.95, 95u}, {0.99, 99u}, {1.0, 100u}}) {
    EXPECT_EQ(h.percentile(p), want) << "p=" << p;
    EXPECT_EQ(h.percentile(p), reference_percentile(s, p)) << "p=" << p;
  }
}

TEST(Percentile, RandomStreamsMatchSortOracle) {
  Rng rng(2021);
  std::vector<std::uint64_t> narrow(5000), wide(5000);
  for (auto& v : narrow) v = 40 + rng.below(8);
  for (auto& v : wide) v = rng.below(100000);
  expect_matches_reference(recorded(narrow), narrow);
  expect_matches_reference(recorded(wide), wide);
}

TEST(Percentile, StreamPastTwoToTheTwentyIsExact) {
  // 2^20 + 3 latency-like samples: the count no longer bounds exactness.
  Rng rng(20);
  std::vector<std::uint64_t> s((std::size_t{1} << 20) + 3);
  for (auto& v : s) v = 16 + rng.below(300);
  const Histogram h = recorded(s);
  EXPECT_LE(h.runs().size(), 300u);
  expect_matches_reference(h, s);
}

TEST(Histogram, ExactStatsMatchScalarReference) {
  Histogram h;
  std::vector<std::uint64_t> ref;
  Rng rng(7);
  std::uint64_t sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(100000);
    h.record(v);
    ref.push_back(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), *std::min_element(ref.begin(), ref.end()));
  EXPECT_EQ(h.max(), *std::max_element(ref.begin(), ref.end()));
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / 1000.0);
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(h.percentile(p), reference_percentile(ref, p)) << "p=" << p;
}

TEST(Histogram, RunsAreAscendingDistinctValues) {
  const Histogram h = recorded({5, 0, 5, 9, 0, 5});
  const std::vector<Histogram::Run> want{{0, 2}, {5, 3}, {9, 1}};
  EXPECT_EQ(h.runs(), want);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 24u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
}

TEST(Histogram, BucketBoundariesGolden) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.below(5000);
    (i % 2 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  // Same multiset of samples -> identical percentiles.
  for (const double p : {0.5, 0.95, 0.99})
    EXPECT_EQ(a.percentile(p), combined.percentile(p));
}

TEST(Histogram, MergePastTwoToTheTwentyIsExact) {
  // Two halves whose combined count passes 2^20.
  Rng rng(33);
  std::vector<std::uint64_t> lo((std::size_t{1} << 19) + 2);
  std::vector<std::uint64_t> hi((std::size_t{1} << 19) + 5);
  for (auto& v : lo) v = rng.below(200);
  for (auto& v : hi) v = 150 + rng.below(400);
  Histogram merged = recorded(lo);
  merged.merge(recorded(hi));
  std::vector<std::uint64_t> all = lo;
  all.insert(all.end(), hi.begin(), hi.end());
  ASSERT_GT(merged.count(), std::uint64_t{1} << 20);
  expect_matches_reference(merged, all);
}

TEST(Registry, IterationIsNameSortedAndLookupIsStable) {
  MetricsRegistry r;
  obs::Counter* z = &r.counter("zeta");
  obs::Counter* a = &r.counter("alpha");
  r.counter("mid").add(5);
  z->add(2);
  a->add(1);
  // Re-lookup returns the same node (pointers survive later insertions).
  EXPECT_EQ(&r.counter("zeta"), z);
  EXPECT_EQ(&r.counter("alpha"), a);
  std::vector<std::string> names;
  for (const auto& [name, c] : r.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
  EXPECT_EQ(r.counter_value("mid"), 5u);
  EXPECT_EQ(r.counter_value("absent"), 0u);
  EXPECT_FALSE(r.empty());
}

TEST(Registry, MergeAddsCountersAndTakesLastGauge) {
  MetricsRegistry a, b;
  a.counter("n").add(3);
  b.counter("n").add(4);
  b.counter("only_b").add(1);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.5);
  a.histogram("h").record(10);
  b.histogram("h").record(20);
  a.merge(b);
  EXPECT_EQ(a.counter_value("n"), 7u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value, 2.5);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").percentile(1.0), 20u);
}

// ----------------------------------------------------------------- report

TEST(RunReport, JsonIsDeterministicAndCarriesEveryField) {
  MetricsRegistry r;
  r.counter("noc.issued").add(11);
  r.gauge("pdn.min_supply_v").set(1.375);
  r.histogram("noc.latency").record(12);
  r.histogram("noc.latency").record(30);

  obs::RunReport report("unit");
  report.add_bench({"bench_a", 1.25, 200, 4, 2.0});
  report.add_scalar("traffic", "throughput", 0.5);
  report.add_metrics("noc", r);
  const std::string json = report.to_json();

  EXPECT_NE(json.find("\"report\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"noc.issued\":11"), std::string::npos);
  EXPECT_NE(json.find("\"pdn.min_supply_v\":1.375"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":30"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\":0.5"), std::string::npos);
  // Two identical assemblies serialise byte-identically.
  obs::RunReport again("unit");
  again.add_bench({"bench_a", 1.25, 200, 4, 2.0});
  again.add_scalar("traffic", "throughput", 0.5);
  again.add_metrics("noc", r);
  EXPECT_EQ(json, again.to_json());
}

TEST(RunReport, BucketsMatchPerSampleBucketCounting) {
  // Bucket edges and both extremes, some recorded twice: the log2 map the
  // report derives from the runs is the one per-sample counting gives.
  std::vector<std::uint64_t> samples{0, 1, UINT64_MAX, UINT64_MAX, 0};
  for (const int k : {1, 2, 7, 32, 63}) {
    samples.push_back((std::uint64_t{1} << k) - 1);
    samples.push_back(std::uint64_t{1} << k);
    samples.push_back(std::uint64_t{1} << k);
  }
  MetricsRegistry r;
  std::map<int, std::uint64_t> want;
  for (const std::uint64_t v : samples) {
    r.histogram("edges").record(v);
    ++want[Histogram::bucket_of(v)];
  }
  std::string buckets = "\"exact\":true,\"buckets\":{";
  for (const auto& [bucket, count] : want) {
    if (buckets.back() != '{') buckets += ",";
    buckets += "\"" + std::to_string(bucket) + "\":" + std::to_string(count);
  }
  buckets += "}";
  obs::RunReport report("edges");
  report.add_metrics("obs", r);
  EXPECT_NE(report.to_json().find(buckets), std::string::npos)
      << report.to_json() << "\nwant " << buckets;
}

TEST(RunReport, NonFiniteDoublesSerialiseAsNull) {
  EXPECT_EQ(obs::json_double(std::nan("")), "null");
  EXPECT_EQ(obs::json_double(INFINITY), "null");
  EXPECT_EQ(obs::json_double(0.1), std::string("0.10000000000000001"));
}

// ------------------------------------------------------------------ trace

TEST(Trace, DisabledSpansRecordNothing) {
  obs::Tracer& t = obs::Tracer::instance();
  t.disable();
  t.clear();
  { WSP_TRACE_SPAN("obs.test.disabled"); }
  EXPECT_EQ(t.recorded_spans(), 0u);
}

TEST(Trace, EnabledSpansExportAsChromeEvents) {
  obs::Tracer& t = obs::Tracer::instance();
  t.clear();
  t.set_thread_lane_name("obs-test-main");
  t.enable();
  {
    WSP_TRACE_SPAN("obs.test.outer");
    WSP_TRACE_SPAN("obs.test.inner");
  }
  t.disable();
  EXPECT_EQ(t.recorded_spans(), 2u);
  const std::string json = t.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs.test.outer"), std::string::npos);
  EXPECT_NE(json.find("obs.test.inner"), std::string::npos);
  EXPECT_NE(json.find("obs-test-main"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  t.clear();
  EXPECT_EQ(t.recorded_spans(), 0u);
}

// ------------------------------------- satellite: TrafficReport percentiles

Histogram histogram_of(const std::vector<std::uint64_t>& samples) {
  Histogram h;
  for (const std::uint64_t v : samples) h.record(v);
  return h;
}

TEST(TrafficLatencies, EmptyZeroesEveryLatencyField) {
  noc::TrafficReport r;
  r.mean_latency = 99.0;  // stale values must be overwritten
  r.max_latency = 99;
  noc::finalize_latencies(r, Histogram{});
  EXPECT_EQ(r.latency_samples, 0u);
  EXPECT_DOUBLE_EQ(r.mean_latency, 0.0);
  EXPECT_EQ(r.p50_latency, 0u);
  EXPECT_EQ(r.p95_latency, 0u);
  EXPECT_EQ(r.p99_latency, 0u);
  EXPECT_EQ(r.max_latency, 0u);
}

TEST(TrafficLatencies, SingleSampleIsEveryStatistic) {
  noc::TrafficReport r;
  noc::finalize_latencies(r, histogram_of({7}));
  EXPECT_EQ(r.latency_samples, 1u);
  EXPECT_DOUBLE_EQ(r.mean_latency, 7.0);
  EXPECT_EQ(r.p50_latency, 7u);
  EXPECT_EQ(r.p95_latency, 7u);
  EXPECT_EQ(r.p99_latency, 7u);
  EXPECT_EQ(r.max_latency, 7u);
}

TEST(TrafficLatencies, TwoSamplesTailIsTheLargerNotTheMinimum) {
  // Regression for the floor(p*(n-1)) indexing bug: at n=2 it reported the
  // minimum as p95/p99.
  noc::TrafficReport r;
  noc::finalize_latencies(r, histogram_of({10, 20}));
  EXPECT_EQ(r.latency_samples, 2u);
  EXPECT_DOUBLE_EQ(r.mean_latency, 15.0);
  EXPECT_EQ(r.p50_latency, 10u);
  EXPECT_EQ(r.p95_latency, 20u);
  EXPECT_EQ(r.p99_latency, 20u);
  EXPECT_EQ(r.max_latency, 20u);
}

TEST(TrafficLatencies, HundredSamplesExactValues) {
  std::vector<std::uint64_t> lat(100);
  for (std::uint64_t i = 0; i < 100; ++i) lat[i] = 100 - i;  // 100..1
  noc::TrafficReport r;
  // The report's mean divides by the measured sample count, not by
  // `completed` — a warm-started run (completed > samples) used to deflate
  // the mean.
  r.completed = 100000;
  noc::finalize_latencies(r, histogram_of(lat));
  EXPECT_EQ(r.latency_samples, 100u);
  EXPECT_DOUBLE_EQ(r.mean_latency, 50.5);
  EXPECT_EQ(r.p50_latency, 50u);
  EXPECT_EQ(r.p95_latency, 95u);
  EXPECT_EQ(r.p99_latency, 99u);
  EXPECT_EQ(r.max_latency, 100u);
}

// ------------------------------------------- satellite: Rng::below(0)

TEST(RngBelow, ZeroBoundThrowsInsteadOfReturningZero) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), Error);
  // The bound above 0 still works after the failed call.
  EXPECT_LT(rng.below(10), 10u);
}

// -------------------------------- satellite: transient settle detection

TEST(TransientSettle, TruncatedRingDoesNotCountAsSettled) {
  // Underdamped loop: big swing, slow loop, tiny decap.  At 98 ns the
  // output is ringing through the band when the horizon ends; the old
  // last-entry logic called that "settled" at the final in-band crossing.
  const pdn::LdoParams ldo;
  pdn::TransientParams p;
  p.decap_f = 2e-9;
  p.loop_tau_s = 40e-9;
  p.loop_gain = 30.0;
  p.dt_s = 0.5e-9;
  const pdn::TransientResult truncated =
      pdn::simulate_load_step(ldo, p, 0.05, 0.25, 50e-9, 98e-9);
  EXPECT_LT(truncated.settle_time_s, 0.0)
      << "mid-ring horizon end must not report a settle time";
}

TEST(TransientSettle, LongHorizonStillSettles) {
  // Same ringing loop with room to decay: the dwell requirement is met and
  // a real settle time comes back.
  const pdn::LdoParams ldo;
  pdn::TransientParams p;
  p.decap_f = 2e-9;
  p.loop_tau_s = 40e-9;
  p.loop_gain = 30.0;
  p.dt_s = 0.5e-9;
  const pdn::TransientResult settled =
      pdn::simulate_load_step(ldo, p, 0.05, 0.25, 50e-9, 2000e-9);
  EXPECT_GE(settled.settle_time_s, 0.0);
}

TEST(TransientSettle, ExplicitDwellOverridesDefault) {
  const pdn::LdoParams ldo;
  pdn::TransientParams p;  // well-damped defaults
  p.settle_dwell_s = 1e-9;
  const pdn::TransientResult r =
      pdn::simulate_load_step(ldo, p, 0.09, 0.29, 100e-9, 400e-9);
  EXPECT_GE(r.settle_time_s, 0.0);
  EXPECT_LT(r.settle_time_s, 33e-9);
}

// ------------------------------------- satellite: WSP_THREADS parsing

TEST(ThreadCountParse, AcceptsPlainPositiveIntegers) {
  EXPECT_EQ(exec::parse_thread_count("1"), 1);
  EXPECT_EQ(exec::parse_thread_count("8"), 8);
  EXPECT_EQ(exec::parse_thread_count(" 16 "), 16);
  EXPECT_EQ(exec::parse_thread_count("65536"), 65536);
}

TEST(ThreadCountParse, RejectsGarbageZeroNegativeAndOverflow) {
  EXPECT_EQ(exec::parse_thread_count(nullptr), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count(""), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("x"), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("4x"), std::nullopt);  // old atoi: 4
  EXPECT_EQ(exec::parse_thread_count("4 2"), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("0"), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("-3"), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("65537"), std::nullopt);
  EXPECT_EQ(exec::parse_thread_count("99999999999999999999"), std::nullopt);
}

/// Env fixture: sets WSP_THREADS for one test and restores the prior value
/// (or unsets) on teardown, so the suite can run in any order.
class WspThreadsEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("WSP_THREADS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
  }
  void TearDown() override {
    if (had_prev_) {
      ::setenv("WSP_THREADS", prev_.c_str(), 1);
    } else {
      ::unsetenv("WSP_THREADS");
    }
    exec::set_shared_threads(0);
  }
  bool had_prev_ = false;
  std::string prev_;
};

TEST_F(WspThreadsEnv, ValidValueSelectsThatManyThreads) {
  ::setenv("WSP_THREADS", "3", 1);
  exec::set_shared_threads(0);  // drop any override
  EXPECT_EQ(exec::shared_threads(), 3);
}

TEST_F(WspThreadsEnv, GarbageFallsBackToHardwareDefault) {
  ::unsetenv("WSP_THREADS");
  exec::set_shared_threads(0);
  const int hardware = exec::shared_threads();
  ::setenv("WSP_THREADS", "4x", 1);
  EXPECT_EQ(exec::shared_threads(), hardware)
      << "malformed WSP_THREADS must fall back, not atoi-truncate to 4";
  ::setenv("WSP_THREADS", "0", 1);
  EXPECT_EQ(exec::shared_threads(), hardware);
  ::setenv("WSP_THREADS", "-2", 1);
  EXPECT_EQ(exec::shared_threads(), hardware);
}

}  // namespace
}  // namespace wsp

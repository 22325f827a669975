#include "wsp/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/ckpt/checkpoint.hpp"

namespace wsp::obs {

std::uint64_t nearest_rank_percentile(std::vector<std::uint64_t>& samples,
                                      double p) {
  if (samples.empty()) return 0;
  const auto n = samples.size();
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

std::uint64_t Histogram::bucket_upper_bound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

void Histogram::record(std::uint64_t value) {
  ++buckets_[bucket_of(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
  if (samples_.size() < kExactSampleCap) samples_.push_back(value);
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (exact()) {
    std::vector<std::uint64_t> scratch(samples_);
    return nearest_rank_percentile(scratch, p);
  }
  // Bucket-resolution fallback: walk buckets to the nearest-rank position
  // and report that bucket's upper bound (clamped to the observed max).
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return std::min(bucket_upper_bound(b), max_);
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBucketCount; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
  const std::size_t room = kExactSampleCap - std::min(kExactSampleCap,
                                                      samples_.size());
  const std::size_t take = std::min(room, other.samples_.size());
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.begin() + static_cast<std::ptrdiff_t>(take));
}

bool operator==(const Histogram& a, const Histogram& b) {
  return a.count_ == b.count_ && a.sum_ == b.sum_ && a.min() == b.min() &&
         a.max_ == b.max_ && a.samples_ == b.samples_ &&
         std::equal(a.buckets_, a.buckets_ + Histogram::kBucketCount,
                    b.buckets_);
}

void Histogram::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("HIST"));
  ckpt::save_each(w, buckets_);
  ckpt::save_fields(w, std::tie(count_, sum_, min_, max_, samples_));
}

void Histogram::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("HIST"), "Histogram");
  ckpt::load_each(r, buckets_);
  ckpt::load_fields(r, std::tie(count_, sum_, min_, max_, samples_));
  if (samples_.size() > kExactSampleCap || samples_.size() > count_)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "Histogram retained-sample count is implausible");
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].value += c.value;
  for (const auto& [name, g] : other.gauges_) gauges_[name].value = g.value;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

void MetricsRegistry::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("MREG"));
  w.u64(counters_.size());
  for (const auto& [name, c] : counters_) {
    w.str(name);
    w.u64(c.value);
  }
  w.u64(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    w.str(name);
    w.f64(g.value);
  }
  w.u64(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    w.str(name);
    h.save_state(w);
  }
}

void MetricsRegistry::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("MREG"), "MetricsRegistry");
  // In-place restore: zero what the snapshot lacks, overwrite what it has,
  // create what this registry lacks.  Never erase — cached handle
  // addresses must stay valid.
  for (auto& [name, c] : counters_) c.value = 0;
  for (auto& [name, g] : gauges_) g.value = 0.0;
  for (auto& [name, h] : histograms_) h = Histogram{};
  std::size_t nc = r.length(1);
  for (std::size_t i = 0; i < nc; ++i) {
    std::string name = r.str();
    counters_[name].value = r.u64();
  }
  std::size_t ng = r.length(1);
  for (std::size_t i = 0; i < ng; ++i) {
    std::string name = r.str();
    gauges_[name].value = r.f64();
  }
  std::size_t nh = r.length(1);
  for (std::size_t i = 0; i < nh; ++i) {
    std::string name = r.str();
    histograms_[name].load_state(r);
  }
}

}  // namespace wsp::obs

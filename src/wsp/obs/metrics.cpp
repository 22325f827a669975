#include "wsp/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/ckpt/checkpoint.hpp"

namespace wsp::obs {

void Histogram::add(std::uint64_t value, std::uint64_t n) {
  const auto it = std::lower_bound(
      runs_.begin(), runs_.end(), value,
      [](const Run& run, std::uint64_t v) { return run.value < v; });
  if (it != runs_.end() && it->value == value) {
    it->count += n;
  } else {
    runs_.insert(it, Run{value, n});
  }
  count_ += n;
  sum_ += value * n;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  const double n = static_cast<double>(count_);
  // Compared as a double first: ceil(n) may round past the u64 range.
  const double want = std::ceil(clamped * n);
  const std::uint64_t rank =
      want >= n ? count_
                : std::max<std::uint64_t>(static_cast<std::uint64_t>(want), 1);
  auto run = runs_.begin();
  for (std::uint64_t seen = run->count; seen < rank; seen += run->count) ++run;
  return run->value;
}

void Histogram::merge(const Histogram& other) {
  for (const Run& run : other.runs_) add(run.value, run.count);
}

void Histogram::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("HIST"));
  ckpt::save_fields(w, runs_);
}

void Histogram::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("HIST"), "Histogram");
  std::vector<Run> runs;
  ckpt::load_fields(r, runs);
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if ((i > 0 && run.value <= runs[i - 1].value) || run.count == 0 ||
        run.count > ~std::uint64_t{0} - count)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "Histogram runs must ascend strictly, with nonzero "
                        "counts whose total fits in 64 bits");
    count += run.count;
    sum += run.value * run.count;
  }
  runs_ = std::move(runs);
  count_ = count;
  sum_ = sum;
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

}  // namespace wsp::obs

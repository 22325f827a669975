#include "wsp/obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "wsp/ckpt/checkpoint.hpp"

namespace wsp::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // JSON has no inf/nan literals; clamp to null-adjacent sentinels.
  std::string s(buf);
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

void RunReport::add_metrics(const std::string& section,
                            const MetricsRegistry& registry) {
  MetricsSnapshot& snap = metrics_[section];
  for (const auto& [name, c] : registry.counters()) {
    snap.counters[name] = c.value;
  }
  for (const auto& [name, g] : registry.gauges()) {
    snap.gauges[name] = g.value;
  }
  for (const auto& [name, h] : registry.histograms()) {
    HistogramSnapshot hs;
    hs.count = h.count();
    hs.sum = h.sum();
    hs.min = h.min();
    hs.max = h.max();
    hs.mean = h.mean();
    hs.p50 = h.percentile(0.50);
    hs.p95 = h.percentile(0.95);
    hs.p99 = h.percentile(0.99);
    for (const Histogram::Run& run : h.runs())
      hs.buckets[Histogram::bucket_of(run.value)] += run.count;
    snap.histograms[name] = std::move(hs);
  }
}

std::string RunReport::to_json() const {
  std::ostringstream out;
  out << "{\"report\":\"" << json_escape(name_) << "\"";
  out << ",\"schema_version\":" << kSchemaVersion;

  out << ",\"bench\":[";
  for (std::size_t i = 0; i < bench_.size(); ++i) {
    const BenchEntry& b = bench_[i];
    if (i) out << ",";
    out << "{\"name\":\"" << json_escape(b.name) << "\""
        << ",\"wall_ms\":" << json_double(b.wall_ms)
        << ",\"iterations\":" << b.iterations
        << ",\"threads\":" << b.threads
        << ",\"speedup_vs_serial\":" << json_double(b.speedup_vs_serial)
        << "}";
  }
  out << "]";

  out << ",\"scalars\":{";
  bool first_section = true;
  for (const auto& [section, values] : scalars_) {
    if (!first_section) out << ",";
    first_section = false;
    out << "\"" << json_escape(section) << "\":{";
    bool first = true;
    for (const auto& [name, value] : values) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(name) << "\":" << json_double(value);
    }
    out << "}";
  }
  out << "}";

  out << ",\"metrics\":{";
  first_section = true;
  for (const auto& [section, snap] : metrics_) {
    if (!first_section) out << ",";
    first_section = false;
    out << "\"" << json_escape(section) << "\":{";

    out << "\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(name) << "\":" << value;
    }
    out << "}";

    out << ",\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(name) << "\":" << json_double(value);
    }
    out << "}";

    out << ",\"histograms\":{";
    first = true;
    for (const auto& [name, h] : snap.histograms) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(name) << "\":{"
          << "\"count\":" << h.count << ",\"sum\":" << h.sum
          << ",\"min\":" << h.min << ",\"max\":" << h.max
          << ",\"mean\":" << json_double(h.mean) << ",\"p50\":" << h.p50
          << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99
          << ",\"exact\":true,\"buckets\":{";
      bool first_bucket = true;
      for (const auto& [bucket, count] : h.buckets) {
        if (!first_bucket) out << ",";
        first_bucket = false;
        out << "\"" << bucket << "\":" << count;
      }
      out << "}}";
    }
    out << "}}";
  }
  out << "}}";
  return out.str();
}

bool RunReport::write(const std::string& path) const {
  // Temp-then-rename so a run killed mid-write never leaves a truncated
  // JSON artifact for downstream tooling to choke on.
  return ckpt::atomic_write_text(path, to_json() + "\n");
}

std::string RunReport::write_default() const {
  const char* env = std::getenv("WSP_RUNREPORT_FILE");
  const std::string path = env != nullptr && env[0] != '\0'
                               ? env
                               : "RUNREPORT_" + name_ + ".json";
  return write(path) ? path : std::string{};
}

}  // namespace wsp::obs

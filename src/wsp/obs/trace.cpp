#include "wsp/obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

namespace wsp::obs {

std::atomic<bool> Tracer::enabled_flag_{false};

namespace {

std::uint64_t steady_epoch_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Origin is atomic so a worker that observes `enabled_flag_` mid-run reads
// a coherent origin without locking (TSan-clean even across enable()).
std::atomic<std::uint64_t> g_origin_ns{0};

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

struct Tracer::Lane {
  std::string name;
  std::vector<TraceEvent> events;  // ring once kLaneCapacity is reached
  std::size_t cursor = 0;          // next overwrite position when full
  std::uint64_t total = 0;         // spans ever recorded on this lane
};

namespace {
// Lane registry.  std::deque keeps lane addresses stable so each thread
// caches a raw pointer; the mutex guards registration and export only —
// recording touches nothing shared.  The registry is intentionally
// immortal (never destroyed): worker threads may outlive any particular
// static destruction order, and an atexit teardown would race their
// lane writes.  It stays reachable through the static pointer, so leak
// checkers don't flag it.
struct LaneRegistry {
  std::mutex mutex;
  std::deque<Tracer::Lane> lanes;
};

LaneRegistry& lane_registry() {
  static LaneRegistry* registry = new LaneRegistry;
  return *registry;
}

thread_local Tracer::Lane* tls_lane = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Lane& Tracer::local_lane() {
  if (tls_lane == nullptr) {
    LaneRegistry& reg = lane_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.lanes.emplace_back();
    reg.lanes.back().name = "thread-" + std::to_string(reg.lanes.size() - 1);
    tls_lane = &reg.lanes.back();
  }
  return *tls_lane;
}

void Tracer::enable() {
  g_origin_ns.store(steady_epoch_ns(), std::memory_order_relaxed);
  enabled_flag_.store(true, std::memory_order_release);
}

void Tracer::disable() {
  enabled_flag_.store(false, std::memory_order_release);
}

void Tracer::clear() {
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Lane& lane : reg.lanes) {
    lane.events.clear();
    lane.cursor = 0;
    lane.total = 0;
  }
}

void Tracer::set_thread_lane_name(const std::string& name) {
  Lane& lane = local_lane();
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  lane.name = name;
}

std::uint64_t Tracer::now_ns() const {
  return steady_epoch_ns() - g_origin_ns.load(std::memory_order_relaxed);
}

void Tracer::record(const char* name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns) {
  Lane& lane = local_lane();
  TraceEvent ev{name, ts_ns, dur_ns};
  if (lane.events.size() < kLaneCapacity) {
    lane.events.push_back(ev);
  } else {
    lane.events[lane.cursor] = ev;
    lane.cursor = (lane.cursor + 1) % kLaneCapacity;
  }
  ++lane.total;
}

std::uint64_t Tracer::recorded_spans() {
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const Lane& lane : reg.lanes) total += lane.total;
  return total;
}

std::string Tracer::chrome_trace_json() {
  LaneRegistry& reg = lane_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const Lane& lane : reg.lanes) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << json_escape(lane.name) << "\"}}";
    for (const TraceEvent& ev : lane.events) {
      // Chrome expects microseconds; keep sub-µs precision as a fraction.
      out << ",{\"name\":\"" << json_escape(ev.name ? ev.name : "?")
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(ev.ts_ns) / 1000.0
          << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1000.0 << "}";
    }
    ++tid;
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json() << "\n";
  return static_cast<bool>(f);
}

ScopedTrace::ScopedTrace(std::string tag) : tag_(std::move(tag)) {
  const char* env = std::getenv("WSP_TRACE");
  active_ = env != nullptr && env[0] != '\0' &&
            !(env[0] == '0' && env[1] == '\0');
  if (!active_) return;
  const char* file = std::getenv("WSP_TRACE_FILE");
  path_ = file != nullptr && file[0] != '\0' ? file
                                             : "TRACE_" + tag_ + ".json";
  Tracer::instance().set_thread_lane_name("main");
  Tracer::instance().clear();
  Tracer::instance().enable();
}

ScopedTrace::~ScopedTrace() {
  if (!active_) return;
  Tracer::instance().disable();
  Tracer::instance().write_chrome_trace(path_);
}

}  // namespace wsp::obs

// Observability: structured span tracing with Chrome trace_event export.
//
// A process-wide `Tracer` owns one lane per participating thread (the main
// thread plus each `wsp::exec` pool worker).  `WSP_TRACE_SPAN("name")`
// opens a RAII span on the current thread's lane; when tracing is disabled
// (the default) the macro costs a single relaxed atomic load and no
// allocation — hot simulator loops keep their spans compiled in.
//
// Wall-clock time appears ONLY here: span timestamps are steady_clock
// nanoseconds relative to the moment tracing was enabled, and they are
// confined to the exported JSON.  Nothing in `MetricsRegistry` or any
// simulator result ever reads the clock, so traced and untraced runs are
// bit-identical in every recorded value.
//
// Lanes are thread-local ring buffers (fixed capacity, oldest spans
// overwritten), so recording takes no lock.  The registration list is the
// only shared state, guarded by a mutex; export requires the traced
// threads to be quiescent (pool idle), which the thread-pool's job
// handshake already guarantees before `write_chrome_trace` is called.
//
// Export format: Chrome trace_event JSON ("X" complete events, ts/dur in
// microseconds) — open in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace wsp::obs {

/// One recorded span.  `name` must be a string literal (or otherwise
/// outlive the Tracer): spans are recorded by pointer to stay allocation-
/// free on the hot path.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   // span start, ns since tracing was enabled
  std::uint64_t dur_ns = 0;  // span duration, ns
};

class Tracer {
 public:
  /// Spans retained per lane; older spans are overwritten ring-style.
  static constexpr std::size_t kLaneCapacity = std::size_t{1} << 14;

  static Tracer& instance();

  /// Enables recording and (re)sets the time origin.  Idempotent.
  void enable();
  /// Stops recording.  Recorded spans remain until clear().
  void disable();
  /// Drops all recorded spans from every lane (registration survives).
  void clear();

  static bool enabled() {
    return enabled_flag_.load(std::memory_order_relaxed);
  }

  /// Names the calling thread's lane in the exported trace (e.g.
  /// "wsp-pool-worker-3").  Creates the lane if needed.
  void set_thread_lane_name(const std::string& name);

  /// Serialises every lane's spans as Chrome trace_event JSON.  Caller
  /// must ensure traced threads are quiescent (pool idle / joined).
  std::string chrome_trace_json();

  /// chrome_trace_json() written to `path`; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path);

  /// Total spans recorded across all lanes (for tests).
  std::uint64_t recorded_spans();

  // -- internal, used by TraceSpan --------------------------------------
  void record(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns);
  std::uint64_t now_ns() const;
  struct Lane;

 private:
  Tracer() = default;
  Lane& local_lane();

  static std::atomic<bool> enabled_flag_;
};

/// RAII span: measures from construction to destruction on the current
/// thread's lane.  No-op (one relaxed load) while tracing is disabled; a
/// span that straddles enable()/disable() is recorded only if tracing was
/// on at BOTH endpoints.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::enabled()) {
      name_ = name;
      start_ns_ = Tracer::instance().now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr && Tracer::enabled()) {
      Tracer& t = Tracer::instance();
      const std::uint64_t end = t.now_ns();
      t.record(name_, start_ns_, end - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

#define WSP_OBS_CONCAT_INNER(a, b) a##b
#define WSP_OBS_CONCAT(a, b) WSP_OBS_CONCAT_INNER(a, b)
/// Scoped trace span: `WSP_TRACE_SPAN("pdn.grid.solve");`
#define WSP_TRACE_SPAN(name) \
  ::wsp::obs::TraceSpan WSP_OBS_CONCAT(wsp_trace_span_, __LINE__)(name)

/// Example/bench helper: enables tracing for the enclosing scope when the
/// WSP_TRACE environment variable is set to anything but "" or "0", and on
/// destruction writes TRACE_<tag>.json (override path with
/// WSP_TRACE_FILE).  Does nothing when WSP_TRACE is unset.
class ScopedTrace {
 public:
  explicit ScopedTrace(std::string tag);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  bool active() const { return active_; }
  const std::string& path() const { return path_; }

 private:
  std::string tag_;
  std::string path_;
  bool active_ = false;
};

}  // namespace wsp::obs

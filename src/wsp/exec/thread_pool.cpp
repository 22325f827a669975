#include "wsp/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wsp/obs/trace.hpp"

namespace wsp::exec {

namespace {

thread_local bool tls_in_chunk = false;
std::atomic<int> g_override_threads{0};  // 0 = environment / hardware

int hardware_default() {
  static const int hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<int>(n) : 1;
  }();
  return hw;
}

int env_thread_count() {
  const char* env = std::getenv("WSP_THREADS");
  if (env == nullptr || env[0] == '\0') return hardware_default();
  if (const auto n = parse_thread_count(env)) return *n;
  // Malformed value: fall back loudly, once — a silently ignored
  // WSP_THREADS=4x (old atoi read it as 4) corrupts every thread sweep.
  static std::once_flag warned;
  const int fallback = hardware_default();
  std::call_once(warned, [&] {
    std::fprintf(stderr,
                 "wsp: ignoring invalid WSP_THREADS='%s' "
                 "(expected an integer in [1, 65536]); using %d threads\n",
                 env, fallback);
  });
  return fallback;
}

}  // namespace

void run_chunks(std::size_t chunk_count,
                const std::function<void(std::size_t)>& fn) {
  if (chunk_count == 0) return;
  // A nested call runs inline: the outermost level owns the partitioning,
  // and the thread count never multiplies.
  const std::size_t threads =
      tls_in_chunk ? 1
                   : std::min(static_cast<std::size_t>(shared_threads()),
                              chunk_count);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // first failure, guarded by error_mutex
  const auto keep_first_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
  };
  const auto claim_chunks = [&] {
    const bool outer = tls_in_chunk;
    tls_in_chunk = true;
    for (std::size_t i = next.fetch_add(1); i < chunk_count;
         i = next.fetch_add(1)) {
      try {
        WSP_TRACE_SPAN("exec.chunk");
        fn(i);
      } catch (...) {
        keep_first_error();
      }
    }
    tls_in_chunk = outer;
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (std::size_t k = 1; k < threads; ++k)
      workers.emplace_back([&, k] {
        // One trace lane per spawned worker, registered only when traced.
        if (obs::Tracer::enabled()) {
          try {
            obs::Tracer::instance().set_thread_lane_name(
                "wsp-exec-worker-" + std::to_string(k));
          } catch (...) {
            keep_first_error();
          }
        }
        claim_chunks();
      });
    claim_chunks();
  }  // joins every worker: their writes happen-before the return
  if (error) std::rethrow_exception(error);
}

std::optional<int> parse_thread_count(const char* text) {
  if (text == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || errno == ERANGE) return std::nullopt;
  // Only trailing whitespace may follow the number ("4x" is garbage, not 4).
  for (; *end != '\0'; ++end) {
    if (!std::isspace(static_cast<unsigned char>(*end))) return std::nullopt;
  }
  if (n < 1 || n > 65536) return std::nullopt;
  return static_cast<int>(n);
}

void set_shared_threads(int threads) {
  g_override_threads.store(std::max(threads, 0));
}

int shared_threads() {
  const int n = g_override_threads.load();
  return n > 0 ? n : env_thread_count();
}

}  // namespace wsp::exec

// Parallel-execution substrate for Monte Carlo campaign trials.
//
// Design goals, in priority order:
//   1. Determinism: every construct here must produce bit-identical results
//      regardless of the number of worker threads.  Chunk *boundaries* are a
//      pure function of the iteration count (never of the thread count).
//      Which thread executes which chunk is the only scheduling freedom, and
//      the callers guarantee chunks write disjoint state.
//   2. Simplicity: a fixed-size pool, no work stealing, no task graph.  One
//      blocking `run_chunks` primitive; `parallel_for` is a thin wrapper.
//   3. Graceful degradation: thread count 1 (or a nested call from inside a
//      worker) executes inline on the calling thread with zero overhead and
//      zero deadlock risk.
//
// Thread count resolution: `set_shared_threads(n)` wins, else the
// WSP_THREADS environment variable, else std::thread::hardware_concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace wsp::exec {

/// Fixed-size pool of worker threads executing indexed chunks of one job at
/// a time.  The calling thread participates, so `ThreadPool(n)` applies n
/// threads of compute with n-1 workers.
class ThreadPool {
 public:
  /// `threads` <= 1 creates no workers (all run_chunks calls are inline).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute threads (workers + the calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Executes fn(0) ... fn(chunk_count-1), each exactly once, distributed
  /// over the pool; blocks until all chunks complete.  The first exception
  /// thrown by any chunk is rethrown here (remaining chunks still run).
  /// Reentrant calls from inside a chunk execute inline on that thread.
  void run_chunks(std::size_t chunk_count,
                  const std::function<void(std::size_t)>& fn);

  /// True on a thread currently executing a chunk (worker or participating
  /// caller) — nested parallel constructs use this to degrade to serial.
  static bool on_worker_thread();

 private:
  // One dispatched job.  Heap-shared so a worker that wakes late and grabs
  // an already-finished job only touches an exhausted counter, never a
  // dangling frame.
  struct Job {
    std::function<void(std::size_t)> fn;
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next{0};  // next chunk index to claim
    std::size_t done = 0;              // completed chunks (pool mutex)
    std::exception_ptr error;          // first failure (pool mutex)
  };

  void worker_loop();
  void execute(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::shared_ptr<Job> current_;  // guarded by mutex_
  std::uint64_t generation_ = 0;  // bumped per dispatched job
  bool stopping_ = false;
};

/// Strict parser for WSP_THREADS-style thread counts.  Accepts a single
/// base-10 positive integer with optional surrounding whitespace, in
/// [1, 65536]; returns nullopt for anything else — empty text, garbage,
/// trailing junk ("4x"), zero, negative, or out-of-range values.  The old
/// atoi semantics silently read "4x" as 4 and turned garbage into the
/// hardware default with no indication anything was wrong.
std::optional<int> parse_thread_count(const char* text);

/// Threads the *next* construction of the shared pool uses: the explicit
/// override if set, else a well-formed WSP_THREADS, else
/// hardware_concurrency (min 1).  A malformed WSP_THREADS value is
/// rejected with a one-time stderr warning naming the fallback.
int default_thread_count();

/// Process-wide pool that Monte Carlo campaign trials fan out over.  Built
/// lazily with default_thread_count() threads.
ThreadPool& shared_pool();

/// Rebuilds the shared pool with `threads` threads (<=0 resets to the
/// environment default).  Not safe to call while the pool is running a job;
/// intended for benches/tests sweeping thread counts.
void set_shared_threads(int threads);

/// Thread count of the shared pool as currently configured.
int shared_threads();

}  // namespace wsp::exec

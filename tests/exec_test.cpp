// Tests for the wsp::exec parallel-execution substrate: chunk coverage,
// the per-call thread cap, exception propagation after a full join,
// thread-count reconfiguration during a call, nesting, and determinism of
// the static chunking.  No test uses more than 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "wsp/exec/parallel_for.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::exec {
namespace {

/// Pins the shared thread count for one scope, then restores the
/// environment default.
struct ThreadsScope {
  explicit ThreadsScope(int n) { set_shared_threads(n); }
  ~ThreadsScope() { set_shared_threads(0); }
};

/// Distinct ids of the threads that ran chunks of one call.
struct ThreadIds {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  void record() {
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  }
};

// Live threads that have run a chunk, the calling thread excluded: the
// mark is a thread_local, so a spawned thread's exit (which its join
// waits for) destroys it.
std::atomic<int> g_live_spawned{0};
struct SpawnedThreadMark {
  SpawnedThreadMark() { g_live_spawned.fetch_add(1); }
  ~SpawnedThreadMark() { g_live_spawned.fetch_sub(1); }
};
void mark_if_spawned(std::thread::id caller) {
  if (std::this_thread::get_id() != caller) {
    thread_local SpawnedThreadMark mark;
  }
}

// The ThreadPool suite is named for the module (thread_pool.hpp); it
// checks the free run_chunks that replaced the pool class.
TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  for (int threads = 1; threads <= 8; ++threads) {
    const ThreadsScope scope(threads);
    for (std::size_t chunks = 1; chunks <= 70; ++chunks) {
      std::vector<std::atomic<int>> hits(chunks);
      run_chunks(chunks, [&](std::size_t c) { hits[c].fetch_add(1); });
      for (std::size_t c = 0; c < chunks; ++c)
        ASSERT_EQ(hits[c].load(), 1)
            << "threads " << threads << " chunks " << chunks << " chunk "
            << c;
    }
  }
}

TEST(ThreadPool, ZeroChunksIsANoOp) {
  for (int threads = 1; threads <= 8; ++threads) {
    const ThreadsScope scope(threads);
    bool ran = false;
    run_chunks(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran) << "threads " << threads;
  }
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  // Each call's threads are joined before it returns, so a call never
  // sees a chunk of the one before it.
  const ThreadsScope scope(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(8);
    run_chunks(hits.size(), [&](std::size_t c) { hits[c].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(RunChunks, UsesAtMostOneThreadPerChunk) {
  for (int threads = 1; threads <= 8; ++threads) {
    const ThreadsScope scope(threads);
    for (const std::size_t chunks : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
      ThreadIds seen;
      run_chunks(chunks, [&](std::size_t) { seen.record(); });
      EXPECT_LE(seen.ids.size(),
                std::min(static_cast<std::size_t>(threads), chunks))
          << "threads " << threads << " chunks " << chunks;
    }
  }
}

TEST(RunChunks, TracedCallsNameOneLanePerStartedWorker) {
  // Every started worker names a lane, so the lane count shows how many
  // threads a call started: none untraced, and two for a 3-chunk call at
  // 8 threads (the cap at the chunk count).
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto lane_count = [&] {
    const std::string json = tracer.chrome_trace_json();
    std::size_t lanes = 0;
    for (std::size_t at = json.find("thread_name"); at != std::string::npos;
         at = json.find("thread_name", at + 1))
      ++lanes;
    return lanes;
  };
  tracer.set_thread_lane_name("exec-test-caller");
  const ThreadsScope scope(8);
  const std::size_t before = lane_count();
  run_chunks(8, [](std::size_t) {});
  EXPECT_EQ(lane_count(), before) << "an untraced worker registered a lane";

  tracer.enable();
  run_chunks(3, [](std::size_t) {});
  tracer.disable();
  EXPECT_EQ(lane_count(), before + 2);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"wsp-exec-worker-1\""), std::string::npos);
  EXPECT_NE(json.find("\"wsp-exec-worker-2\""), std::string::npos);
  tracer.clear();
}

TEST(RunChunks, ExceptionReachesTheCallerAfterEveryChunkAndThreadFinished) {
  for (const int threads : {1, 2, 4, 8}) {
    const ThreadsScope scope(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> hits(16);
    EXPECT_THROW(run_chunks(hits.size(),
                            [&](std::size_t c) {
                              mark_if_spawned(caller);
                              hits[c].fetch_add(1);
                              if (c == 3) throw std::runtime_error("chunk 3");
                            }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
    EXPECT_EQ(g_live_spawned.load(), 0)
        << "a spawned thread outlived the call at threads " << threads;
  }
}

TEST(RunChunks, FirstOfSeveralExceptionsIsRethrownOnce) {
  const ThreadsScope scope(4);
  std::atomic<int> ran{0};
  try {
    run_chunks(8, [&](std::size_t) {
      ran.fetch_add(1);
      throw std::runtime_error("every chunk fails");
    });
    ADD_FAILURE() << "run_chunks swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "every chunk fails");
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(RunChunks, ThreadCountChangedDuringACallAffectsOnlyLaterCalls) {
  // Another thread flips the setting between 1 and 4 while calls start:
  // each call still runs every chunk once, on at most 4 threads.
  {
    std::atomic<bool> stop{false};
    std::jthread flipper([&] {
      for (int n = 0; !stop.load(); n = (n + 1) % 4) set_shared_threads(n + 1);
    });
    for (int call = 0; call < 50; ++call) {
      ThreadIds seen;
      std::vector<std::atomic<int>> hits(8);
      run_chunks(hits.size(), [&](std::size_t c) {
        seen.record();
        hits[c].fetch_add(1);
      });
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "call " << call;
      EXPECT_LE(seen.ids.size(), 4u) << "call " << call;
    }
    stop.store(true);
  }

  // A change made while a call runs leaves that call alone.
  set_shared_threads(4);
  std::atomic<bool> in_call{false};
  std::atomic<bool> changed{false};
  std::jthread setter([&] {
    while (!in_call.load()) std::this_thread::yield();
    set_shared_threads(2);
    changed.store(true);
  });
  ThreadIds during;
  run_chunks(8, [&](std::size_t c) {
    during.record();
    if (c == 0) {
      in_call.store(true);
      while (!changed.load()) std::this_thread::yield();
    }
  });
  setter.join();
  EXPECT_LE(during.ids.size(), 4u);
  EXPECT_EQ(shared_threads(), 2);

  ThreadIds after;
  run_chunks(8, [&](std::size_t) { after.record(); });
  EXPECT_LE(after.ids.size(), 2u);
  set_shared_threads(0);
}

TEST(RunChunks, NestedCallsRunInlineOnTheChunksThread) {
  const ThreadsScope scope(4);
  std::vector<std::atomic<int>> hits(8 * 16);
  std::atomic<int> foreign{0};
  run_chunks(8, [&](std::size_t outer) {
    const std::thread::id owner = std::this_thread::get_id();
    run_chunks(16, [&](std::size_t inner) {
      if (std::this_thread::get_id() != owner) foreign.fetch_add(1);
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  EXPECT_EQ(foreign.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SharedThreads, OverrideWinsAndZeroRestoresTheDefault) {
  set_shared_threads(3);
  EXPECT_EQ(shared_threads(), 3);
  set_shared_threads(1);
  EXPECT_EQ(shared_threads(), 1);
  set_shared_threads(0);  // back to environment default
  EXPECT_GE(shared_threads(), 1);
}

TEST(ParallelFor, CoversRangeWithDisjointChunks) {
  const ThreadsScope scope(8);
  for (const std::size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnRangeLength) {
  // The determinism contract: chunk boundaries are a pure function of n.
  for (const std::size_t n : {1u, 7u, 64u, 129u, 4096u}) {
    const std::size_t chunks = chunk_count_for(n);
    EXPECT_LE(chunks, kMaxChunks);
    std::size_t covered = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = chunk_bounds(n, chunks, c);
      EXPECT_EQ(b, covered);
      EXPECT_GT(e, b);
      covered = e;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  const ThreadsScope scope(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  parallel_for(64u, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      parallel_for(16u, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j)
          hits[i * 16 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace wsp::exec

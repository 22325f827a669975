// Tests for the wsp::exec parallel-execution substrate: chunk coverage,
// determinism of the static chunking, nesting, exception propagation, and
// shared-pool reconfiguration.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "wsp/exec/parallel_for.hpp"
#include "wsp/exec/thread_pool.hpp"

namespace wsp::exec {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), std::max(threads, 1));
    std::vector<std::atomic<int>> hits(97);
    pool.run_chunks(hits.size(),
                    [&](std::size_t c) { hits[c].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroChunksIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run_chunks(8, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 8);
  }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(16,
                               [](std::size_t c) {
                                 if (c == 7)
                                   throw std::runtime_error("chunk 7");
                               }),
               std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<int> count{0};
  pool.run_chunks(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ParallelFor, CoversRangeWithDisjointChunks) {
  ThreadPool pool(8);
  for (const std::size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&](std::size_t b, std::size_t e) {
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
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  parallel_for(pool, 64u, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      EXPECT_TRUE(ThreadPool::on_worker_thread());
      parallel_for(pool, 16u, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j)
          hits[i * 16 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SharedPool, ReconfiguresThreadCount) {
  set_shared_threads(3);
  EXPECT_EQ(shared_threads(), 3);
  EXPECT_EQ(shared_pool().thread_count(), 3);
  set_shared_threads(1);
  EXPECT_EQ(shared_pool().thread_count(), 1);
  set_shared_threads(0);  // back to environment default
  EXPECT_GE(shared_threads(), 1);
}

}  // namespace
}  // namespace wsp::exec

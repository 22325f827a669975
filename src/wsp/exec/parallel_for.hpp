// Deterministic data-parallel loops over index ranges.
//
// Chunk boundaries are a pure function of the range length (kMaxChunks
// contiguous chunks, or fewer for short ranges) — never of the thread
// count.  parallel_for therefore produces identical memory writes for any
// pool size as long as the body writes only to locations indexed by its own
// range.
#pragma once

#include <cstddef>
#include <utility>

#include "wsp/exec/thread_pool.hpp"

namespace wsp::exec {

/// Upper bound on chunks per loop: enough granularity that a claimed-chunk
/// imbalance cannot idle most of an 8–16 thread pool, small enough that the
/// per-chunk dispatch cost stays invisible.
inline constexpr std::size_t kMaxChunks = 64;

/// Chunk count for a range of `n` items — a pure function of n, never of
/// the thread count (the determinism contract).
inline std::size_t chunk_count_for(std::size_t n) {
  return n < kMaxChunks ? n : kMaxChunks;
}

/// Half-open sub-range [begin, end) of chunk `c` out of `chunks` over `n`.
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                        std::size_t chunks,
                                                        std::size_t c) {
  return {n * c / chunks, n * (c + 1) / chunks};
}

/// Runs body(begin, end) over [0, n) split into deterministic contiguous
/// chunks.  The body must only write state indexed by its own sub-range.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count_for(n);
  pool.run_chunks(chunks, [&](std::size_t c) {
    const auto [b, e] = chunk_bounds(n, chunks, c);
    body(b, e);
  });
}

/// Convenience: shared-pool parallel_for.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for(shared_pool(), n, std::forward<Body>(body));
}

}  // namespace wsp::exec

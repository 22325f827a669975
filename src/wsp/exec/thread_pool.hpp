// Parallel-execution substrate for Monte Carlo campaign trials.
//
// There is no pool: each run_chunks call starts its own threads and joins
// them before it returns.  Its one caller fans out whole campaign trials
// (~200 ms each), so a thread start per call is noise, and nothing sits
// parked between calls.  The header keeps its historical name because
// external drivers (perfbench) include it and call set_shared_threads.
//
// Design goals, in priority order:
//   1. Determinism: every construct here must produce bit-identical results
//      regardless of the number of threads.  Chunk *boundaries* are a pure
//      function of the iteration count (never of the thread count).  Which
//      thread executes which chunk is the only scheduling freedom, and the
//      callers guarantee chunks write disjoint state.
//   2. Simplicity: no work stealing, no task graph, no persistent state
//      beyond the thread-count override.  One blocking `run_chunks`
//      primitive; `parallel_for` is a thin wrapper.
//   3. Graceful degradation: one thread, one chunk, or a nested call from
//      inside a chunk executes inline on the calling thread, so nested
//      calls never multiply the thread count.
//
// Thread count resolution: `set_shared_threads(n)` wins, else the
// WSP_THREADS environment variable, else std::thread::hardware_concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

namespace wsp::exec {

/// Executes fn(0) ... fn(chunk_count-1), each exactly once, and blocks
/// until all complete.  Starts min(shared_threads(), chunk_count) - 1
/// threads for this call only; the caller claims chunks alongside them.
/// After every thread has joined, the first exception thrown by any chunk
/// is rethrown (remaining chunks still run).  A call from inside a chunk
/// runs inline on that thread.
void run_chunks(std::size_t chunk_count,
                const std::function<void(std::size_t)>& fn);

/// Strict parser for WSP_THREADS-style thread counts.  Accepts a single
/// base-10 positive integer with optional surrounding whitespace, in
/// [1, 65536]; returns nullopt for anything else — empty text, garbage,
/// trailing junk ("4x"), zero, negative, or out-of-range values.  The old
/// atoi semantics silently read "4x" as 4 and turned garbage into the
/// hardware default with no indication anything was wrong.
std::optional<int> parse_thread_count(const char* text);

/// Overrides the thread count of later run_chunks calls (<=0 restores the
/// environment default).  Safe from any thread at any time; a call already
/// in flight keeps the count it started with.
void set_shared_threads(int threads);

/// Threads the next run_chunks call may use: the override if set, else a
/// well-formed WSP_THREADS, else hardware_concurrency (min 1).  A
/// malformed WSP_THREADS is rejected with a one-time stderr warning naming
/// the fallback.
int shared_threads();

}  // namespace wsp::exec

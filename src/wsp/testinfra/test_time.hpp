// Analytic test / program-load time model (Sec. VII).
//
// Screening costs a closed form in each row's first faulty tile; the
// bit-level WaferTestChain::locate_first_faulty is its oracle.
//
// Loading every memory on the wafer through JTAG is the boot-time
// bottleneck.  The paper's numbers: a single 1024-tile daisy chain takes
// about 2.5 hours; splitting the array into 32 row chains with independent
// TMS/TCK (runnable at up to 10 MHz thanks to the reduced broadcast load)
// parallelises loading to "roughly under 5 minutes" (32x).  Within a tile,
// broadcast mode cuts the shifted bit count 14x when all cores run the
// same program — the paper observed that most cores of irregular
// workloads do.
#pragma once

#include <cstdint>
#include <optional>

#include "wsp/common/config.hpp"

namespace wsp::testinfra {

/// TCKs of the progressive-unrolling screen (Fig. 10) on a `chain_tiles`
/// chain with `daps_in_path` DAPs per tile in the scan path (1 in broadcast
/// mode).  Step k resets (5 TCKs), enters Shift-DR (4), shifts the k+1
/// active tiles' IDCODEs (32 per DAP) and updates to Idle (2).  It stops at
/// step K, the first faulty tile or the last tile: (K+1)(11 + 16d(K+2)).
std::uint64_t progressive_unroll_tcks(int chain_tiles, int daps_in_path,
                                      std::optional<int> first_faulty);

struct TestTimeParams {
  /// JTAG protocol overhead: TCKs spent per payload bit (state moves,
  /// addressing, update cycles of the DAP memory-access protocol).
  double protocol_overhead = 7.0;
  /// Max TCK as a function of chain fan-out: TMS/TCK are broadcast to all
  /// tiles of a chain, and the achievable frequency degrades with load.
  /// f = max_tck / (1 + load_derate * (tiles_in_chain - 1)); with the
  /// default 0 the frequency is load-independent (the paper's headline
  /// numbers assume 10 MHz either way; the derate lets users explore it).
  double tck_load_derate = 0.0;
};

struct LoadTimeReport {
  std::uint64_t total_payload_bits = 0;
  double tck_hz = 0.0;
  int chains = 1;
  bool broadcast = false;
  double seconds = 0.0;
  double hours() const { return seconds / 3600.0; }
  double minutes() const { return seconds / 60.0; }
};

/// Total bits to fill every memory on the wafer: per tile, 14 x 64 KB
/// private SRAM + 5 x 128 KB banks.
std::uint64_t total_memory_payload_bits(const SystemConfig& config);

/// Time to load all wafer memory with `chains` parallel JTAG chains.
/// `broadcast` assumes all cores of a tile receive the same program image
/// (private memories shift once per tile instead of 14 times).
LoadTimeReport memory_load_time(const SystemConfig& config, int chains,
                                bool broadcast,
                                const TestTimeParams& params = {});

/// Shift-latency reduction of intra-tile broadcast for a program of
/// `program_bits` (paper: 14x, one DAP visible instead of fourteen).
double broadcast_speedup(const SystemConfig& config);

}  // namespace wsp::testinfra

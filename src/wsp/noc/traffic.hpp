// Synthetic traffic patterns for NoC evaluation.
//
// The paper evaluates the network design qualitatively (resiliency) and at
// the system level (graph workloads on the FPGA emulation); these standard
// patterns drive the cycle-level simulator for the latency/throughput
// benches and for the 1-network-vs-2-network ablation.
#pragma once

#include <cstdint>

#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"

namespace wsp::obs {
class Histogram;
}  // namespace wsp::obs

namespace wsp::noc {

enum class TrafficPattern : std::uint8_t {
  UniformRandom,  ///< destination uniform over healthy tiles
  Transpose,      ///< (x, y) -> (y, x)
  BitComplement,  ///< (x, y) -> (W-1-x, H-1-y)
  Hotspot,        ///< a fraction of traffic targets one hot tile
  NearNeighbor,   ///< destination uniform over tiles within distance 2
};

const char* to_string(TrafficPattern p);

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::UniformRandom;
  /// Probability per healthy tile per cycle of issuing one transaction.
  double injection_rate = 0.02;
  double hotspot_fraction = 0.3;  ///< for Hotspot: share aimed at the spot
  TileCoord hotspot{0, 0};
};

auto fields(Of<TrafficConfig> auto& c) {
  return std::tie(c.pattern, c.injection_rate, c.hotspot_fraction, c.hotspot);
}

struct TrafficReport {
  std::uint64_t cycles = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t unreachable = 0;
  /// Round-trip latency samples measured (transactions issued inside the
  /// window); the latency fields below summarise exactly these.
  std::uint64_t latency_samples = 0;
  double mean_latency = 0.0;
  std::uint64_t p50_latency = 0;  ///< round-trip latency percentiles
  std::uint64_t p95_latency = 0;
  std::uint64_t p99_latency = 0;
  std::uint64_t max_latency = 0;
  double throughput = 0.0;  ///< completed transactions per cycle
  double offered_load = 0.0;  ///< issued transactions per cycle
};

/// Fills the latency fields of `report` from `latencies`: count, mean
/// over the samples (not over `completed`), nearest-rank p50/p95/p99
/// (exact while the histogram retains every sample) and max.  An empty
/// histogram zeroes them all.
void finalize_latencies(TrafficReport& report, const obs::Histogram& latencies);

/// Picks a destination for `src` under `config`.
TileCoord pick_destination(const FaultMap& faults, TileCoord src,
                           const TrafficConfig& config, Rng& rng);

}  // namespace wsp::noc

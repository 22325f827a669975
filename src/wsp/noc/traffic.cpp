#include "wsp/noc/traffic.hpp"

#include "wsp/obs/metrics.hpp"

namespace wsp::noc {

void finalize_latencies(TrafficReport& report,
                        const obs::Histogram& latencies) {
  report.latency_samples = latencies.count();
  report.mean_latency = latencies.mean();
  report.p50_latency = latencies.percentile(0.50);
  report.p95_latency = latencies.percentile(0.95);
  report.p99_latency = latencies.percentile(0.99);
  report.max_latency = latencies.max();
}

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::UniformRandom: return "uniform-random";
    case TrafficPattern::Transpose: return "transpose";
    case TrafficPattern::BitComplement: return "bit-complement";
    case TrafficPattern::Hotspot: return "hotspot";
    case TrafficPattern::NearNeighbor: return "near-neighbor";
  }
  return "?";
}

TileCoord pick_destination(const FaultMap& faults, TileCoord src,
                           const TrafficConfig& config, Rng& rng) {
  const TileGrid& grid = faults.grid();
  switch (config.pattern) {
    case TrafficPattern::UniformRandom: {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const TileCoord d = grid.coord_of(rng.below(grid.tile_count()));
        if (faults.is_healthy(d) && !(d == src)) return d;
      }
      return src;
    }
    case TrafficPattern::Transpose: {
      TileCoord d{src.y % grid.width(), src.x % grid.height()};
      return d;
    }
    case TrafficPattern::BitComplement:
      return {grid.width() - 1 - src.x, grid.height() - 1 - src.y};
    case TrafficPattern::Hotspot: {
      if (rng.uniform() < config.hotspot_fraction) return config.hotspot;
      TrafficConfig uniform = config;
      uniform.pattern = TrafficPattern::UniformRandom;
      return pick_destination(faults, src, uniform, rng);
    }
    case TrafficPattern::NearNeighbor: {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const int dx = static_cast<int>(rng.below(5)) - 2;
        const int dy = static_cast<int>(rng.below(5)) - 2;
        const TileCoord d{src.x + dx, src.y + dy};
        if (grid.contains(d) && faults.is_healthy(d) && !(d == src)) return d;
      }
      return src;
    }
  }
  return src;
}

}  // namespace wsp::noc

#include "wsp/noc/connectivity.hpp"

#include "wsp/common/error.hpp"

namespace wsp::noc {

ConnectivityAnalyzer::ConnectivityAnalyzer(const FaultMap& faults)
    : ConnectivityAnalyzer(faults, LinkFaultSet(faults.grid())) {}

ConnectivityAnalyzer::ConnectivityAnalyzer(const FaultMap& faults,
                                           const LinkFaultSet& links)
    : faults_(faults),
      width_(faults.grid().width()),
      height_(faults.grid().height()) {
  require(links.grid().width() == width_ && links.grid().height() == height_,
          "link fault set grid mismatch");
  const auto n = faults.grid().tile_count();
  row_run_.assign(n, -1);
  col_run_.assign(n, -1);

  // A run continues from `prev` into `c` only while the link between them
  // is alive both ways; `forward` is the direction prev -> c.
  const auto joined = [&](TileCoord prev, TileCoord c, Direction forward) {
    return !links.is_failed(prev, forward) &&
           !links.is_failed(c, opposite(forward));
  };
  int next_run = 0;
  for (int y = 0; y < height_; ++y) {
    bool in_run = false;
    for (int x = 0; x < width_; ++x) {
      if (faults_.is_healthy({x, y})) {
        if (!in_run || !joined({x - 1, y}, {x, y}, Direction::East)) {
          ++next_run;
          in_run = true;
        }
        row_run_[static_cast<std::size_t>(y) * width_ + x] = next_run;
      } else {
        in_run = false;
      }
    }
  }
  for (int x = 0; x < width_; ++x) {
    bool in_run = false;
    for (int y = 0; y < height_; ++y) {
      if (faults_.is_healthy({x, y})) {
        if (!in_run || !joined({x, y - 1}, {x, y}, Direction::North)) {
          ++next_run;
          in_run = true;
        }
        col_run_[static_cast<std::size_t>(x) * height_ + y] = next_run;
      } else {
        in_run = false;
      }
    }
  }
  run_count_ = next_run;
}

bool ConnectivityAnalyzer::xy_connected(TileCoord src, TileCoord dst) const {
  if (faults_.is_faulty(src) || faults_.is_faulty(dst)) return false;
  // Row segment in src's row from src.x to dst.x, then column segment in
  // dst's column from src.y to dst.y.  Each is healthy iff its endpoints
  // share a maximal healthy run.
  const TileCoord corner{dst.x, src.y};
  if (faults_.is_faulty(corner)) return false;
  return row_run(src) == row_run(corner) && col_run(corner) == col_run(dst);
}

bool ConnectivityAnalyzer::yx_connected(TileCoord src, TileCoord dst) const {
  if (faults_.is_faulty(src) || faults_.is_faulty(dst)) return false;
  const TileCoord corner{src.x, dst.y};
  if (faults_.is_faulty(corner)) return false;
  return col_run(src) == col_run(corner) && row_run(corner) == row_run(dst);
}

DisconnectionStats census_disconnection(const FaultMap& faults) {
  const ConnectivityAnalyzer an(faults);
  const std::vector<TileCoord> healthy = faults.healthy_tiles();

  DisconnectionStats stats;
  for (const TileCoord src : healthy) {
    for (const TileCoord dst : healthy) {
      if (src == dst) continue;
      ++stats.healthy_pairs;
      const bool xy = an.xy_connected(src, dst);
      const bool yx = an.yx_connected(src, dst);
      // Round trip on one network: the response comes back on the same
      // network via its own dimension-ordered path.
      if (!xy || !an.xy_connected(dst, src))
        ++stats.disconnected_single_roundtrip;
      if (!xy) ++stats.disconnected_single_xy;
      if (!xy && !yx) {
        ++stats.disconnected_dual;
        if (src.x == dst.x || src.y == dst.y)
          ++stats.disconnected_dual_same_row_col;
      }
    }
  }
  return stats;
}

std::vector<Fig6Point> fig6_sweep(const TileGrid& grid,
                                  const std::vector<std::size_t>& fault_counts,
                                  int trials, Rng& rng) {
  std::vector<Fig6Point> points;
  points.reserve(fault_counts.size());
  for (const std::size_t n : fault_counts) {
    Fig6Point p;
    p.fault_count = n;
    for (int t = 0; t < trials; ++t) {
      const FaultMap faults = FaultMap::random_with_count(grid, n, rng);
      const DisconnectionStats stats = census_disconnection(faults);
      p.mean_single_pct += stats.single_pct();
      p.mean_single_roundtrip_pct += stats.single_roundtrip_pct();
      p.mean_dual_pct += stats.dual_pct();
    }
    p.mean_single_pct /= trials;
    p.mean_single_roundtrip_pct /= trials;
    p.mean_dual_pct /= trials;
    points.push_back(p);
  }
  return points;
}

}  // namespace wsp::noc

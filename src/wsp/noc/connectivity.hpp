// Waferscale network connectivity under faults — the Fig. 6 analysis.
//
// Question (Sec. VI): if a handful of the 2048 chiplets fail, what fraction
// of source/destination tile pairs lose their route?  With a single DoR
// network every pair has exactly one path; the paper's Monte Carlo shows
// >12 % of pairs disconnected at just 5 faulty chiplets.  With two
// independent DoR networks (X-Y and Y-X) most pairs have two tile-disjoint
// paths and the number collapses to <2 %; the remaining casualties are
// mostly same-row/same-column pairs, whose two paths coincide.
//
// `ConnectivityAnalyzer` answers pair-connectivity queries in O(1) after an
// O(tiles) preprocessing pass: a DoR path is healthy iff its row segment
// and its column segment each lie inside a single maximal healthy run of
// that row/column, so two run-id lookups decide each path.  Given failed
// links, a run also ends at every link that has failed in either
// direction, so the same lookups decide link-aware paths.
#pragma once

#include <cstddef>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {

/// O(1) pair-connectivity queries over a fixed fault map.
class ConnectivityAnalyzer {
 public:
  explicit ConnectivityAnalyzer(const FaultMap& faults);
  /// Link-aware: a path is connected only if it also crosses no link that
  /// has failed in either travel direction.
  ConnectivityAnalyzer(const FaultMap& faults, const LinkFaultSet& links);

  bool xy_connected(TileCoord src, TileCoord dst) const;
  bool yx_connected(TileCoord src, TileCoord dst) const;
  bool dual_connected(TileCoord src, TileCoord dst) const {
    return xy_connected(src, dst) || yx_connected(src, dst);
  }

  const FaultMap& faults() const { return faults_; }

  /// Maximal healthy-run ids; -1 on faulty tiles.  Two tiles in the same
  /// row (column) are joined by a healthy straight segment iff their run
  /// ids match.  Runs break at faulty tiles and at failed links.  Row and
  /// column runs share one id space, 1 .. run_count().
  int row_run(TileCoord c) const { return row_run_[static_cast<std::size_t>(c.y) * width_ + c.x]; }
  int col_run(TileCoord c) const { return col_run_[static_cast<std::size_t>(c.x) * height_ + c.y]; }
  int run_count() const { return run_count_; }

 private:
  FaultMap faults_;
  int width_;
  int height_;
  int run_count_ = 0;
  std::vector<int> row_run_;  // indexed y*width+x
  std::vector<int> col_run_;  // indexed x*height+y
};

/// Disconnection census over all ordered pairs of distinct healthy tiles.
struct DisconnectionStats {
  std::size_t healthy_pairs = 0;
  std::size_t disconnected_single_xy = 0;  ///< pairs with no healthy XY path
  /// Pairs whose round trip fails on a single XY network: with one
  /// network the response B->A takes a *different* L-shaped path than the
  /// request A->B, so both must be healthy.  (With two networks the
  /// response rides the complement over the same tiles, so the dual
  /// figure needs no such correction — one reason the paper's two-network
  /// scheme wins by even more than one-way path counting suggests.)
  std::size_t disconnected_single_roundtrip = 0;
  std::size_t disconnected_dual = 0;       ///< pairs with neither path
  /// Disconnected pairs that are in the same row or column (the paper notes
  /// these dominate the dual-network residue).
  std::size_t disconnected_dual_same_row_col = 0;

  double single_pct() const {
    return healthy_pairs ? 100.0 * disconnected_single_xy / healthy_pairs : 0.0;
  }
  double single_roundtrip_pct() const {
    return healthy_pairs
               ? 100.0 * disconnected_single_roundtrip / healthy_pairs
               : 0.0;
  }
  double dual_pct() const {
    return healthy_pairs ? 100.0 * disconnected_dual / healthy_pairs : 0.0;
  }
};

/// Exhaustive census for one fault map.
DisconnectionStats census_disconnection(const FaultMap& faults);

/// One point of the Fig. 6 curve.
struct Fig6Point {
  std::size_t fault_count = 0;
  double mean_single_pct = 0.0;            ///< one DoR network, one-way
  double mean_single_roundtrip_pct = 0.0;  ///< one DoR network, round trip
  double mean_dual_pct = 0.0;              ///< two DoR networks
};

/// Monte Carlo sweep reproducing Fig. 6: for each entry of `fault_counts`,
/// averages the disconnection percentages over `trials` random fault maps.
std::vector<Fig6Point> fig6_sweep(const TileGrid& grid,
                                  const std::vector<std::size_t>& fault_counts,
                                  int trials, Rng& rng);

}  // namespace wsp::noc

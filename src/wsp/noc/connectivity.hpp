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
// `NetworkSelector` answers pair-connectivity queries in O(1) after an
// O(tiles) preprocessing pass: a DoR path is healthy iff its row segment
// and its column segment each lie inside a single maximal healthy run of
// that row/column, so two run-id lookups decide each path.  Given failed
// links, a run also ends at every link that has failed in either
// direction, so the same lookups decide link-aware paths.  The all-pairs
// counts (the Fig. 6 census and reachable_pairs) are popcounts over one
// reach set per run instead of lookups per pair (see DESIGN.md).
#pragma once

#include <cstddef>
#include <tuple>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {

/// The kernel's per-pair network choice.
struct RoutePlan {
  /// Tile sequence of transaction segments: {src, dst} for a direct route,
  /// {src, mid, dst} when relayed through an intermediate tile.
  std::vector<TileCoord> waypoints;
  /// Network of the *request* on each segment (responses use the
  /// complement).  networks[i] covers waypoints[i] -> waypoints[i+1].
  std::vector<NetworkKind> segment_networks;
  bool reachable = false;
  bool relayed = false;
};

auto fields(Of<RoutePlan> auto& p) {
  return std::tie(p.waypoints, p.segment_networks, p.reachable, p.relayed);
}

/// All-pairs census: ordered pairs of distinct healthy tiles, and how many
/// of them NetworkSelector::plan() finds reachable (directly or relayed).
struct PairReachability {
  std::size_t pairs = 0;
  std::size_t reachable = 0;
};

/// Kernel-software network selection from a fixed fault state (Sec. VI).
///
/// A plan is a pure function of the fault state and the pair: two O(1)
/// run-id lookups for a direct path, one scan of the wafer for a relay.
/// Runtime fault injection builds a new selector from the new fault state,
/// so the next packet of each pair replans with the usual fallback ladder
/// X-Y -> Y-X -> relayed.  With a LinkFaultSet, a path is only used if it
/// also avoids every failed directed link.  A const selector is safe to
/// share across threads.
class NetworkSelector {
 public:
  explicit NetworkSelector(const FaultMap& faults);
  /// Link-aware: a path is connected only if it also crosses no link that
  /// has failed in either travel direction.  The grids must match.
  NetworkSelector(const FaultMap& faults, const LinkFaultSet& links);

  /// True when the DoR path src -> dst is clear.  Runs end at failed links
  /// both ways, so the response's complementary path back is clear too.
  bool xy_connected(TileCoord src, TileCoord dst) const;
  bool yx_connected(TileCoord src, TileCoord dst) const;

  /// Route plan for src -> dst.  Balanced pairs alternate networks via a
  /// deterministic parity hash so both networks are equally utilised while
  /// any one pair always uses a single network (in-order delivery).
  RoutePlan plan(TileCoord src, TileCoord dst) const;

  /// Counts the pairs plan() would find reachable: the direct-path bit
  /// rows come from the run reach sets in O(tiles × tiles / 64) word
  /// operations, and each pair without a direct path costs O(tiles / 64)
  /// more (see DESIGN.md).
  PairReachability reachable_pairs() const;

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

/// Exhaustive census for one fault map, counted from the run reach sets.
DisconnectionStats census_disconnection(const FaultMap& faults);

/// One point of the Fig. 6 curve.
struct Fig6Point {
  std::size_t fault_count = 0;
  double mean_single_pct = 0.0;            ///< one DoR network, one-way
  double mean_single_roundtrip_pct = 0.0;  ///< one DoR network, round trip
  double mean_dual_pct = 0.0;              ///< two DoR networks
};

/// Monte Carlo sweep reproducing Fig. 6: for each entry of `fault_counts`,
/// averages the disconnection percentages over `trials` (≥ 1) random maps.
std::vector<Fig6Point> fig6_sweep(const TileGrid& grid,
                                  const std::vector<std::size_t>& fault_counts,
                                  int trials, Rng& rng);

}  // namespace wsp::noc

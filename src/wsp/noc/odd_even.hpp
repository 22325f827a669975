// Odd-even turn-model adaptive routing — the paper's stated future work
// ("In the future, we will incorporate sophisticated routing schemes
// [18, 19] for improved waferscale fault tolerance as well as
// performance", Sec. VI; [18] is Wu's odd-even-based fault-tolerant
// protocol).
//
// The odd-even turn model (Chiu) restricts where turns may happen instead
// of fixing the dimension order: EN/ES turns are only allowed in odd
// columns (or the source column), NW/SW turns only in even columns.  The
// restriction breaks all cyclic channel dependencies, so *minimal
// adaptive* routing is deadlock-free without virtual channels — and the
// adaptivity lets packets steer around faulty tiles that would kill a
// dimension-ordered path.
//
// This module provides the ROUTE function (the set of allowed minimal
// output directions at a tile), a fault-aware reachability analysis
// (can src reach dst by *some* allowed minimal path avoiding faults?),
// and a Fig. 6-style census so the scheme can be compared head-to-head
// with the prototype's single- and dual-DoR networks.
#pragma once

#include <array>
#include <cstdint>

#include "wsp/common/fault_map.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {

/// Allowed output directions for a packet at `cur`, in preference order.
struct RouteChoices {
  bool eject = false;
  int count = 0;
  std::array<Direction, 2> dirs{};  ///< minimal routing: at most 2 options

  void add(Direction d) { dirs[count++] = d; }
};

/// Chiu's odd-even ROUTE function: minimal allowed directions from `cur`
/// toward `dst` for a packet injected at `src` (the source column relaxes
/// the first-turn rule).  Preference order favours the dimension with the
/// larger remaining distance (a common adaptive selection heuristic).
RouteChoices odd_even_route(TileCoord src, TileCoord cur, TileCoord dst);

/// True when some minimal odd-even path from `src` to `dst` avoids every
/// faulty tile (endpoints must be healthy).  BFS over the allowed-turn
/// graph.
bool odd_even_connected(const FaultMap& faults, TileCoord src, TileCoord dst);

/// Fig. 6-style census for minimal-adaptive odd-even routing.
struct OddEvenStats {
  std::size_t healthy_pairs = 0;
  std::size_t disconnected = 0;
  double pct() const {
    return healthy_pairs ? 100.0 * disconnected / healthy_pairs : 0.0;
  }
};
OddEvenStats census_odd_even(const FaultMap& faults);

}  // namespace wsp::noc

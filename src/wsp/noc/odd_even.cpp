#include "wsp/noc/odd_even.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <vector>

namespace wsp::noc {

RouteChoices odd_even_route(TileCoord src, TileCoord cur, TileCoord dst) {
  RouteChoices out;
  const int ex = dst.x - cur.x;
  const int ey = dst.y - cur.y;
  if (ex == 0 && ey == 0) {
    out.eject = true;
    return out;
  }

  const bool odd_column = (cur.x & 1) != 0;
  const Direction vertical = ey > 0 ? Direction::North : Direction::South;

  if (ex == 0) {
    out.add(vertical);
  } else if (ex > 0) {  // eastbound
    if (ey == 0) {
      out.add(Direction::East);
    } else {
      // EN/ES turns only in odd columns (or the source column).
      if (odd_column || cur.x == src.x) out.add(vertical);
      // Keep going east unless the turn at the destination column would
      // land in an even column one hop away (Chiu's ex != 1 condition).
      if ((dst.x & 1) != 0 || ex != 1) out.add(Direction::East);
    }
  } else {  // westbound: NW/SW turns only in even columns
    out.add(Direction::West);
    if (ey != 0 && !odd_column) out.add(vertical);
  }

  // Adaptive selection heuristic: offer the dimension with the larger
  // remaining distance first.
  if (out.count == 2 && std::abs(ey) > std::abs(ex))
    std::swap(out.dirs[0], out.dirs[1]);
  return out;
}

bool odd_even_connected(const FaultMap& faults, TileCoord src,
                        TileCoord dst) {
  const TileGrid& grid = faults.grid();
  if (!grid.contains(src) || !grid.contains(dst)) return false;
  if (faults.is_faulty(src) || faults.is_faulty(dst)) return false;
  if (src == dst) return true;

  std::vector<char> visited(grid.tile_count(), 0);
  std::queue<TileCoord> frontier;
  visited[grid.index_of(src)] = 1;
  frontier.push(src);
  while (!frontier.empty()) {
    const TileCoord cur = frontier.front();
    frontier.pop();
    const RouteChoices choices = odd_even_route(src, cur, dst);
    if (choices.eject) return true;
    for (int i = 0; i < choices.count; ++i) {
      const TileCoord next = step(cur, choices.dirs[i]);
      if (next == dst) return true;
      if (!grid.contains(next) || faults.is_faulty(next)) continue;
      char& seen = visited[grid.index_of(next)];
      if (!seen) {
        seen = 1;
        frontier.push(next);
      }
    }
  }
  return false;
}

OddEvenStats census_odd_even(const FaultMap& faults) {
  OddEvenStats stats;
  const std::vector<TileCoord> healthy = faults.healthy_tiles();
  for (const TileCoord src : healthy) {
    for (const TileCoord dst : healthy) {
      if (src == dst) continue;
      ++stats.healthy_pairs;
      if (!odd_even_connected(faults, src, dst)) ++stats.disconnected;
    }
  }
  return stats;
}

}  // namespace wsp::noc

#include "clock_oracles.hpp"

#include <queue>

namespace wsp::clock {

bool reachability_matches_bfs(const FaultMap& faults,
                              const std::vector<TileCoord>& generators,
                              const ForwardingPlan& plan) {
  const TileGrid& grid = faults.grid();
  std::vector<char> reachable(grid.tile_count(), 0);
  std::queue<TileCoord> frontier;
  for (TileCoord g : generators) {
    if (faults.is_healthy(g)) {
      reachable[grid.index_of(g)] = 1;
      frontier.push(g);
    }
  }
  while (!frontier.empty()) {
    const TileCoord c = frontier.front();
    frontier.pop();
    for (TileCoord n : grid.neighbors(c)) {
      if (faults.is_faulty(n)) continue;
      char& seen = reachable[grid.index_of(n)];
      if (!seen) {
        seen = 1;
        frontier.push(n);
      }
    }
  }
  for (std::size_t i = 0; i < plan.tiles.size(); ++i)
    if (plan.tiles[i].reached != static_cast<bool>(reachable[i])) return false;
  return true;
}

}  // namespace wsp::clock

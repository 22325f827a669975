#include "noc_oracles.hpp"

#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <utility>

#include "wsp/noc/odd_even.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {

std::vector<TileCoord> dor_path(TileCoord src, TileCoord dst,
                                NetworkKind kind) {
  std::vector<TileCoord> path;
  path.reserve(static_cast<std::size_t>(hop_distance(src, dst)) + 1);
  TileCoord cur = src;
  path.push_back(cur);
  while (cur != dst) {
    const RouteDecision d = next_hop(cur, dst, kind);
    cur = step(cur, d.dir);
    path.push_back(cur);
  }
  return path;
}

bool path_is_healthy(const FaultMap& faults, TileCoord src, TileCoord dst,
                     NetworkKind kind) {
  TileCoord cur = src;
  if (faults.is_faulty(cur)) return false;
  while (cur != dst) {
    const RouteDecision d = next_hop(cur, dst, kind);
    cur = step(cur, d.dir);
    if (!faults.grid().contains(cur) || faults.is_faulty(cur)) return false;
  }
  return true;
}

PairConnectivity pair_connectivity(const FaultMap& faults, TileCoord src,
                                   TileCoord dst) {
  return {
      .xy_ok = path_is_healthy(faults, src, dst, NetworkKind::XY),
      .yx_ok = path_is_healthy(faults, src, dst, NetworkKind::YX),
  };
}

std::optional<TileCoord> find_intermediate(const FaultMap& faults,
                                           TileCoord src, TileCoord dst) {
  const TileGrid& grid = faults.grid();
  std::optional<TileCoord> best;
  int best_extra = std::numeric_limits<int>::max();
  const int direct = hop_distance(src, dst);

  grid.for_each([&](TileCoord mid) {
    if (faults.is_faulty(mid) || mid == src || mid == dst) return;
    const int extra = hop_distance(src, mid) + hop_distance(mid, dst) - direct;
    if (extra >= best_extra) return;
    if (pair_connectivity(faults, src, mid).connected() &&
        pair_connectivity(faults, mid, dst).connected()) {
      best = mid;
      best_extra = extra;
    }
  });
  return best;
}

bool channel_dependency_graph_is_acyclic(int width, int height) {
  const TileGrid grid(width, height);
  // Channel id: tile index * 4 + direction of travel.
  const auto channel = [&](TileCoord from, Direction d) {
    return grid.index_of(from) * 4 + static_cast<std::size_t>(d);
  };
  const std::size_t channels = grid.tile_count() * 4;
  std::vector<std::set<std::size_t>> deps(channels);

  // A dependency c1 -> c2 exists when some (src, dst) routing can use
  // channel c1 into a tile and continue on channel c2 out of it.
  grid.for_each([&](TileCoord src) {
    grid.for_each([&](TileCoord dst) {
      if (src == dst) return;
      // Walk all allowed minimal paths with BFS over (tile, in-channel).
      std::set<std::pair<std::size_t, int>> seen;  // (tile, in-channel id)
      std::queue<std::pair<TileCoord, int>> frontier;
      frontier.push({src, -1});
      while (!frontier.empty()) {
        const auto [cur, in_ch] = frontier.front();
        frontier.pop();
        const RouteChoices choices = odd_even_route(src, cur, dst);
        if (choices.eject) continue;
        for (int i = 0; i < choices.count; ++i) {
          const Direction d = choices.dirs[i];
          const TileCoord next = step(cur, d);
          if (!grid.contains(next)) continue;
          const auto out_ch = static_cast<int>(channel(cur, d));
          if (in_ch >= 0)
            deps[static_cast<std::size_t>(in_ch)].insert(
                static_cast<std::size_t>(out_ch));
          const auto key = std::make_pair(grid.index_of(next), out_ch);
          if (seen.insert(key).second) frontier.push({next, out_ch});
        }
      }
    });
  });

  // Cycle detection by iterative DFS colouring.
  std::vector<char> color(channels, 0);  // 0 white, 1 grey, 2 black
  std::vector<std::size_t> stack;
  for (std::size_t start = 0; start < channels; ++start) {
    if (color[start] != 0) continue;
    stack.push_back(start);
    while (!stack.empty()) {
      const std::size_t c = stack.back();
      if (color[c] == 0) {
        color[c] = 1;
        for (const std::size_t next : deps[c]) {
          if (color[next] == 1) return false;  // back edge: cycle
          if (color[next] == 0) stack.push_back(next);
        }
      } else {
        color[c] = 2;
        stack.pop_back();
      }
    }
  }
  return true;
}

PairReachability pairwise_reachable_pairs(const NetworkSelector& an) {
  const std::vector<TileCoord> healthy = an.faults().healthy_tiles();
  const std::size_t n = healthy.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> direct(n * words, 0);
  const auto row = [&](std::size_t i) { return direct.data() + i * words; };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (an.xy_connected(healthy[i], healthy[j]) ||
          an.yx_connected(healthy[i], healthy[j])) {
        row(i)[j / 64] |= std::uint64_t{1} << (j % 64);
        row(j)[i / 64] |= std::uint64_t{1} << (i % 64);
      }

  PairReachability r;
  r.pairs = n > 1 ? n * (n - 1) : 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      bool ok = (row(i)[j / 64] >> (j % 64)) & 1u;
      for (std::size_t w = 0; !ok && w < words; ++w)
        ok = (row(i)[w] & row(j)[w]) != 0;
      if (ok) r.reachable += 2;
    }
  return r;
}

DisconnectionStats pairwise_census_disconnection(const FaultMap& faults) {
  const NetworkSelector an(faults);
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

}  // namespace wsp::noc

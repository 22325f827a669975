#include "wsp/clock/forwarding.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "wsp/common/error.hpp"

namespace wsp::clock {

namespace {

/// Entry in the setup-phase race queue: (lock time, arbiter priority of the
/// winning input, linear tile index).  Priority makes pops deterministic.
struct RaceEntry {
  double lock_time;
  int tie_break;
  std::size_t tile;
  friend bool operator>(const RaceEntry& a, const RaceEntry& b) {
    return std::tie(a.lock_time, a.tie_break, a.tile) >
           std::tie(b.lock_time, b.tie_break, b.tile);
  }
};

}  // namespace

ForwardingPlan simulate_forwarding(const FaultMap& faults,
                                   const std::vector<TileCoord>& generators,
                                   const ForwardingOptions& options) {
  const TileGrid& grid = faults.grid();
  require(!generators.empty(), "at least one clock generator is required");
  require(options.toggle_threshold > 0, "toggle threshold must be positive");
  require(options.hop_latency_periods >= 0.0,
          "hop latency cannot be negative");

  ForwardingPlan plan;
  plan.tiles.assign(grid.tile_count(), {});

  std::priority_queue<RaceEntry, std::vector<RaceEntry>, std::greater<>> queue;

  for (TileCoord g : generators) {
    require(grid.contains(g), "generator tile out of bounds");
    require(grid.is_edge(g),
            "clock generators must be edge tiles (PLL needs the stable edge "
            "supply)");
    require(faults.is_healthy(g), "a faulty tile cannot generate the clock");
    const auto i = grid.index_of(g);
    TileClockState& st = plan.tiles[i];
    st.is_generator = true;
    st.reached = true;
    st.lock_time = 0.0;
    st.hops_from_generator = 0;
    st.inverted = false;
    queue.push({0.0, -1, i});
  }

  // Dijkstra over lock times.  A tile locks `toggle_threshold` periods
  // after its earliest toggling input appears, which is the upstream
  // tile's lock time plus one hop latency.
  while (!queue.empty()) {
    const RaceEntry e = queue.top();
    queue.pop();
    const TileClockState& src = plan.tiles[e.tile];
    if (e.lock_time > src.lock_time) continue;  // stale entry
    const TileCoord c = grid.coord_of(e.tile);

    for (Direction d : kAllDirections) {
      const auto n = grid.neighbor(c, d);
      if (!n || faults.is_faulty(*n)) continue;
      const auto ni = grid.index_of(*n);
      TileClockState& dst = plan.tiles[ni];
      if (dst.is_generator) continue;

      const double arrival = src.lock_time + options.hop_latency_periods;
      const double lock = arrival + options.toggle_threshold;
      // The new input wins if strictly earlier, or ties with a
      // higher-priority arbiter port (the input direction *at the
      // destination* is the opposite of d).
      const int tie = static_cast<int>(opposite(d));
      const bool better =
          !dst.reached || lock < dst.lock_time ||
          (lock == dst.lock_time && dst.selected_input &&
           tie < static_cast<int>(*dst.selected_input));
      if (!better) continue;

      dst.reached = true;
      dst.lock_time = lock;
      dst.selected_input = opposite(d);
      dst.hops_from_generator = src.hops_from_generator + 1;
      dst.inverted = (dst.hops_from_generator % 2) != 0;
      queue.push({lock, tie, ni});
    }
  }

  for (std::size_t i = 0; i < plan.tiles.size(); ++i) {
    const TileCoord c = grid.coord_of(i);
    const TileClockState& st = plan.tiles[i];
    if (st.reached) {
      ++plan.reached_count;
      plan.max_hops = std::max(plan.max_hops, st.hops_from_generator);
    } else if (faults.is_healthy(c)) {
      ++plan.unreached_healthy_count;
      plan.unreached_healthy.push_back(c);
    }
  }
  return plan;
}

Fig4Scenario make_fig4_scenario() {
  TileGrid grid(8, 8);
  FaultMap faults(grid);
  const TileCoord isolated{4, 4};
  // Four faults box in the isolated tile; two more faults elsewhere bring
  // the total to the paper's six while leaving the rest of the healthy
  // region connected (one tile keeps three faulty neighbours but still
  // receives the clock through its single healthy neighbour, like the
  // paper's tile 3).
  for (TileCoord f : {TileCoord{4, 5}, TileCoord{5, 4}, TileCoord{4, 3},
                      TileCoord{3, 4}, TileCoord{5, 6}, TileCoord{2, 2}})
    faults.set_faulty(f, true);
  return Fig4Scenario{std::move(faults), TileCoord{0, 3}, isolated};
}

}  // namespace wsp::clock

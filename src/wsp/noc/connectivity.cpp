#include "wsp/noc/connectivity.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>

#include "wsp/common/error.hpp"

namespace wsp::noc {

NetworkSelector::NetworkSelector(const FaultMap& faults)
    : NetworkSelector(faults, LinkFaultSet(faults.grid())) {}

NetworkSelector::NetworkSelector(const FaultMap& faults,
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

bool NetworkSelector::xy_connected(TileCoord src, TileCoord dst) const {
  if (faults_.is_faulty(src) || faults_.is_faulty(dst)) return false;
  // Row segment in src's row from src.x to dst.x, then column segment in
  // dst's column from src.y to dst.y.  Each is healthy iff its endpoints
  // share a maximal healthy run.
  const TileCoord corner{dst.x, src.y};
  if (faults_.is_faulty(corner)) return false;
  return row_run(src) == row_run(corner) && col_run(corner) == col_run(dst);
}

bool NetworkSelector::yx_connected(TileCoord src, TileCoord dst) const {
  if (faults_.is_faulty(src) || faults_.is_faulty(dst)) return false;
  const TileCoord corner{src.x, dst.y};
  if (faults_.is_faulty(corner)) return false;
  return col_run(src) == col_run(corner) && row_run(corner) == row_run(dst);
}

RoutePlan NetworkSelector::plan(TileCoord src, TileCoord dst) const {
  RoutePlan plan;
  if (!faults_.grid().contains(src) || !faults_.grid().contains(dst) ||
      faults_.is_faulty(src) || faults_.is_faulty(dst))
    return plan;

  auto choose = [&](TileCoord a, TileCoord b) -> std::optional<NetworkKind> {
    const bool xy = xy_connected(a, b);
    const bool yx = yx_connected(a, b);
    if (xy && yx) {
      // Both paths healthy: balance pairs across the networks with a
      // deterministic parity hash; one pair always maps to one network so
      // its packets stay in order.
      const unsigned h = static_cast<unsigned>(a.x + 3 * a.y + 5 * b.x +
                                               7 * b.y);
      return (h & 1u) ? NetworkKind::YX : NetworkKind::XY;
    }
    if (xy) return NetworkKind::XY;
    if (yx) return NetworkKind::YX;
    return std::nullopt;
  };

  if (const auto direct = choose(src, dst)) {
    plan.waypoints = {src, dst};
    plan.segment_networks = {*direct};
    plan.reachable = true;
    return plan;
  }

  // No direct path on either network: relay through the healthy
  // intermediate with the fewest added hops (lowest index on ties) whose
  // two segments are both clear.
  const TileGrid& grid = faults_.grid();
  const int direct = hop_distance(src, dst);
  int best_added = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    const TileCoord mid = grid.coord_of(i);
    if (faults_.is_faulty(mid) || mid == src || mid == dst) continue;
    const int added = hop_distance(src, mid) + hop_distance(mid, dst) - direct;
    if (added >= best_added) continue;
    const auto first = choose(src, mid);
    const auto second = first ? choose(mid, dst) : std::nullopt;
    if (!second) continue;
    plan.waypoints = {src, mid, dst};
    plan.segment_networks = {*first, *second};
    plan.reachable = true;
    plan.relayed = true;
    best_added = added;
  }
  return plan;
}

namespace {

/// Reach sets over the healthy tiles (bit i is healthy_tiles()[i]), one
/// row of `words` words per run id.  XY a -> b is clear iff the corner
/// (b.x, a.y) shares a's row run and b's column run, so every tile of a
/// row run XY-reaches the same set: the union of the column runs through
/// it.  Likewise every tile of a column run YX-reaches the union of the
/// row runs through it.  So of(row_run(a)) is a's XY set and
/// of(col_run(a)) its YX set; a lies in both.
struct RunSets {
  std::vector<TileCoord> healthy;
  std::size_t words = 0;
  std::vector<std::uint64_t> reach;
  const std::uint64_t* of(int run) const {
    return reach.data() + static_cast<std::size_t>(run) * words;
  }
};

RunSets run_sets(const NetworkSelector& sel) {
  RunSets s;
  s.healthy = sel.faults().healthy_tiles();
  const std::size_t n = s.healthy.size();
  s.words = (n + 63) / 64;
  const auto runs = static_cast<std::size_t>(sel.run_count()) + 1;
  std::vector<std::uint64_t> members(runs * s.words, 0);
  s.reach.assign(runs * s.words, 0);
  const auto row_of = [&](std::vector<std::uint64_t>& v, int id) {
    return v.data() + static_cast<std::size_t>(id) * s.words;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    row_of(members, sel.row_run(s.healthy[i]))[i / 64] |= bit;
    row_of(members, sel.col_run(s.healthy[i]))[i / 64] |= bit;
  }
  for (const TileCoord c : s.healthy) {
    const int row = sel.row_run(c), col = sel.col_run(c);
    for (std::size_t w = 0; w < s.words; ++w) {
      row_of(s.reach, row)[w] |= row_of(members, col)[w];
      row_of(s.reach, col)[w] |= row_of(members, row)[w];
    }
  }
  return s;
}

}  // namespace

PairReachability NetworkSelector::reachable_pairs() const {
  const RunSets s = run_sets(*this);
  const std::size_t n = s.healthy.size(), words = s.words;
  // direct[i] is the bit row of tile i: bit j set when i and j share a
  // clear DoR path, its XY set or its YX set (the relation is symmetric:
  // XY a -> b and YX b -> a cover the same tiles).
  std::vector<std::uint64_t> direct(n * words, 0);
  const auto row = [&](std::size_t i) { return direct.data() + i * words; };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* xy = s.of(row_run(s.healthy[i]));
    const std::uint64_t* yx = s.of(col_run(s.healthy[i]));
    for (std::size_t w = 0; w < words; ++w) row(i)[w] = xy[w] | yx[w];
    row(i)[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  // A pair without a direct path is relayable iff some third tile is
  // directly connected to both: the two bit rows intersect (the diagonal
  // is clear, so neither endpoint can be its own relay).
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

DisconnectionStats census_disconnection(const FaultMap& faults) {
  const NetworkSelector sel(faults);
  const RunSets s = run_sets(sel);
  const std::size_t n = s.healthy.size();

  // Pairs connected from each tile are popcounts of its sets, less the
  // tile itself, which lies once in both its XY and its YX set; summed
  // over the n tiles, n² minus the popcounts is the disconnected count.
  // The single-network round trip needs xy(src, dst) and xy(dst, src), and
  // xy(dst, src) checks the same corner and runs as yx(src, dst): XY ∧ YX.
  std::size_t one_way = 0, both = 0, either = 0;
  for (const TileCoord c : s.healthy) {
    const std::uint64_t* xy = s.of(sel.row_run(c));
    const std::uint64_t* yx = s.of(sel.col_run(c));
    for (std::size_t w = 0; w < s.words; ++w) {
      one_way += static_cast<std::size_t>(std::popcount(xy[w]));
      both += static_cast<std::size_t>(std::popcount(xy[w] & yx[w]));
      either += static_cast<std::size_t>(std::popcount(xy[w] | yx[w]));
    }
  }
  DisconnectionStats stats;
  stats.healthy_pairs = n * n - n;
  stats.disconnected_single_xy = n * n - one_way;
  stats.disconnected_single_roundtrip = n * n - both;
  stats.disconnected_dual = n * n - either;

  // A same-row (column) pair is connected iff both tiles share that
  // line's run, so of the h·(h - 1) ordered pairs of a line holding h
  // healthy tiles, Σ L·(L - 1) over its runs are connected.  Summed over
  // all lines (Σ h = Σ L = n twice over): Σ h² − Σ L², with `lines`
  // holding the rows, then the columns.
  const int height = faults.grid().height();
  std::vector<std::size_t> lines(
      static_cast<std::size_t>(height + faults.grid().width()));
  std::vector<std::size_t> runs(static_cast<std::size_t>(sel.run_count()) + 1);
  for (const TileCoord c : s.healthy) {
    ++lines[static_cast<std::size_t>(c.y)];
    ++lines[static_cast<std::size_t>(height + c.x)];
    ++runs[static_cast<std::size_t>(sel.row_run(c))];
    ++runs[static_cast<std::size_t>(sel.col_run(c))];
  }
  std::size_t& same = stats.disconnected_dual_same_row_col;
  for (const std::size_t h : lines) same += h * h;
  for (const std::size_t l : runs) same -= l * l;
  return stats;
}

std::vector<Fig6Point> fig6_sweep(const TileGrid& grid,
                                  const std::vector<std::size_t>& fault_counts,
                                  int trials, Rng& rng) {
  require(trials >= 1, "fig6_sweep: trials must be at least 1");
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

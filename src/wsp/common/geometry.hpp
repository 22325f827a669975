// Tile-grid geometry: coordinates, directions, and physical placement of
// tiles on the waferscale substrate.
//
// The waferscale system is a WxH array of tiles (32x32 in the full
// prototype).  Each tile holds one compute chiplet and one memory chiplet;
// the tile is the unit of clock forwarding, NoC routing, fault mapping and
// power analysis, so this header is the vocabulary shared by every module.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "wsp/common/fields.hpp"

namespace wsp {

/// The four mesh directions.  Order matters: it is the priority order used
/// by the clock-forwarding selector and the index into per-port arrays.
enum class Direction : std::uint8_t { North = 0, East = 1, South = 2, West = 3 };
/// Largest Direction: the bound ckpt::load_fields range-checks against.
constexpr Direction enum_max(Direction) { return Direction::West; }

inline constexpr std::array<Direction, 4> kAllDirections = {
    Direction::North, Direction::East, Direction::South, Direction::West};

/// Direction pointing the opposite way (North<->South, East<->West).
constexpr Direction opposite(Direction d) {
  switch (d) {
    case Direction::North: return Direction::South;
    case Direction::East:  return Direction::West;
    case Direction::South: return Direction::North;
    case Direction::West:  return Direction::East;
  }
  return Direction::North;  // unreachable
}

const char* to_string(Direction d);

/// Coordinate of a tile in the array.  `x` grows eastward (column index),
/// `y` grows northward (row index).  (0,0) is the south-west corner.
struct TileCoord {
  int x = 0;
  int y = 0;

  friend constexpr bool operator==(const TileCoord&, const TileCoord&) = default;
  friend constexpr auto operator<=>(const TileCoord&, const TileCoord&) = default;
};

auto fields(Of<TileCoord> auto& c) { return std::tie(c.x, c.y); }

/// Coordinate displaced one step in direction `d`.
constexpr TileCoord step(TileCoord c, Direction d) {
  switch (d) {
    case Direction::North: return {c.x, c.y + 1};
    case Direction::East:  return {c.x + 1, c.y};
    case Direction::South: return {c.x, c.y - 1};
    case Direction::West:  return {c.x - 1, c.y};
  }
  return c;  // unreachable
}

std::string to_string(const TileCoord& c);

/// Rectangular tile array.  Provides bounds checking, linearisation and
/// neighbour enumeration; every module that iterates over tiles does it
/// through this class.
class TileGrid {
 public:
  TileGrid(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t tile_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  bool contains(TileCoord c) const {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

  /// Linear index for vector-of-tiles storage (row-major, y outer).
  std::size_t index_of(TileCoord c) const {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(c.x);
  }

  TileCoord coord_of(std::size_t index) const {
    return {static_cast<int>(index % static_cast<std::size_t>(width_)),
            static_cast<int>(index / static_cast<std::size_t>(width_))};
  }

  /// Neighbour of `c` in direction `d`, or nullopt at the array boundary.
  std::optional<TileCoord> neighbor(TileCoord c, Direction d) const {
    const TileCoord n = step(c, d);
    if (!contains(n)) return std::nullopt;
    return n;
  }

  /// All in-bounds neighbours of `c`, in kAllDirections order.
  std::vector<TileCoord> neighbors(TileCoord c) const;

  /// True if the tile sits on the array boundary.  Edge tiles are special:
  /// they receive the external power at full voltage, may host the clock
  /// generator, and are where JTAG chains enter the wafer.
  bool is_edge(TileCoord c) const {
    return c.x == 0 || c.y == 0 || c.x == width_ - 1 || c.y == height_ - 1;
  }

  /// Manhattan distance in tiles from `c` to the nearest array edge
  /// (0 for edge tiles).  Used by the PDN droop model.
  int distance_to_edge(TileCoord c) const;

  /// Invokes `fn` on every tile coordinate in linear-index order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (int y = 0; y < height_; ++y)
      for (int x = 0; x < width_; ++x) fn(TileCoord{x, y});
  }

 private:
  int width_;
  int height_;
};

/// Physical dimensions of the chiplets and the assembled wafer, straight
/// from the paper (Table I and Section II).
struct PhysicalGeometry {
  double compute_chiplet_width_m;   ///< 3.15 mm
  double compute_chiplet_height_m;  ///< 2.4 mm
  double memory_chiplet_width_m;    ///< 3.15 mm
  double memory_chiplet_height_m;   ///< 1.1 mm
  double inter_chiplet_gap_m;       ///< ~100 um chiplet spacing on the Si-IF

  /// Footprint (width) of one tile including spacing.
  double tile_pitch_x_m() const {
    return compute_chiplet_width_m + inter_chiplet_gap_m;
  }
  /// Footprint (height) of one tile: compute + memory chiplet stacked
  /// vertically plus two inter-chiplet gaps.
  double tile_pitch_y_m() const {
    return compute_chiplet_height_m + memory_chiplet_height_m +
           2.0 * inter_chiplet_gap_m;
  }
  /// Active silicon area of one tile (both chiplets).
  double tile_active_area_m2() const {
    return compute_chiplet_width_m * compute_chiplet_height_m +
           memory_chiplet_width_m * memory_chiplet_height_m;
  }
};

auto fields(Of<PhysicalGeometry> auto& g) {
  return std::tie(g.compute_chiplet_width_m, g.compute_chiplet_height_m,
                  g.memory_chiplet_width_m, g.memory_chiplet_height_m,
                  g.inter_chiplet_gap_m);
}

}  // namespace wsp

// Hash support so TileCoord can key unordered containers.
template <>
struct std::hash<wsp::TileCoord> {
  std::size_t operator()(const wsp::TileCoord& c) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
        static_cast<std::uint32_t>(c.y));
  }
};

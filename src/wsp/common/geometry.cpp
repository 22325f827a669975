#include "wsp/common/geometry.hpp"

#include <algorithm>

#include "wsp/common/error.hpp"

namespace wsp {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::North: return "N";
    case Direction::East:  return "E";
    case Direction::South: return "S";
    case Direction::West:  return "W";
  }
  return "?";
}

std::string to_string(const TileCoord& c) {
  return "(" + std::to_string(c.x) + "," + std::to_string(c.y) + ")";
}

TileGrid::TileGrid(int width, int height) : width_(width), height_(height) {
  require(width > 0 && height > 0, "TileGrid dimensions must be positive");
}

std::vector<TileCoord> TileGrid::neighbors(TileCoord c) const {
  std::vector<TileCoord> out;
  out.reserve(4);
  for (Direction d : kAllDirections) {
    if (auto n = neighbor(c, d)) out.push_back(*n);
  }
  return out;
}

int TileGrid::distance_to_edge(TileCoord c) const {
  require(contains(c), "distance_to_edge: coordinate out of bounds");
  return std::min(std::min(c.x, width_ - 1 - c.x),
                  std::min(c.y, height_ - 1 - c.y));
}

}  // namespace wsp

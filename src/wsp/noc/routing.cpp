#include "wsp/noc/routing.hpp"

namespace wsp::noc {

const char* to_string(NetworkKind k) {
  return k == NetworkKind::XY ? "XY" : "YX";
}

RouteDecision next_hop(TileCoord current, TileCoord dst, NetworkKind kind) {
  if (current == dst) return {.eject = true};
  const bool x_done = current.x == dst.x;
  const bool y_done = current.y == dst.y;

  // First dimension of the network's order that still differs.
  bool move_x;
  if (kind == NetworkKind::XY)
    move_x = !x_done;
  else
    move_x = y_done;  // YX: only move in X once Y is resolved

  RouteDecision d;
  if (move_x)
    d.dir = dst.x > current.x ? Direction::East : Direction::West;
  else
    d.dir = dst.y > current.y ? Direction::North : Direction::South;
  return d;
}

}  // namespace wsp::noc

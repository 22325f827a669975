// Dimension-ordered routing on the waferscale mesh (Sec. VI).
//
// Deadlock freedom comes from dimension order: the X-Y network always
// exhausts horizontal hops before turning, the Y-X network the opposite.
// With both networks, every source/destination pair that is not in the
// same row or column has two tile-disjoint paths (apart from endpoints),
// which is the basis of the fault-tolerance result in Fig. 6.
#pragma once

#include <cstdlib>

#include "wsp/common/fault_map.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/noc/packet.hpp"

namespace wsp::noc {

/// Output chosen by a router for a packet: a mesh direction, or local
/// ejection when the packet has arrived.
struct RouteDecision {
  bool eject = false;
  Direction dir = Direction::North;
};

/// The DoR next-hop function evaluated at `current` for a packet headed to
/// `dst` on network `kind`.
RouteDecision next_hop(TileCoord current, TileCoord dst, NetworkKind kind);

/// Manhattan hop count between two tiles.
inline int hop_distance(TileCoord a, TileCoord b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

}  // namespace wsp::noc

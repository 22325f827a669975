// Direct-definition NoC oracles for tests.  The simulator never calls these:
// each is the slow, obvious computation a fast path in wsp/noc replaced
// (a hop-by-hop DoR walk, a wafer scan for a relay, an all-pairs census, a
// channel-dependency graph), so a test comparing the two checks the fast
// path against its definition rather than against shared code.
#pragma once

#include <optional>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/packet.hpp"

namespace wsp::noc {

/// Complete tile sequence of the DoR path from `src` to `dst` (inclusive
/// of both endpoints).
std::vector<TileCoord> dor_path(TileCoord src, TileCoord dst,
                                NetworkKind kind);

/// True when every tile of the DoR path (endpoints included) is healthy.
bool path_is_healthy(const FaultMap& faults, TileCoord src, TileCoord dst,
                     NetworkKind kind);

/// Healthy-path availability between a pair under the dual-network scheme.
struct PairConnectivity {
  bool xy_ok = false;
  bool yx_ok = false;
  bool connected() const { return xy_ok || yx_ok; }
};
PairConnectivity pair_connectivity(const FaultMap& faults, TileCoord src,
                                   TileCoord dst);

/// Searches for an intermediate tile I such that src->I and I->dst are both
/// connected (on any network): the kernel-software escape hatch of Sec. VI
/// for pairs whose direct paths are all faulty.  Returns the intermediate
/// with the smallest added hop count, or nullopt when none exists.
std::optional<TileCoord> find_intermediate(const FaultMap& faults,
                                           TileCoord src, TileCoord dst);

/// Verifies the turn model's deadlock-freedom structurally: builds the
/// channel-dependency graph induced by odd_even_route over a WxH mesh and
/// reports whether it is acyclic (DoR passes too, a fully adaptive router
/// would not).
bool channel_dependency_graph_is_acyclic(int width, int height);

/// NetworkSelector::reachable_pairs() by its definition: two run-id
/// lookups per unordered pair of healthy tiles fill the direct-path bit
/// rows, then the same relay closure.
PairReachability pairwise_reachable_pairs(const NetworkSelector& an);

/// census_disconnection() by its definition: three path checks per
/// ordered pair of distinct healthy tiles.
DisconnectionStats pairwise_census_disconnection(const FaultMap& faults);

}  // namespace wsp::noc

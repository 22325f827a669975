// Direct-definition clock oracle for tests (see noc_oracles.hpp for the
// NoC ones): plain BFS reachability over healthy tiles, the property the
// forwarded clock's setup race must reproduce.
#pragma once

#include <vector>

#include "wsp/clock/forwarding.hpp"
#include "wsp/common/fault_map.hpp"

namespace wsp::clock {

/// The paper's resiliency invariant: a healthy tile is unreached by the
/// forwarded clock if and only if no path of healthy tiles connects it to
/// any generator.  Returns true when `plan` satisfies the invariant.
bool reachability_matches_bfs(const FaultMap& faults,
                              const std::vector<TileCoord>& generators,
                              const ForwardingPlan& plan);

}  // namespace wsp::clock

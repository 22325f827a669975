// Applies a FaultSchedule to a live simulation.
//
// The injector owns the authoritative runtime fault state — the mutable
// FaultMap and LinkFaultSet.  advance_to(cycle) applies every event that
// has come due, mutates the state, and returns a FaultNotice per event;
// the caller (DegradationCampaign) reacts to those notices directly with
// the NoC replan, the clock re-latch and the PDN re-solve.  Transient
// events (packet corruption) and policy-level events (brownouts, generator
// losses) do not mutate the fault map directly: the injector records them
// and the degradation layer decides which tiles become unusable.
#pragma once

#include <cstdint>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/resilience/fault_schedule.hpp"

namespace wsp::resilience {

class FaultInjector {
 public:
  FaultInjector(const FaultMap& initial, FaultSchedule schedule);

  /// Applies every event with event.cycle <= cycle, in schedule order.
  /// Returns the notices applied by this call (empty when nothing came
  /// due); faults() and link_faults() already hold the post-event state.
  std::vector<FaultNotice> advance_to(std::uint64_t cycle);

  bool exhausted() const { return next_ >= schedule_.size(); }
  std::uint64_t next_due_cycle() const;  ///< ~0ull when exhausted

  const FaultMap& faults() const { return faults_; }
  const LinkFaultSet& link_faults() const { return links_; }

  /// Retires a link on the health monitor's verdict: marks it failed in
  /// the injector's link state.  No-op (returns false) when the link does
  /// not exist or is already failed.
  bool retire_link(TileCoord tile, Direction d);

  /// Accumulated LdoBrownout targets (the PDN layer re-solves from these).
  const std::vector<TileCoord>& brownouts() const { return brownouts_; }
  /// Accumulated ClockGenLoss targets (the clock layer drops these from
  /// the generator list).
  const std::vector<TileCoord>& lost_generators() const {
    return lost_generators_;
  }

  /// Accumulated LinkBerDegradation events, in application order.  The
  /// campaign layers these on top of each PDN-derived BER map (the most
  /// recent event per link wins when reapplied in order).
  const std::vector<FaultEvent>& ber_degradations() const {
    return ber_degradations_;
  }

  /// Marks extra tiles unusable (e.g. tiles the PDN re-solve pushed out of
  /// regulation, or tiles the clock wave orphaned) without an event of
  /// their own — degradation consequences, not injected faults.
  void mark_unusable(TileCoord tile) { faults_.set_faulty(tile, true); }

 private:
  FaultMap faults_;
  LinkFaultSet links_;
  FaultSchedule schedule_;
  std::size_t next_ = 0;
  std::vector<TileCoord> brownouts_;
  std::vector<TileCoord> lost_generators_;
  std::vector<FaultEvent> ber_degradations_;
};

}  // namespace wsp::resilience

// Runtime-fault notification: the observer seam between the injection
// layer (wsp::resilience) and the subsystems that must react to faults
// appearing *during operation* (NoC replan, clock re-selection, PDN
// re-solve).
//
// The assembly-time story samples a FaultMap once and derives everything
// from it; the runtime story mutates that map while traffic is in flight.
// Reactive subsystems subscribe to a FaultBus and receive a FaultNotice
// for every applied event, together with the already-updated fault state,
// so they can invalidate caches and replan without polling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "wsp/common/geometry.hpp"

namespace wsp {

class FaultMap;
class LinkFaultSet;

/// Kinds of fault that can strike a live wafer (Secs. IV-VII failure
/// modes, extended from assembly-time to runtime).
enum class RuntimeFaultKind : std::uint8_t {
  TileDeath = 0,        ///< whole tile (both chiplets) stops responding
  LinkFailure = 1,      ///< one directed inter-tile link (stuck async FIFO)
  LdoBrownout = 2,      ///< tile's LDO loses regulation under a load step
  ClockGenLoss = 3,     ///< an edge clock-generator tile stops toggling
  PacketCorruption = 4, ///< transient: one in-flight packet is corrupted
  LinkRetirement = 5,   ///< health monitor retired an error-prone link
  LinkBerDegradation = 6, ///< one link's bit-error rate jumps (marginal eye)
};
constexpr RuntimeFaultKind enum_max(RuntimeFaultKind) {
  return RuntimeFaultKind::LinkBerDegradation;
}

inline const char* to_string(RuntimeFaultKind k) {
  switch (k) {
    case RuntimeFaultKind::TileDeath: return "TileDeath";
    case RuntimeFaultKind::LinkFailure: return "LinkFailure";
    case RuntimeFaultKind::LdoBrownout: return "LdoBrownout";
    case RuntimeFaultKind::ClockGenLoss: return "ClockGenLoss";
    case RuntimeFaultKind::PacketCorruption: return "PacketCorruption";
    case RuntimeFaultKind::LinkRetirement: return "LinkRetirement";
    case RuntimeFaultKind::LinkBerDegradation: return "LinkBerDegradation";
  }
  return "?";
}

/// One applied fault event, as delivered to observers.
struct FaultNotice {
  RuntimeFaultKind kind = RuntimeFaultKind::TileDeath;
  TileCoord tile;                 ///< struck tile (or link source)
  std::optional<Direction> link;  ///< outgoing direction, link events only
  std::uint64_t cycle = 0;        ///< simulation cycle the fault appeared
  double magnitude = 0.0;         ///< new BER, LinkBerDegradation only
};

auto fields(Of<FaultNotice> auto& n) {
  return std::tie(n.kind, n.tile, n.link, n.cycle, n.magnitude);
}

/// Subscriber interface.  `faults` and `links` are the *post-event* state:
/// the mutation has already been applied when observers run.
class FaultObserver {
 public:
  virtual ~FaultObserver() = default;
  virtual void on_fault(const FaultNotice& notice, const FaultMap& faults,
                        const LinkFaultSet& links) = 0;
};

/// Minimal synchronous publish/subscribe fan-out.  Observers are notified
/// in subscription order (deterministic); the bus does not own them.
class FaultBus {
 public:
  void subscribe(FaultObserver* observer) {
    if (observer && std::find(observers_.begin(), observers_.end(),
                              observer) == observers_.end())
      observers_.push_back(observer);
  }

  void unsubscribe(FaultObserver* observer) {
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
  }

  std::size_t observer_count() const { return observers_.size(); }

  void publish(const FaultNotice& notice, const FaultMap& faults,
               const LinkFaultSet& links) const {
    for (FaultObserver* o : observers_) o->on_fault(notice, faults, links);
  }

 private:
  std::vector<FaultObserver*> observers_;
};

}  // namespace wsp

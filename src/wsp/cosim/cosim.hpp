// PDN <-> NoC epoch-stepped co-simulation (the closed loop the paper's
// power-delivery and network chapters each describe half of).
//
// A static PDN solve assumes a fixed activity factor; a static BER map
// assumes a fixed droop profile.  In reality the two are coupled: traffic
// concentrates switching power where packets flow, the power planes sag
// under that load, the sagged supply shrinks link eye margins, and the
// resulting retransmits are themselves traffic.  `CosimLoop` closes the
// loop deterministically with an epoch-stepped relaxation:
//
//   every cycle   : one wsp::workloads::TrafficDriver step — emit the
//                   workload's injections (collectives, layer pipelines,
//                   spiking bursts, graph waves or the synthetic
//                   patterns), issue them, step the dual-mesh NoC
//                   (cheap per-tile activity counters accumulate for free)
//   every N cycles: take the epoch's activity counters off the NoC
//                   -> per-tile power map -> re-solve the wafer PDN
//                   (warm-started; the uncoupled static reference RHS
//                   rides along until it settles) -> derive per-link BER
//                   from the regulated tile voltages -> set it on the NoC,
//                   whose meshes sample it from the next cycle on.
//
// Determinism: every stage runs serially on the calling thread (generator
// RNG, mesh phases, batched multigrid), and the coupling points are fixed
// cycle boundaries between NoC steps — so the whole loop is bit-identical
// at any thread count and checkpoint-resumable mid-epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/pdn/wafer_pdn.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

namespace wsp::cosim {

/// Maps epoch activity deltas to per-tile utilisation and power.
/// Utilisation is the weighted flit-event rate normalised by the tile's
/// peak sustainable rate; power interpolates between the idle floor and
/// tile peak power (the same idle+util*(peak-idle) shape as
/// wsp::arch::tile_power_map, but driven by measured NoC activity instead
/// of a workload trace).
struct ActivityScale {
  /// Fraction of peak power a healthy idle tile draws (clock tree,
  /// leakage, idle cores).
  double idle_fraction = 0.3;
  /// Weighted flit events per cycle that count as 100% utilisation.  An
  /// injection and a link grant weigh 1, a retransmit 2 (the NACK and the
  /// resend both burn power).
  double flits_per_cycle_at_peak = 2.0;
};

auto fields(Of<ActivityScale> auto& s) {
  return std::tie(s.idle_fraction, s.flits_per_cycle_at_peak);
}

/// Converts one epoch's per-tile activity deltas into a per-tile power map
/// (watts, indexed by TileGrid::index_of).  Faulty tiles draw zero; healthy
/// tiles draw idle_fraction*peak at zero activity, ramping linearly to peak
/// at `scale.flits_per_cycle_at_peak` weighted events per cycle (clamped).
/// `epoch_cycles` must be >= 1.  The result is a valid WaferPdn::solve /
/// solve_batch power map by construction.
std::vector<double> activity_power_map(
    const std::vector<noc::TileActivity>& delta, const FaultMap& faults,
    double tile_peak_power_w, std::uint64_t epoch_cycles,
    const ActivityScale& scale = {});

/// Takes the NoC's per-tile activity once per epoch.  The counts live in
/// the meshes (checkpoint state there), so a resumed run's first harvest
/// sees exactly the activity an uninterrupted run would.
class ActivityTracker {
 public:
  /// Per-tile activity since the previous harvest (or since the NoC was
  /// built), taken off the NoC (NocSystem::take_tile_activity).  The
  /// returned reference is valid until the next call.
  const std::vector<noc::TileActivity>& harvest(noc::NocSystem& noc) {
    noc.take_tile_activity(delta_);
    return delta_;
  }

 private:
  std::vector<noc::TileActivity> delta_;
};

struct CosimOptions {
  SystemConfig config = SystemConfig::reduced(8, 8);
  /// Cycles per coupling epoch (the relaxation step of the fixed-point
  /// iteration).  Must be >= 1.
  std::uint64_t epoch_cycles = 64;
  std::uint64_t seed = 1;
  ActivityScale scale{};
  /// Voltage->BER mapping for the per-epoch link BER map.  Takes effect
  /// only when noc.mesh.integrity.enabled.
  noc::BerParams ber{};
  pdn::WaferPdnOptions pdn{};
  noc::NocOptions noc{};
  noc::TrafficConfig traffic{};
  /// Workload driving the loop.  For the Synthetic class (the default) the
  /// generator runs `traffic` seeded by `seed` above; the spec's own
  /// synthetic/seed fields are ignored.  Any other class runs the spec
  /// verbatim: all-reduce rings, halo exchange, layer pipelines, spiking
  /// bursts or graph waves.
  workloads::WorkloadSpec workload{};
};

auto fields(Of<CosimOptions> auto& o) {
  return std::tie(o.config, o.epoch_cycles, o.seed, o.scale, o.ber, o.pdn,
                  o.noc, o.traffic, o.workload);
}

/// One epoch's coupled measurements, recorded at each epoch boundary.
struct EpochReport {
  std::uint64_t epoch = 0;      ///< 0-based epoch index
  std::uint64_t end_cycle = 0;  ///< NoC cycle at the boundary
  // Epoch activity deltas summed over tiles:
  std::uint64_t injections = 0;
  std::uint64_t traversals = 0;
  std::uint64_t retransmits = 0;
  double total_power_w = 0.0;  ///< coupled power map total
  // Coupled PDN solve:
  double min_supply_v = 0.0;
  double min_regulated_v = 0.0;
  /// Max over tiles of (static-reference supply - coupled supply): the
  /// droop the measured traffic adds on top of the idle-floor baseline.
  double max_excess_droop_v = 0.0;
  int coupled_iterations = 0;  ///< V-cycles the (warm) coupled solve took
  // BER map derived from the coupled regulated voltages (0 when link
  // integrity is disabled):
  double mean_ber = 0.0;
  double max_ber = 0.0;

  friend bool operator==(const EpochReport&, const EpochReport&) = default;
};

auto fields(Of<EpochReport> auto& e) {
  return std::tie(e.epoch, e.end_cycle, e.injections, e.traversals,
                  e.retransmits, e.total_power_w, e.min_supply_v,
                  e.min_regulated_v, e.max_excess_droop_v,
                  e.coupled_iterations, e.mean_ber, e.max_ber);
}

/// Aggregate view assembled by CosimLoop::report().
struct CosimReport {
  std::vector<EpochReport> epochs;
  noc::NocStats noc_stats;
  std::uint64_t cycles = 0;
  double worst_min_supply_v = 0.0;   ///< min over epochs
  double worst_excess_droop_v = 0.0; ///< max over epochs
  double peak_mean_ber = 0.0;        ///< max over epochs
};

/// Serialises the fields a comparison cares about into a byte string —
/// the "final report bytes" used by the bit-identity tests and benches.
std::vector<std::uint8_t> serialize_report(const CosimReport& report);

/// The deterministic coupled driver.  Owns the NoC, the PDN model, the
/// workload generator and its TrafficDriver, and the warm-start seed
/// buffers.
class CosimLoop {
 public:
  /// Fault-free wafer.
  explicit CosimLoop(const CosimOptions& options);
  /// Degraded wafer: `faults` marks unusable tiles (they inject nothing,
  /// draw no power, and the NoC routes around them).
  CosimLoop(const CosimOptions& options, const FaultMap& faults);

  /// Advances one NoC cycle; at each epoch_cycles boundary runs the
  /// coupling step (harvest -> power -> warm PDN re-solve -> BER map).
  void step_cycle();

  /// Advances `cycles` cycles.  run(a); run(b); is bit-identical to
  /// run(a+b) — the loop keeps no per-call state.
  void run(std::uint64_t cycles);

  /// Advances `epochs` whole epochs (epochs * epoch_cycles cycles).
  void run_epochs(std::uint64_t epochs);

  std::uint64_t now() const { return noc_.now(); }
  std::uint64_t epochs_completed() const { return epochs_.size(); }
  const std::vector<EpochReport>& epochs() const { return epochs_; }
  CosimReport report() const;

  /// Full per-tile PDN reports of the most recent epoch's coupled solve
  /// and its static idle-floor reference (empty tiles before the first
  /// epoch).  Derived caches, not checkpoint state: after load_state they
  /// are empty until the next epoch boundary.
  const pdn::PdnReport& last_coupled_pdn() const { return last_coupled_; }
  const pdn::PdnReport& last_static_pdn() const { return last_static_; }

  const noc::NocSystem& noc() const { return noc_; }
  const CosimOptions& options() const { return options_; }
  /// The workload generator injecting every cycle's traffic.
  workloads::TrafficGenerator& generator() { return *gen_; }
  const workloads::TrafficGenerator& generator() const { return *gen_; }
  /// Counts and nearest-rank round-trip latency percentiles over every
  /// transaction completed so far (report.cycles is the cycles run so
  /// far).  The latency histogram is checkpoint state, so a resumed run
  /// reports the same percentiles an uninterrupted one does.
  noc::TrafficReport latency_summary() const;
  /// Registry holding the NoC counters plus the per-epoch cosim gauges
  /// (cosim.epochs, cosim.min_supply_v, cosim.max_excess_droop_v,
  /// cosim.min_regulated_v, cosim.mean_ber, cosim.epoch_retransmits) and
  /// the per-class workload latency gauges (cosim.workload_p50_latency,
  /// _p95_, _p99_ — nearest-rank over every completed round trip).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Checkpoint hooks: the workload generator's frame, epoch cursor,
  /// traffic driver (latency histogram), warm-start seeds, epoch reports
  /// and the full NoC state (its activity counters included) round-trip,
  /// so load + run is bit-identical to never having stopped — mid-epoch
  /// included.
  /// load_state targets a loop constructed with equal options and faults;
  /// mismatches throw ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);
  /// Frames save_state into a "COSM" container, written atomically.
  void save_checkpoint(const std::string& path) const;
  void load_checkpoint(const std::string& path);
  /// CRC-32 over the save_state byte image — the cheap bit-identity probe
  /// the thread-invariance tests and benches compare.
  std::uint32_t state_fingerprint() const;

 private:
  CosimOptions options_;
  FaultMap faults_;
  obs::MetricsRegistry metrics_;
  noc::NocSystem noc_;
  pdn::WaferPdn pdn_;
  std::unique_ptr<workloads::TrafficGenerator> gen_;
  workloads::TrafficDriver driver_;
  ActivityTracker tracker_;
  /// Warm-start seeds persisted across epochs: [0] coupled map, [1] static
  /// idle-floor reference (solved in the same batch for the excess-droop
  /// comparison until it settles).
  std::vector<std::vector<double>> seeds_;
  /// Batch staged per epoch: [0] coupled map (rewritten each epoch),
  /// [1] static idle-floor reference (constant).
  std::vector<std::vector<double>> power_maps_;
  pdn::PdnReport last_coupled_;  ///< derived cache (see last_coupled_pdn)
  pdn::PdnReport last_static_;
  /// Derived, not checkpoint state (cleared by load_state): a solve of the
  /// static reference reported 0 iterations, so last_static_ is reused.
  bool static_settled_ = false;
  std::vector<EpochReport> epochs_;
  std::uint64_t cycle_in_epoch_ = 0;

  void couple();  ///< the epoch-boundary coupling step
  void publish_gauges(const EpochReport& e);
};

}  // namespace wsp::cosim

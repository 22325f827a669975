#include "wsp/cosim/cosim.hpp"

#include <algorithm>
#include <limits>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::cosim {

namespace {
// Flit-event weights of the utilisation estimate: per packet injected at a
// tile, per link grant leaving it, and per retransmit landing at it (the
// NACK and the resend both burn power).
constexpr double kInjectionWeight = 1.0;
constexpr double kTraversalWeight = 1.0;
constexpr double kRetransmitWeight = 2.0;
}  // namespace

std::vector<double> activity_power_map(
    const std::vector<noc::TileActivity>& delta, const FaultMap& faults,
    double tile_peak_power_w, std::uint64_t epoch_cycles,
    const ActivityScale& scale) {
  const TileGrid& grid = faults.grid();
  require(delta.size() == grid.tile_count(),
          "activity_power_map: delta size must equal the tile count");
  require(epoch_cycles >= 1, "activity_power_map: epoch_cycles must be >= 1");
  require(tile_peak_power_w >= 0.0,
          "activity_power_map: tile peak power must be non-negative");
  require(scale.idle_fraction >= 0.0 && scale.idle_fraction <= 1.0,
          "activity_power_map: idle_fraction must be in [0,1]");
  require(scale.flits_per_cycle_at_peak > 0.0,
          "activity_power_map: flits_per_cycle_at_peak must be positive");
  const double denom =
      static_cast<double>(epoch_cycles) * scale.flits_per_cycle_at_peak;
  std::vector<double> power(delta.size(), 0.0);
  grid.for_each([&](TileCoord c) {
    if (faults.is_faulty(c)) return;  // dead tiles draw nothing
    const std::size_t i = grid.index_of(c);
    const noc::TileActivity& a = delta[i];
    const double weighted =
        static_cast<double>(a.injections) * kInjectionWeight +
        static_cast<double>(a.traversals) * kTraversalWeight +
        static_cast<double>(a.retransmits) * kRetransmitWeight;
    const double util = std::min(1.0, weighted / denom);
    power[i] =
        tile_peak_power_w * (scale.idle_fraction +
                             util * (1.0 - scale.idle_fraction));
  });
  return power;
}

// --- report serialisation ---------------------------------------------------

std::vector<std::uint8_t> serialize_report(const CosimReport& report) {
  const noc::NocStats& s = report.noc_stats;
  ckpt::Writer w;
  ckpt::save_fields(
      w, std::tie(report.cycles, report.worst_min_supply_v,
                  report.worst_excess_droop_v, report.peak_mean_ber,
                  s.issued, s.completed, s.unreachable, s.relayed,
                  s.latency_sum, s.latency_max, s.timeouts, s.retries, s.lost,
                  s.crc_detected, s.link_retransmits, s.escapes,
                  report.epochs));
  return w.bytes();
}

// --- CosimLoop --------------------------------------------------------------

namespace {

std::unique_ptr<workloads::TrafficGenerator> make_cosim_generator(
    const CosimOptions& o, const FaultMap& faults) {
  if (o.workload.cls == workloads::WorkloadClass::Synthetic)
    return workloads::make_synthetic(o.traffic, faults, Rng(o.seed));
  return workloads::make_generator(o.workload, o.config, faults);
}

}  // namespace

CosimLoop::CosimLoop(const CosimOptions& options)
    : CosimLoop(options, FaultMap(options.config.grid())) {}

CosimLoop::CosimLoop(const CosimOptions& options, const FaultMap& faults)
    : options_(options),
      faults_(faults),
      noc_(faults_, options_.noc, &metrics_),
      pdn_(options_.config, options_.pdn),
      gen_(make_cosim_generator(options_, faults_)),
      driver_(noc_, *gen_) {
  options_.config.validate();
  require(options_.epoch_cycles >= 1, "cosim epoch must be >= 1 cycle");
  require(faults_.grid().width() == options_.config.grid().width() &&
              faults_.grid().height() == options_.config.grid().height(),
          "cosim fault map grid must match the config grid");
  pdn_.bind_metrics(&metrics_);
  // Two warm-start seed buffers persisted across epochs: the coupled map
  // and the static idle-floor reference solved alongside it.
  seeds_.assign(2, {});
  power_maps_.assign(2, {});
  power_maps_[1] = activity_power_map(
      std::vector<noc::TileActivity>(faults_.grid().tile_count()), faults_,
      options_.config.tile_peak_power_w, options_.epoch_cycles,
      options_.scale);
}

void CosimLoop::step_cycle() {
  driver_.step();
  if (++cycle_in_epoch_ == options_.epoch_cycles) {
    cycle_in_epoch_ = 0;
    couple();
  }
}

void CosimLoop::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) step_cycle();
}

void CosimLoop::run_epochs(std::uint64_t epochs) {
  run(epochs * options_.epoch_cycles);
}

void CosimLoop::couple() {
  WSP_TRACE_SPAN("cosim.epoch");
  const TileGrid& grid = faults_.grid();
  const std::vector<noc::TileActivity>& delta = tracker_.harvest(noc_);

  EpochReport e;
  e.epoch = epochs_.size();
  e.end_cycle = noc_.now();
  for (const noc::TileActivity& a : delta) {
    e.injections += a.injections;
    e.traversals += a.traversals;
    e.retransmits += a.retransmits;
  }

  power_maps_[0] = activity_power_map(delta, faults_,
                                      options_.config.tile_peak_power_w,
                                      options_.epoch_cycles, options_.scale);
  for (const double p : power_maps_[0]) e.total_power_w += p;

  // The static reference rides in the batch until a solve reports 0
  // iterations: its seed is then a fixed point of the solver, so every
  // later re-solve would return last_static_ byte for byte.
  const std::size_t batch = static_settled_ ? 1 : 2;
  std::vector<pdn::SolveStats> stats;
  std::vector<pdn::PdnReport> reports = pdn_.solve_batch_warm(
      std::span(power_maps_).first(batch), std::span(seeds_).first(batch),
      &stats);
  if (!static_settled_) {
    last_static_ = std::move(reports[1]);
    static_settled_ = stats[1].iterations == 0;
  }
  last_coupled_ = std::move(reports[0]);
  const pdn::PdnReport& coupled = last_coupled_;
  const pdn::PdnReport& baseline = last_static_;
  e.min_supply_v = coupled.min_supply_v;
  e.coupled_iterations = stats[0].iterations;

  std::vector<double> regulated(grid.tile_count(), 0.0);
  double min_reg = std::numeric_limits<double>::infinity();
  double excess = 0.0;
  for (std::size_t i = 0; i < regulated.size(); ++i) {
    regulated[i] = coupled.tiles[i].regulated_v;
    min_reg = std::min(min_reg, regulated[i]);
    excess = std::max(excess,
                      baseline.tiles[i].supply_v - coupled.tiles[i].supply_v);
  }
  e.min_regulated_v = regulated.empty() ? 0.0 : min_reg;
  e.max_excess_droop_v = excess;

  if (options_.noc.mesh.integrity.enabled) {
    noc::LinkBerMap ber =
        noc::LinkBerMap::from_tile_voltages(grid, regulated, options_.ber);
    // Tile-major, directions in kAllDirections order.  Links leaving the
    // array hold exactly 0, which leaves the sum and the max unchanged.
    double sum = 0.0;
    for (std::size_t t = 0; t < grid.tile_count(); ++t)
      for (std::size_t d = 0; d < kAllDirections.size(); ++d) {
        const double b = ber.ber_at(t, d);
        sum += b;
        e.max_ber = std::max(e.max_ber, b);
      }
    const std::size_t w = grid.width(), h = grid.height();
    const std::size_t links = 2 * ((w - 1) * h + w * (h - 1));
    e.mean_ber = links ? sum / static_cast<double>(links) : 0.0;
    // Both meshes sample it from the first cycle of the next epoch.
    noc_.set_link_ber(std::move(ber));
  }

  epochs_.push_back(e);
  publish_gauges(e);
}

void CosimLoop::publish_gauges(const EpochReport& e) {
  metrics_.gauge("cosim.epochs").set(static_cast<double>(epochs_.size()));
  metrics_.gauge("cosim.min_supply_v").set(e.min_supply_v);
  metrics_.gauge("cosim.min_regulated_v").set(e.min_regulated_v);
  metrics_.gauge("cosim.max_excess_droop_v").set(e.max_excess_droop_v);
  metrics_.gauge("cosim.mean_ber").set(e.mean_ber);
  metrics_.gauge("cosim.epoch_retransmits")
      .set(static_cast<double>(e.retransmits));
  // Per-class tail latency alongside the droop gauges, so one RunReport
  // section carries both halves of the workload/power story.
  const obs::Histogram& lat = driver_.latencies();
  metrics_.gauge("cosim.workload_p50_latency")
      .set(static_cast<double>(lat.percentile(0.50)));
  metrics_.gauge("cosim.workload_p95_latency")
      .set(static_cast<double>(lat.percentile(0.95)));
  metrics_.gauge("cosim.workload_p99_latency")
      .set(static_cast<double>(lat.percentile(0.99)));
}

noc::TrafficReport CosimLoop::latency_summary() const {
  return driver_.report(noc_.now());
}

CosimReport CosimLoop::report() const {
  CosimReport r;
  r.epochs = epochs_;
  r.noc_stats = noc_.stats();
  r.cycles = noc_.now();
  r.worst_min_supply_v = std::numeric_limits<double>::infinity();
  for (const EpochReport& e : epochs_) {
    r.worst_min_supply_v = std::min(r.worst_min_supply_v, e.min_supply_v);
    r.worst_excess_droop_v =
        std::max(r.worst_excess_droop_v, e.max_excess_droop_v);
    r.peak_mean_ber = std::max(r.peak_mean_ber, e.mean_ber);
  }
  if (epochs_.empty()) r.worst_min_supply_v = 0.0;
  return r;
}

// --- checkpointing ----------------------------------------------------------

namespace {
constexpr std::uint32_t kCosimKind = ckpt::fourcc("COSM");
// v2: the raw traffic-RNG words were replaced by the workload generator's
// own tagged frame, and the completed-transaction latency record was added.
// v3: the raw latency vector became the TrafficDriver frame (latency
// histogram + delivery digest).
// v4: CosimOptions lead the "CLOP" section, checked on load.
// v5: the traffic driver's latency histogram is its (value, count) runs.
// v6: the option block lost the solver tuning, NoC latencies, retransmit
//     budget, BER params of the mesh and activity weights (now constants).
// v7: the stochastic generators checkpoint their geometric gap, and the
//     mesh blocks are MESH v5.
// v8: no ATRK block (the meshes' counters hold the epoch's activity), and
//     the NoC block is NOCS v6.
// v9: the CLOP option block lost the PDN load-model byte (constant current
//     is the only load law).
// v10: the NoC block is NOCS v7 (the fault state and BER map once).
constexpr std::uint32_t kCosimStateVersion = 10;
}  // namespace

void CosimLoop::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("CLOP"));
  ckpt::save_fields(w, options_);
  gen_->save_state(w);
  w.u64(cycle_in_epoch_);
  driver_.save_state(w);
  w.tag(ckpt::fourcc("SEED"));
  ckpt::save_fields(w, seeds_);
  w.tag(ckpt::fourcc("EPRP"));
  ckpt::save_fields(w, epochs_);
  noc_.save_state(w);
}

void CosimLoop::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("CLOP"), "cosim loop");
  ckpt::expect_fields(r, options_, "cosim options");
  gen_->load_state(r);
  cycle_in_epoch_ = r.u64();
  if (cycle_in_epoch_ >= options_.epoch_cycles)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "epoch cursor past the epoch length");
  driver_.load_state(r);
  r.expect_tag(ckpt::fourcc("SEED"), "warm-start seeds");
  ckpt::load_fields(r, seeds_);
  if (seeds_.size() != 2)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "cosim snapshot must hold two seed buffers");
  for (const std::vector<double>& seed : seeds_)
    if (!seed.empty() && seed.size() != pdn_.node_count())
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "warm-start seed does not cover the PDN grid");
  r.expect_tag(ckpt::fourcc("EPRP"), "epoch reports");
  ckpt::load_fields(r, epochs_);
  noc_.load_state(r);
  static_settled_ = false;  // derived: re-checked by the next epoch's solve
  if (!epochs_.empty()) publish_gauges(epochs_.back());
}

void CosimLoop::save_checkpoint(const std::string& path) const {
  ckpt::Writer w;
  save_state(w);
  ckpt::save_frame_file(path, kCosimKind, kCosimStateVersion, w);
}

void CosimLoop::load_checkpoint(const std::string& path) {
  const ckpt::Frame frame = ckpt::load_frame_file(path, kCosimKind);
  if (frame.state_version != kCosimStateVersion)
    throw ckpt::Error(ckpt::ErrorKind::VersionMismatch,
                      "cosim snapshot schema revision unknown");
  ckpt::Reader r(frame.payload());
  load_state(r);
  if (!r.done())
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "trailing bytes after cosim snapshot");
}

std::uint32_t CosimLoop::state_fingerprint() const {
  ckpt::Writer w;
  save_state(w);
  return ckpt::crc32(w.bytes().data(), w.size());
}

}  // namespace wsp::cosim

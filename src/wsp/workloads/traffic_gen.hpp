// Workload traffic generators: deterministic, seedable per-cycle injection
// streams for the tenant classes a waferscale processor actually hosts.
//
// Every NoC/cosim result used to run uniform-random traffic; the paper's
// wafer is built for real tenants — DL kernels pipelined across the 2048
// chiplets and event-driven neuromorphic workloads.  This module models
// them as injection streams behind one seam:
//
//   * collectives    — all-reduce rings (reduce-scatter + all-gather over a
//                      snake ring of healthy tiles) and halo exchange over
//                      tile neighbourhoods (stencil ghost-cell swaps);
//   * layer pipeline — alternating compute/communicate phases, the compute
//                      window derived from the core timing model
//                      (cores_per_tile cores, 1 op/cycle each);
//   * spiking bursts — Poisson-thinned background firing plus hotspot
//                      avalanches that flare and decay (neuromorphic);
//   * graph waves    — BFS/SSSP frontier expansions replayed as per-level
//                      message waves over the vertex partition;
//   * synthetic      — the noc::TrafficConfig patterns (uniform, transpose,
//                      bit-complement, hotspot, near-neighbour).
//
// Every NoC traffic stream in the library comes from a generator and is
// driven by TrafficDriver, the one emit -> issue -> step -> record loop.
//
// Determinism contract: a generator is a pure function of (spec, config,
// fault map, cycles emitted so far).  emit() advances exactly one cycle, so
// run(a); run(b) is bit-identical to run(a+b); all randomness flows from a
// private wsp::Rng seeded by the spec; and save_state/load_state round-trip
// the complete cursor + RNG state in a per-class tagged checkpoint frame,
// making mid-run kill-and-resume bit-identical.  Generators never emit from
// or to a faulty tile — apply_fault_state() re-derives the phase geometry
// (ring membership, halo neighbours, pipeline stages, vertex owners) when
// the fault map changes mid-run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/metrics.hpp"

namespace wsp::workloads {

/// One transaction a generator wants issued this cycle.
struct Injection {
  TileCoord src{0, 0};
  TileCoord dst{0, 0};
  noc::PacketType type = noc::PacketType::ReadRequest;
  std::uint64_t payload = 0;
  friend bool operator==(const Injection&, const Injection&) = default;
};

/// The one source of NoC traffic.  See the file comment for the
/// determinism contract every implementation honours.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;

  virtual const char* name() const = 0;

  /// Appends this cycle's injections to `out` (which is not cleared) and
  /// advances the generator's internal cycle cursor by one.
  virtual void emit(std::vector<Injection>& out) = 0;

  /// Analytic injection count of the *next* emit() call, for generators
  /// whose phase schedule is closed-form (collectives, pipeline, graph
  /// waves).  Stochastic generators return nullopt.
  virtual std::optional<std::uint64_t> next_scheduled_injections() const {
    return std::nullopt;
  }

  /// Re-derives the phase geometry after the fault map changed.  The cycle
  /// cursor is preserved (clamped into the new schedule where its period
  /// shrank); subsequent emissions avoid the newly faulty tiles.
  virtual void apply_fault_state(const FaultMap& faults) = 0;

  /// Checkpoint hooks: the complete cursor + RNG state, framed under a
  /// per-class tag so loading a snapshot of a different class fails loudly
  /// with ckpt::Error{SchemaMismatch}.  load_state targets a generator
  /// constructed with an equal spec/config/fault map.
  virtual void save_state(ckpt::Writer& w) const = 0;
  virtual void load_state(ckpt::Reader& r) = 0;
};

// --- workload specification -------------------------------------------------

enum class WorkloadClass : std::uint8_t {
  Synthetic = 0,     ///< noc::TrafficConfig patterns
  AllReduceRing,     ///< reduce-scatter + all-gather over a tile ring
  HaloExchange,      ///< 4-direction ghost-cell swap every period
  LayerPipeline,     ///< compute/communicate phases across column stages
  SpikingBurst,      ///< Poisson background + hotspot avalanches
  GraphWave,         ///< BFS/SSSP frontier waves over the vertex partition
};

const char* to_string(WorkloadClass c);

/// All-reduce ring: the healthy tiles inside `rect` (whole grid when the
/// rect is empty) are ordered into a boustrophedon ring; one all-reduce op
/// is 2*(R-1) ring steps (reduce-scatter then all-gather), each step
/// lasting step_cycles during which every member sends chunk_packets to its
/// ring successor (one per cycle), followed by gap_cycles of silence before
/// the next op.  Requires chunk_packets <= step_cycles.
struct AllReduceOptions {
  int chunk_packets = 4;
  std::uint64_t step_cycles = 8;
  std::uint64_t gap_cycles = 32;
  /// Confinement rectangle (inclusive).  x1 < x0 selects the whole grid.
  /// A confined ring concentrates the collective on a band of the wafer —
  /// the shape the droop-along-the-ring-path experiments use.
  int rect_x0 = 0, rect_y0 = 0, rect_x1 = -1, rect_y1 = -1;
};

auto fields(Of<AllReduceOptions> auto& o) {
  return std::tie(o.chunk_packets, o.step_cycles, o.gap_cycles, o.rect_x0,
                  o.rect_y0, o.rect_x1, o.rect_y1);
}

/// Halo exchange: every halo_period cycles, four direction waves on
/// consecutive cycles (E, W, N, S); in each wave every healthy tile with a
/// healthy in-grid neighbour in that direction sends it one packet.
/// Requires halo_period >= 4.
struct HaloOptions {
  std::uint64_t halo_period = 8;
};

auto fields(Of<HaloOptions> auto& o) { return std::tie(o.halo_period); }

/// Layer pipeline: the wafer's columns are split into `stages` equal bands
/// (stage = layer).  The stream alternates a global compute window (no
/// traffic) with a communicate window of comm_cycles during which every
/// healthy tile of stage s sends one packet per cycle to the first healthy
/// same-row tile of stage s+1 (activations flowing forward).  When
/// compute_cycles is 0 it is derived from the core timing model:
/// ceil(stage_flops / (cores_per_tile * tiles_per_stage)) cycles at one op
/// per core per cycle.
struct LayerPipelineOptions {
  int stages = 4;
  std::uint64_t compute_cycles = 0;  ///< 0 = derive from the timing model
  std::uint64_t comm_cycles = 8;
  double stage_flops = 1.0e6;  ///< work per stage per layer (for deriving)
};

auto fields(Of<LayerPipelineOptions> auto& o) {
  return std::tie(o.stages, o.compute_cycles, o.comm_cycles, o.stage_flops);
}

/// Spiking bursts: per cycle, every healthy tile fires a background spike
/// with probability background_rate (Poisson thinning, drawn as geometric
/// gaps over the healthy tiles, so it costs one draw per spike); avalanches
/// start either stochastically (probability burst_rate per cycle, random
/// healthy centre) or deterministically (every burst_interval cycles at
/// `hotspot`, capped at max_bursts).  An active avalanche makes every
/// healthy tile within Chebyshev distance burst_radius of its centre fire
/// with probability burst_intensity decaying linearly to zero over
/// burst_cycles.
/// Spikes target a random healthy tile within distance 2 of the source.
struct SpikingOptions {
  double background_rate = 0.002;
  double burst_rate = 0.0;
  std::uint64_t burst_interval = 0;  ///< 0 = no deterministic bursts
  int max_bursts = -1;               ///< cap on deterministic bursts; -1 = none
  TileCoord hotspot{-1, -1};         ///< (-1,-1) = random healthy centre
  int burst_radius = 3;
  std::uint64_t burst_cycles = 32;
  double burst_intensity = 0.6;
};

auto fields(Of<SpikingOptions> auto& o) {
  return std::tie(o.background_rate, o.burst_rate, o.burst_interval,
                  o.max_bursts, o.hotspot, o.burst_radius, o.burst_cycles,
                  o.burst_intensity);
}

/// Graph wave: an R-MAT graph is generated from graph_seed, reference BFS
/// levels are computed from `source`, and the vertices are block-partitioned
/// over the healthy tiles.  Each frontier level becomes a communicate phase:
/// every cross-tile edge (owner(v) -> owner(u), v in the level) is one
/// message, emitted at most one per source tile per cycle, followed by
/// compute_gap_cycles of silence before the next level.  After the deepest
/// level the wave restarts, so the generator streams indefinitely.
struct GraphWaveOptions {
  int scale = 8;
  std::uint64_t edges = 4096;
  std::uint32_t max_weight = 8;
  std::uint64_t graph_seed = 42;
  std::uint32_t source = 0;
  bool weighted = false;  ///< SSSP-style weights in the payload
  std::uint64_t compute_gap_cycles = 4;
};

auto fields(Of<GraphWaveOptions> auto& o) {
  return std::tie(o.scale, o.edges, o.max_weight, o.graph_seed, o.source,
                  o.weighted, o.compute_gap_cycles);
}

/// Value-type description of one workload: the class selector plus every
/// per-class knob.  fields() lists all of it, so a campaign fingerprint or
/// a checkpoint option block pins the workload identity.
struct WorkloadSpec {
  WorkloadClass cls = WorkloadClass::Synthetic;
  std::uint64_t seed = 1;
  noc::TrafficConfig synthetic{};
  AllReduceOptions allreduce{};
  HaloOptions halo{};
  LayerPipelineOptions pipeline{};
  SpikingOptions spiking{};
  GraphWaveOptions graph{};
};

auto fields(Of<WorkloadSpec> auto& s) {
  return std::tie(s.cls, s.seed, s.synthetic, s.allreduce, s.halo, s.pipeline,
                  s.spiking, s.graph);
}

/// Constructs the generator `spec` describes, bound to `config`/`faults`.
/// Throws wsp::Error on invalid per-class options.
std::unique_ptr<TrafficGenerator> make_generator(const WorkloadSpec& spec,
                                                 const SystemConfig& config,
                                                 const FaultMap& faults);

/// The Synthetic generator drawing from `rng` (taken as is, not re-seeded):
/// per cycle, each healthy tile injects with probability injection_rate,
/// the successes found in grid order by geometric gaps (one draw per
/// injection, not per tile), then noc::pick_destination; self-addressed
/// picks are skipped.
/// make_generator passes Rng(spec.seed); a campaign trial hands over its
/// own RNG once the assembly faults and the schedule are drawn from it.
std::unique_ptr<TrafficGenerator> make_synthetic(
    const noc::TrafficConfig& config, const FaultMap& faults, Rng rng);

// --- the NocSystem driver ---------------------------------------------------

/// The one traffic loop.  Each step() is one cycle: emit the generator's
/// injections, issue them (self-addressed ones are dropped), step the NoC,
/// then record what completed.  Recording keeps the round-trip latency of
/// every transaction issued since construction in one histogram and folds
/// every completion, in completion order, into a running CRC-32 of
/// (src, dst, issue_cycle, complete_cycle, relayed): the delivery digest.
/// The NoC and generator are borrowed.
class TrafficDriver {
 public:
  TrafficDriver(noc::NocSystem& noc, TrafficGenerator& gen);

  void step();
  /// Steps without injecting until nothing is in flight.
  void drain();

  /// The NoC's issue/completion counts since construction over `cycles`
  /// cycles, with the latency fields filled from latencies().
  noc::TrafficReport report(std::uint64_t cycles) const;
  const obs::Histogram& latencies() const { return latency_; }
  std::uint32_t delivery_digest() const { return digest_; }
  std::uint64_t injections() const { return injections_; }

  /// Checkpoint hooks: everything above (the construction-time baseline
  /// included), so a resumed driver reports as if never stopped.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  void record();

  /// The checkpointed state, in frame order.
  friend auto fields(Of<TrafficDriver> auto& d) {
    return std::tie(d.start_cycle_, d.start_.issued, d.start_.completed,
                    d.start_.unreachable, d.latency_, d.digest_,
                    d.injections_);
  }

  noc::NocSystem& noc_;
  TrafficGenerator& gen_;
  std::uint64_t start_cycle_;
  noc::NocStats start_;
  obs::Histogram latency_;
  std::uint32_t digest_ = 0;
  std::uint64_t injections_ = 0;
  std::vector<Injection> pending_;
  std::vector<noc::CompletedTransaction> done_;
  ckpt::Writer records_;  ///< one cycle's completions, reused
};

/// Result of driving a generator against a NocSystem.
struct WorkloadRunResult {
  noc::TrafficReport report;  ///< latency percentiles over the run window
  /// TrafficDriver's delivery digest over the run and its drain — the
  /// golden-trace regression constant, bit-identical across thread counts.
  std::uint32_t delivery_digest = 0;
  std::uint64_t injections = 0;  ///< injections the generator emitted
};

/// Runs `cycles` TrafficDriver steps of `gen` against `noc` (then drains
/// when `drain`) and reports them.  When `registry` is non-null the run
/// also records per-class observability under "workloads.<name>.":
/// the round-trip latency histogram (exact p50/p95/p99 via RunReport) and
/// injected/completed counters.
WorkloadRunResult run_workload_traffic(noc::NocSystem& noc,
                                       TrafficGenerator& gen,
                                       std::uint64_t cycles,
                                       obs::MetricsRegistry* registry = nullptr,
                                       bool drain = true);

}  // namespace wsp::workloads

#include "wsp/workloads/traffic_gen.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/workloads/graph_apps.hpp"

namespace wsp::workloads {

const char* to_string(WorkloadClass c) {
  switch (c) {
    case WorkloadClass::Synthetic: return "synthetic";
    case WorkloadClass::AllReduceRing: return "allreduce-ring";
    case WorkloadClass::HaloExchange: return "halo-exchange";
    case WorkloadClass::LayerPipeline: return "layer-pipeline";
    case WorkloadClass::SpikingBurst: return "spiking-burst";
    case WorkloadClass::GraphWave: return "graph-wave";
  }
  return "?";
}

namespace {

/// Bernoulli(p) trials, one per healthy tile per cycle in grid order,
/// visited only where they succeed: the failures before the next success
/// are Geometric(p), drawn by inverse CDF, and the gap carries over cycle
/// boundaries and fault-map changes.  The law of one bernoulli(p) per tile
/// per cycle, at one draw per success.
struct GeometricGaps {
  GeometricGaps(double rate, Rng& rng)
      : p(rate), gap(p > 0.0 ? draw(rng) : 0) {}

  /// Calls fire(tile) for this cycle's successes among `tiles`, in order.
  void cycle(const std::vector<TileCoord>& tiles, Rng& rng, auto&& fire) {
    if (p <= 0.0) return;
    std::uint64_t i = gap;
    for (; i < tiles.size(); i += 1 + draw(rng)) fire(tiles[i]);
    gap = i - tiles.size();
  }

  /// Failures before the next success: P(floor(log(1-u) / log(1-p)) >= k)
  /// is (1-p)^k.
  std::uint64_t draw(Rng& rng) const {
    if (p >= 1.0) return 0;
    const double g = std::floor(std::log1p(-rng.uniform()) / std::log1p(-p));
    return g < 0x1p62 ? static_cast<std::uint64_t>(g) : std::uint64_t{1} << 62;
  }

  double p;
  std::uint64_t gap;  ///< trials still to skip (checkpointed)
};

// --- synthetic (noc::TrafficConfig patterns) -------------------------------

/// noc::TrafficConfig + an RNG: per cycle, Bernoulli(injection_rate) over
/// the healthy tiles by geometric gaps, then pick_destination per success.
class SyntheticGenerator final : public TrafficGenerator {
 public:
  SyntheticGenerator(const noc::TrafficConfig& config, const FaultMap& faults,
                     Rng rng)
      : faults_(faults),
        config_(config),
        rng_(std::move(rng)),
        gaps_(config.injection_rate, rng_),
        healthy_(faults.healthy_tiles()) {}

  const char* name() const override { return "synthetic"; }

  void emit(std::vector<Injection>& out) override {
    gaps_.cycle(healthy_, rng_, [&](TileCoord src) {
      const TileCoord dst =
          noc::pick_destination(faults_, src, config_, rng_);
      if (dst == src) return;
      out.push_back({src, dst, noc::PacketType::ReadRequest, 0});
    });
    ++cycle_;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
    healthy_ = faults_.healthy_tiles();
  }

  /// The checkpointed state, in frame order.
  friend auto fields(Of<SyntheticGenerator> auto& g) {
    return std::tie(g.rng_, g.cycle_, g.gaps_.gap);
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGSY"));
    ckpt::save_fields(w, fields(*this));
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGSY"), "synthetic generator");
    ckpt::load_fields(r, fields(*this));
  }

 private:
  FaultMap faults_;
  noc::TrafficConfig config_;
  Rng rng_;
  GeometricGaps gaps_;
  std::vector<TileCoord> healthy_;  ///< grid order
  std::uint64_t cycle_ = 0;
};

// --- all-reduce ring --------------------------------------------------------

class AllReduceRingGenerator final : public TrafficGenerator {
 public:
  AllReduceRingGenerator(const WorkloadSpec& spec, const FaultMap& faults)
      : opts_(spec.allreduce), faults_(faults) {
    require(opts_.chunk_packets >= 1,
            "all-reduce: chunk_packets must be >= 1");
    require(opts_.step_cycles >= 1, "all-reduce: step_cycles must be >= 1");
    require(static_cast<std::uint64_t>(opts_.chunk_packets) <=
                opts_.step_cycles,
            "all-reduce: chunk_packets must fit in step_cycles");
    rebuild_ring();
  }

  const char* name() const override { return "allreduce-ring"; }

  void emit(std::vector<Injection>& out) override {
    if (ring_.size() >= 2 && emitting_now()) {
      // Reduce-scatter then all-gather: at every active cycle each ring
      // member forwards one chunk packet to its successor.
      for (std::size_t i = 0; i < ring_.size(); ++i) {
        const TileCoord src = ring_[i];
        const TileCoord dst = ring_[(i + 1) % ring_.size()];
        out.push_back({src, dst, noc::PacketType::WriteRequest,
                       cycle_in_op_});
      }
    }
    advance();
  }

  std::optional<std::uint64_t> next_scheduled_injections() const override {
    if (ring_.size() < 2) return 0;
    return emitting_now() ? ring_.size() : 0;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
    rebuild_ring();
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGAR"));
    ckpt::save_fields(w, cycle_in_op_);
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGAR"), "all-reduce ring generator");
    ckpt::load_fields(r, cycle_in_op_);
    if (op_cycles() > 0) cycle_in_op_ %= op_cycles();
  }

  const std::vector<TileCoord>& ring() const { return ring_; }

 private:
  /// One all-reduce op: 2*(R-1) ring steps of step_cycles, then the gap.
  std::uint64_t op_cycles() const {
    if (ring_.size() < 2) return 0;
    const std::uint64_t steps = 2 * (ring_.size() - 1);
    return steps * opts_.step_cycles + opts_.gap_cycles;
  }

  bool emitting_now() const {
    const std::uint64_t steps = 2 * (ring_.size() - 1);
    if (cycle_in_op_ >= steps * opts_.step_cycles) return false;  // gap
    return cycle_in_op_ % opts_.step_cycles <
           static_cast<std::uint64_t>(opts_.chunk_packets);
  }

  void advance() {
    const std::uint64_t op = op_cycles();
    if (op == 0) return;
    if (++cycle_in_op_ == op) cycle_in_op_ = 0;
  }

  /// Healthy tiles inside the rect in boustrophedon (snake) order, so ring
  /// successors are physically adjacent wherever faults allow — the
  /// traffic stays on the band, which is what makes the droop-along-the-
  /// ring-path experiments directional.
  void rebuild_ring() {
    const TileGrid& grid = faults_.grid();
    int x0 = opts_.rect_x0, y0 = opts_.rect_y0;
    int x1 = opts_.rect_x1, y1 = opts_.rect_y1;
    if (x1 < x0 || y1 < y0) {
      x0 = 0;
      y0 = 0;
      x1 = grid.width() - 1;
      y1 = grid.height() - 1;
    }
    x0 = std::max(0, x0);
    y0 = std::max(0, y0);
    x1 = std::min(grid.width() - 1, x1);
    y1 = std::min(grid.height() - 1, y1);
    ring_.clear();
    for (int y = y0; y <= y1; ++y) {
      const bool reversed = ((y - y0) % 2) != 0;
      for (int i = 0; x0 + i <= x1; ++i) {
        const int x = reversed ? x1 - i : x0 + i;
        const TileCoord c{x, y};
        if (faults_.is_healthy(c)) ring_.push_back(c);
      }
    }
    if (op_cycles() > 0) cycle_in_op_ %= op_cycles();
  }

  AllReduceOptions opts_;
  FaultMap faults_;
  std::vector<TileCoord> ring_;
  std::uint64_t cycle_in_op_ = 0;
};

// --- halo exchange ----------------------------------------------------------

class HaloExchangeGenerator final : public TrafficGenerator {
 public:
  HaloExchangeGenerator(const WorkloadSpec& spec, const FaultMap& faults)
      : opts_(spec.halo), faults_(faults) {
    require(opts_.halo_period >= 4,
            "halo exchange: halo_period must be >= 4 (one wave per "
            "direction)");
  }

  const char* name() const override { return "halo-exchange"; }

  void emit(std::vector<Injection>& out) override {
    const std::uint64_t phase = cycle_ % opts_.halo_period;
    if (phase < 4) {
      const Direction d = kWaveOrder[phase];
      const TileGrid& grid = faults_.grid();
      grid.for_each([&](TileCoord src) {
        if (faults_.is_faulty(src)) return;
        const auto n = grid.neighbor(src, d);
        if (!n || faults_.is_faulty(*n)) return;
        out.push_back({src, *n, noc::PacketType::WriteRequest, cycle_});
      });
    }
    ++cycle_;
  }

  std::optional<std::uint64_t> next_scheduled_injections() const override {
    const std::uint64_t phase = cycle_ % opts_.halo_period;
    if (phase >= 4) return 0;
    const Direction d = kWaveOrder[phase];
    const TileGrid& grid = faults_.grid();
    std::uint64_t count = 0;
    grid.for_each([&](TileCoord src) {
      if (faults_.is_faulty(src)) return;
      const auto n = grid.neighbor(src, d);
      if (n && faults_.is_healthy(*n)) ++count;
    });
    return count;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGHX"));
    ckpt::save_fields(w, cycle_);
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGHX"), "halo exchange generator");
    ckpt::load_fields(r, cycle_);
  }

 private:
  static constexpr std::array<Direction, 4> kWaveOrder = {
      Direction::East, Direction::West, Direction::North, Direction::South};

  HaloOptions opts_;
  FaultMap faults_;
  std::uint64_t cycle_ = 0;
};

// --- layer pipeline ---------------------------------------------------------

class LayerPipelineGenerator final : public TrafficGenerator {
 public:
  LayerPipelineGenerator(const WorkloadSpec& spec, const SystemConfig& config,
                         const FaultMap& faults)
      : opts_(spec.pipeline), faults_(faults) {
    const TileGrid& grid = faults_.grid();
    require(opts_.stages >= 2, "layer pipeline: need at least 2 stages");
    require(opts_.stages <= grid.width(),
            "layer pipeline: more stages than columns");
    require(opts_.comm_cycles >= 1,
            "layer pipeline: comm_cycles must be >= 1");
    stages_ = opts_.stages;
    compute_cycles_ = opts_.compute_cycles;
    if (compute_cycles_ == 0) {
      // Core timing model: tiles_per_stage * cores_per_tile cores retire
      // one op per cycle, so a stage's layer takes ceil(flops / that).
      const double tiles_per_stage =
          static_cast<double>(grid.width() / stages_) *
          static_cast<double>(grid.height());
      const double ops_per_cycle =
          std::max(1.0, tiles_per_stage *
                            static_cast<double>(config.cores_per_tile));
      require(opts_.stage_flops > 0.0,
              "layer pipeline: stage_flops must be positive");
      compute_cycles_ = static_cast<std::uint64_t>(
          std::ceil(opts_.stage_flops / ops_per_cycle));
      if (compute_cycles_ == 0) compute_cycles_ = 1;
    }
    rebuild_routes();
  }

  const char* name() const override { return "layer-pipeline"; }

  void emit(std::vector<Injection>& out) override {
    if (communicating_now()) {
      for (const auto& [src, dst] : routes_)
        out.push_back({src, dst, noc::PacketType::WriteRequest, cycle_});
    }
    ++cycle_;
  }

  std::optional<std::uint64_t> next_scheduled_injections() const override {
    return communicating_now() ? routes_.size() : 0;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
    rebuild_routes();
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGLP"));
    ckpt::save_fields(w, cycle_);
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGLP"), "layer pipeline generator");
    ckpt::load_fields(r, cycle_);
  }

  std::uint64_t compute_cycles() const { return compute_cycles_; }

 private:
  bool communicating_now() const {
    return cycle_ % (compute_cycles_ + opts_.comm_cycles) >= compute_cycles_;
  }

  int stage_of(int x) const {
    const int band = faults_.grid().width() / stages_;
    return std::min(stages_ - 1, x / band);
  }

  /// Forward routes, one per healthy non-final-stage tile: to the first
  /// healthy tile of the next stage band scanning the same row west->east
  /// (activations flow to the layer that consumes them).
  void rebuild_routes() {
    routes_.clear();
    const TileGrid& grid = faults_.grid();
    const int band = grid.width() / stages_;
    grid.for_each([&](TileCoord src) {
      if (faults_.is_faulty(src)) return;
      const int s = stage_of(src.x);
      if (s >= stages_ - 1) return;
      const int nx0 = (s + 1) * band;
      const int nx1 =
          (s + 2 == stages_) ? grid.width() - 1 : (s + 2) * band - 1;
      for (int x = nx0; x <= nx1; ++x) {
        const TileCoord dst{x, src.y};
        if (faults_.is_healthy(dst)) {
          routes_.emplace_back(src, dst);
          return;
        }
      }
    });
  }

  LayerPipelineOptions opts_;
  FaultMap faults_;
  int stages_ = 2;
  std::uint64_t compute_cycles_ = 1;
  std::vector<std::pair<TileCoord, TileCoord>> routes_;
  std::uint64_t cycle_ = 0;
};

// --- spiking bursts ---------------------------------------------------------

class SpikingBurstGenerator final : public TrafficGenerator {
 public:
  SpikingBurstGenerator(const WorkloadSpec& spec, const FaultMap& faults)
      : opts_(spec.spiking),
        faults_(faults),
        rng_(spec.seed),
        background_(opts_.background_rate, rng_),
        healthy_(faults.healthy_tiles()) {
    require(opts_.background_rate >= 0.0 && opts_.background_rate <= 1.0,
            "spiking: background_rate must be a probability");
    require(opts_.burst_rate >= 0.0 && opts_.burst_rate <= 1.0,
            "spiking: burst_rate must be a probability");
    require(opts_.burst_cycles >= 1, "spiking: burst_cycles must be >= 1");
    require(opts_.burst_radius >= 0,
            "spiking: burst_radius must be non-negative");
    require(opts_.burst_intensity >= 0.0 && opts_.burst_intensity <= 1.0,
            "spiking: burst_intensity must be a probability");
  }

  const char* name() const override { return "spiking-burst"; }

  void emit(std::vector<Injection>& out) override {
    const TileGrid& grid = faults_.grid();
    // 1. Deterministic avalanche starts at the configured hotspot.
    if (opts_.burst_interval > 0 && cycle_ % opts_.burst_interval == 0 &&
        (opts_.max_bursts < 0 ||
         bursts_started_ < static_cast<std::uint64_t>(opts_.max_bursts))) {
      start_burst(opts_.hotspot);
    }
    // 2. Stochastic avalanche starts (Poisson-thinned).
    if (opts_.burst_rate > 0.0 && rng_.bernoulli(opts_.burst_rate))
      start_burst({-1, -1});
    // 3. Background firing: Bernoulli(background_rate) per healthy tile,
    //    visited by geometric gaps in grid order.
    background_.cycle(healthy_, rng_,
                      [&](TileCoord src) { spike(src, out); });
    // 4. Active avalanches: intensity decays linearly over burst_cycles.
    for (auto it = bursts_.begin(); it != bursts_.end();) {
      const std::uint64_t age = cycle_ - it->start_cycle;
      if (age >= opts_.burst_cycles) {
        it = bursts_.erase(it);
        continue;
      }
      const double p = opts_.burst_intensity *
                       (1.0 - static_cast<double>(age) /
                                  static_cast<double>(opts_.burst_cycles));
      const int r = opts_.burst_radius;
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          const TileCoord c{it->center.x + dx, it->center.y + dy};
          if (!grid.contains(c) || faults_.is_faulty(c)) continue;
          if (rng_.bernoulli(p)) spike(c, out);
        }
      }
      ++it;
    }
    ++cycle_;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
    healthy_ = faults_.healthy_tiles();
  }

  /// The checkpointed state, in frame order.
  friend auto fields(Of<SpikingBurstGenerator> auto& g) {
    return std::tie(g.rng_, g.background_.gap, g.cycle_, g.bursts_started_,
                    g.total_spikes_, g.bursts_);
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGSB"));
    ckpt::save_fields(w, fields(*this));
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGSB"), "spiking burst generator");
    ckpt::load_fields(r, fields(*this));
    for (const Burst& b : bursts_)
      if (!faults_.grid().contains(b.center))
        throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                          "burst centre outside the grid");
  }

  /// Spikes emitted so far — the seed-determinism probe: two generators
  /// with equal spec/faults report equal totals after equal cycle counts.
  std::uint64_t total_spikes() const { return total_spikes_; }
  std::size_t active_bursts() const { return bursts_.size(); }

 private:
  struct Burst {
    TileCoord center{0, 0};
    std::uint64_t start_cycle = 0;

    friend auto fields(Of<Burst> auto& b) {
      return std::tie(b.center, b.start_cycle);
    }
  };

  void start_burst(TileCoord center) {
    const TileGrid& grid = faults_.grid();
    if (!grid.contains(center) || faults_.is_faulty(center)) {
      // Random healthy centre (configured centre dead or unset).
      if (healthy_.empty()) return;
      center = healthy_[rng_.below(healthy_.size())];
    }
    bursts_.push_back({center, cycle_});
    ++bursts_started_;
  }

  /// One spike: a short-range message to a random healthy tile within
  /// distance 2 (dendritic fan-out stays local).  Unroutable draws are
  /// dropped after bounded attempts — the RNG consumption stays a pure
  /// function of the draw sequence either way.
  void spike(TileCoord src, std::vector<Injection>& out) {
    const TileGrid& grid = faults_.grid();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int dx = static_cast<int>(rng_.below(5)) - 2;
      const int dy = static_cast<int>(rng_.below(5)) - 2;
      const TileCoord dst{src.x + dx, src.y + dy};
      if (!grid.contains(dst) || faults_.is_faulty(dst) || dst == src)
        continue;
      out.push_back({src, dst, noc::PacketType::WriteRequest, cycle_});
      ++total_spikes_;
      return;
    }
  }

  SpikingOptions opts_;
  FaultMap faults_;
  Rng rng_;
  GeometricGaps background_;
  std::vector<TileCoord> healthy_;  ///< grid order
  std::uint64_t cycle_ = 0;
  std::uint64_t bursts_started_ = 0;
  std::uint64_t total_spikes_ = 0;
  std::vector<Burst> bursts_;
};

// --- graph wave -------------------------------------------------------------

class GraphWaveGenerator final : public TrafficGenerator {
 public:
  GraphWaveGenerator(const WorkloadSpec& spec, const FaultMap& faults)
      : opts_(spec.graph), faults_(faults) {
    require(opts_.scale >= 2 && opts_.scale <= 24,
            "graph wave: scale out of range");
    Rng graph_rng(opts_.graph_seed);
    graph_ = std::make_unique<Graph>(
        make_rmat_graph(opts_.scale, opts_.edges, opts_.max_weight,
                        graph_rng));
    require(opts_.source < graph_->vertex_count(),
            "graph wave: source vertex out of range");
    levels_ = reference_bfs(*graph_, opts_.source);
    rebuild_waves();
  }

  const char* name() const override { return "graph-wave"; }

  void emit(std::vector<Injection>& out) override {
    if (!waves_.empty()) {
      if (gap_remaining_ > 0) {
        --gap_remaining_;
        if (gap_remaining_ == 0) next_level();
      } else {
        const Wave& wave = waves_[level_index_];
        for (const auto& q : wave.queues)
          if (round_ < q.size()) out.push_back(q[round_]);
        if (++round_ >= wave.rounds()) {
          round_ = 0;
          if (opts_.compute_gap_cycles > 0)
            gap_remaining_ = opts_.compute_gap_cycles;
          else
            next_level();
        }
      }
    }
    ++cycle_;
  }

  std::optional<std::uint64_t> next_scheduled_injections() const override {
    if (waves_.empty() || gap_remaining_ > 0) return 0;
    const Wave& wave = waves_[level_index_];
    std::uint64_t count = 0;
    for (const auto& q : wave.queues)
      if (round_ < q.size()) ++count;
    return count;
  }

  void apply_fault_state(const FaultMap& faults) override {
    faults_ = faults;
    rebuild_waves();
  }

  /// The checkpointed state, in frame order.
  friend auto fields(Of<GraphWaveGenerator> auto& g) {
    return std::tie(g.cycle_, g.level_index_, g.round_, g.gap_remaining_);
  }

  void save_state(ckpt::Writer& w) const override {
    w.tag(ckpt::fourcc("TGGW"));
    ckpt::save_fields(w, fields(*this));
  }

  void load_state(ckpt::Reader& r) override {
    r.expect_tag(ckpt::fourcc("TGGW"), "graph wave generator");
    ckpt::load_fields(r, fields(*this));
    if (!waves_.empty()) {
      level_index_ %= waves_.size();
      const std::uint64_t rounds = waves_[level_index_].rounds();
      if (rounds > 0 && round_ >= rounds) round_ = 0;
    }
  }

  std::size_t level_count() const { return waves_.size(); }

 private:

  /// One frontier level's cross-tile messages, grouped per source tile.
  /// On round r each queue emits its r-th message, so a level lasts
  /// max-queue-length communicate cycles — the per-tile NoC port limit the
  /// message-passing runtime would impose.
  struct Wave {
    std::vector<std::vector<Injection>> queues;
    std::uint64_t rounds() const {
      std::size_t m = 0;
      for (const auto& q : queues) m = std::max(m, q.size());
      return m;
    }
  };

  void next_level() {
    level_index_ = (level_index_ + 1) % waves_.size();
    round_ = 0;
  }

  /// Rebuilds the per-level message waves from the current partition.  The
  /// graph and its BFS levels never change (they are workload structure,
  /// not wafer state); only the vertex->tile ownership moves with faults.
  void rebuild_waves() {
    waves_.clear();
    VertexPartition part(*graph_, faults_);
    std::uint32_t deepest = 0;
    for (const std::uint32_t l : levels_)
      if (l != kUnreachedDistance) deepest = std::max(deepest, l);
    for (std::uint32_t level = 0; level <= deepest; ++level) {
      Wave wave;
      // queue index per source tile, assigned in first-touch order over
      // the deterministic (vertex, edge) iteration.
      std::vector<int> slot(faults_.grid().tile_count(), -1);
      for (std::uint32_t v = 0; v < graph_->vertex_count(); ++v) {
        if (levels_[v] != level) continue;
        const TileCoord src = part.owner(v);
        const Graph::EdgeRange edges = graph_->out_edges(v);
        for (std::size_t e = 0; e < edges.count; ++e) {
          const std::uint32_t u = edges.targets[e];
          const TileCoord dst = part.owner(u);
          if (dst == src) continue;  // same-tile relaxation: no NoC hop
          const std::size_t si = faults_.grid().index_of(src);
          if (slot[si] < 0) {
            slot[si] = static_cast<int>(wave.queues.size());
            wave.queues.emplace_back();
          }
          const std::uint64_t payload =
              opts_.weighted ? edges.weights[e] : 1;
          wave.queues[static_cast<std::size_t>(slot[si])].push_back(
              {src, dst, noc::PacketType::WriteRequest, payload});
        }
      }
      if (!wave.queues.empty()) waves_.push_back(std::move(wave));
    }
    if (waves_.empty()) {
      level_index_ = 0;
      round_ = 0;
      gap_remaining_ = 0;
      return;
    }
    level_index_ %= waves_.size();
    const std::uint64_t rounds = waves_[level_index_].rounds();
    if (round_ >= rounds) round_ = rounds ? rounds - 1 : 0;
  }

  GraphWaveOptions opts_;
  FaultMap faults_;
  std::unique_ptr<Graph> graph_;
  std::vector<std::uint32_t> levels_;
  std::vector<Wave> waves_;
  std::uint64_t cycle_ = 0;
  std::uint64_t level_index_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t gap_remaining_ = 0;
};

}  // namespace

std::unique_ptr<TrafficGenerator> make_generator(const WorkloadSpec& spec,
                                                 const SystemConfig& config,
                                                 const FaultMap& faults) {
  require(faults.grid().width() == config.grid().width() &&
              faults.grid().height() == config.grid().height(),
          "workload generator: fault map grid must match the config grid");
  switch (spec.cls) {
    case WorkloadClass::Synthetic:
      return make_synthetic(spec.synthetic, faults, Rng(spec.seed));
    case WorkloadClass::AllReduceRing:
      return std::make_unique<AllReduceRingGenerator>(spec, faults);
    case WorkloadClass::HaloExchange:
      return std::make_unique<HaloExchangeGenerator>(spec, faults);
    case WorkloadClass::LayerPipeline:
      return std::make_unique<LayerPipelineGenerator>(spec, config, faults);
    case WorkloadClass::SpikingBurst:
      return std::make_unique<SpikingBurstGenerator>(spec, faults);
    case WorkloadClass::GraphWave:
      return std::make_unique<GraphWaveGenerator>(spec, faults);
  }
  throw wsp::Error("workload generator: unknown workload class");
}

std::unique_ptr<TrafficGenerator> make_synthetic(
    const noc::TrafficConfig& config, const FaultMap& faults, Rng rng) {
  return std::make_unique<SyntheticGenerator>(config, faults, std::move(rng));
}

// --- NocSystem driver -------------------------------------------------------

TrafficDriver::TrafficDriver(noc::NocSystem& noc, TrafficGenerator& gen)
    : noc_(noc),
      gen_(gen),
      start_cycle_(noc.now()),
      start_(noc.stats()) {}

void TrafficDriver::step() {
  pending_.clear();
  gen_.emit(pending_);
  injections_ += pending_.size();
  for (const Injection& inj : pending_) {
    if (inj.dst != inj.src)
      (void)noc_.issue(inj.src, inj.dst, inj.type, inj.payload);
  }
  noc_.step(done_);
  record();
}

void TrafficDriver::drain() {
  noc_.drain(done_);
  record();
}

void TrafficDriver::record() {
  records_.clear();
  for (const noc::CompletedTransaction& t : done_) {
    records_.i32(t.src.x);
    records_.i32(t.src.y);
    records_.i32(t.dst.x);
    records_.i32(t.dst.y);
    records_.u64(t.issue_cycle);
    records_.u64(t.complete_cycle);
    records_.b(t.relayed);
    if (t.issue_cycle >= start_cycle_) latency_.record(t.latency());
  }
  digest_ =
      ckpt::crc32_update(digest_, records_.bytes().data(), records_.size());
  done_.clear();
}

noc::TrafficReport TrafficDriver::report(std::uint64_t cycles) const {
  const noc::NocStats now = noc_.stats();
  noc::TrafficReport r;
  r.cycles = cycles;
  r.issued = now.issued - start_.issued;
  r.completed = now.completed - start_.completed;
  r.unreachable = now.unreachable - start_.unreachable;
  r.offered_load = cycles ? static_cast<double>(r.issued) / cycles : 0.0;
  r.throughput = cycles ? static_cast<double>(r.completed) / cycles : 0.0;
  noc::finalize_latencies(r, latency_);
  return r;
}

void TrafficDriver::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("TDRV"));
  ckpt::save_fields(w, fields(*this));
}

void TrafficDriver::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("TDRV"), "traffic driver");
  ckpt::load_fields(r, fields(*this));
}

WorkloadRunResult run_workload_traffic(noc::NocSystem& noc,
                                       TrafficGenerator& gen,
                                       std::uint64_t cycles,
                                       obs::MetricsRegistry* registry,
                                       bool drain) {
  WSP_TRACE_SPAN("workloads.traffic.run");
  TrafficDriver driver(noc, gen);
  for (std::uint64_t c = 0; c < cycles; ++c) driver.step();
  if (drain) driver.drain();

  WorkloadRunResult result;
  result.report = driver.report(cycles);
  result.delivery_digest = driver.delivery_digest();
  result.injections = driver.injections();

  if (registry) {
    const std::string prefix = std::string("workloads.") + gen.name();
    registry->counter(prefix + ".injected").add(result.injections);
    registry->counter(prefix + ".completed").add(result.report.completed);
    registry->histogram(prefix + ".latency").merge(driver.latencies());
  }
  return result;
}

}  // namespace wsp::workloads

#include "wsp/pdn/wafer_pdn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::pdn {

WaferPdn::WaferPdn(const SystemConfig& config, const WaferPdnOptions& options)
    : config_(config), options_(options), ldo_(options.ldo),
      grid_(build_grid()) {}

double WaferPdn::loop_sheet_resistance() const {
  // VDD and ground planes in series for the current loop, each slotted.
  const double per_plane = config_.copper_sheet_resistance_ohm_per_sq *
                           options_.plane_slotting_factor;
  return 2.0 * per_plane;
}

ResistiveGrid WaferPdn::build_grid() const {
  config_.validate();
  require(options_.nodes_per_tile >= 1, "nodes_per_tile must be >= 1");
  require(options_.plane_slotting_factor >= 1.0,
          "slotting can only increase sheet resistance");
  const int k = options_.nodes_per_tile;
  // Plane discretisation: node spacing dx x dy; the conductance of an edge
  // spanning dx with strip width dy is (1/Rs) * dy / dx.  The powered
  // edges are held at the edge supply voltage (connectors are modelled as
  // ideal; connector resistance would simply shift the whole profile).
  const double dx = config_.geometry.tile_pitch_x_m() / k;
  const double dy = config_.geometry.tile_pitch_y_m() / k;
  const double rs = loop_sheet_resistance();
  return ResistiveGrid({.width = config_.array_width * k,
                        .height = config_.array_height * k,
                        .gx = (1.0 / rs) * (dy / dx),
                        .gy = (1.0 / rs) * (dx / dy),
                        .powered_edges = options_.powered_edges,
                        .edge_v = config_.edge_supply_voltage_v});
}

namespace {

/// Shared precondition for every power-map entry point: silent NaNs or
/// negative watts used to propagate into the solver and come back out as
/// plausible-looking garbage voltages.
void validate_power_map(const std::vector<double>& tile_power_w,
                        std::size_t tile_count) {
  require(tile_power_w.size() == tile_count,
          "tile power vector size mismatch");
  for (const double p : tile_power_w)
    require(std::isfinite(p) && p >= 0.0,
            "tile power must be finite and non-negative");
}

}  // namespace

PdnReport WaferPdn::solve_uniform(double activity) {
  require(std::isfinite(activity), "activity must be finite");
  require(activity >= 0.0 && activity <= 1.0, "activity must be in [0,1]");
  std::vector<double> power(
      static_cast<std::size_t>(config_.total_tiles()),
      activity * config_.tile_peak_power_w);
  return solve(power);
}

void WaferPdn::scatter_sinks(const std::vector<double>& tile_power_w,
                             std::vector<double>& node_sink) const {
  const TileGrid tiles = config_.grid();
  const int k = options_.nodes_per_tile;
  const double nodes_per_tile = static_cast<double>(k) * k;
  node_sink.assign(grid_.node_count(), 0.0);
  for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
    const TileCoord c = tiles.coord_of(i);
    const double tile_current =
        load_current(tile_power_w[i]) +
        (tile_power_w[i] > 0.0 ? options_.ldo.quiescent_a : 0.0);
    const double per_node = tile_current / nodes_per_tile;
    for (int sy = 0; sy < k; ++sy)
      for (int sx = 0; sx < k; ++sx)
        node_sink[grid_.index(c.x * k + sx, c.y * k + sy)] = per_node;
  }
}

PdnReport WaferPdn::solve(const std::vector<double>& tile_power_w) {
  // A one-map cold batch: the zero seed makes every solve independent of
  // what the cached grid solved before.
  std::vector<double> seed;
  return solve_batch_warm(std::span(&tile_power_w, 1), std::span(&seed, 1))[0];
}

std::vector<PdnReport> WaferPdn::solve_batch(
    const std::vector<std::vector<double>>& tile_power_maps) {
  // Cold start: throwaway zero seeds, same code path as the warm variant.
  std::vector<std::vector<double>> seeds(tile_power_maps.size());
  return solve_batch_warm(tile_power_maps, seeds, nullptr);
}

std::vector<PdnReport> WaferPdn::solve_batch_warm(
    std::span<const std::vector<double>> tile_power_maps,
    std::span<std::vector<double>> seeds,
    std::vector<SolveStats>* stats_out) {
  WSP_TRACE_SPAN("pdn.wafer.solve_batch");
  const TileGrid tiles = config_.grid();
  const std::size_t n = tile_power_maps.size();
  const std::size_t nodes = grid_.node_count();
  require(seeds.size() == n, "warm-start seed count must match power maps");

  // Stage every right-hand side: per-map node sinks plus the caller's seed
  // voltages (solve_batch itself re-seeds the Dirichlet entries, so a
  // stale or zero seed can never corrupt the boundary conditions).
  std::vector<std::vector<double>> sinks(n);
  std::vector<RhsView> rhs(n);
  for (std::size_t m = 0; m < n; ++m) {
    validate_power_map(tile_power_maps[m], tiles.tile_count());
    if (seeds[m].empty())
      seeds[m].assign(nodes, 0.0);
    else
      require(seeds[m].size() == nodes,
              "warm-start seed length must equal node_count()");
    scatter_sinks(tile_power_maps[m], sinks[m]);
    rhs[m] = RhsView{sinks[m], std::span<double>(seeds[m])};
  }

  std::vector<SolveStats> stats(n);
  grid_.solve_batch(rhs, stats, options_.solver_tol);
  if (stats_out != nullptr) *stats_out = stats;

  std::vector<PdnReport> reports;
  reports.reserve(n);
  for (std::size_t m = 0; m < n; ++m)
    reports.push_back(
        extract_report(rhs[m].v, rhs[m].sink, tile_power_maps[m], stats[m]));
  return reports;
}

PdnReport WaferPdn::extract_report(std::span<const double> node_v,
                                   std::span<const double> node_sink,
                                   const std::vector<double>& tile_power_w,
                                   const SolveStats& stats) const {
  const TileGrid tiles = config_.grid();
  const int k = options_.nodes_per_tile;

  PdnReport report;
  report.solver_converged = stats.converged;
  report.tiles.resize(tiles.tile_count());

  report.min_supply_v = std::numeric_limits<double>::infinity();
  report.max_supply_v = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
    const TileCoord c = tiles.coord_of(i);
    // Tile supply voltage: mean of its solver nodes.
    double v = 0.0;
    for (int sy = 0; sy < k; ++sy)
      for (int sx = 0; sx < k; ++sx)
        v += node_v[grid_.index(c.x * k + sx, c.y * k + sy)];
    v /= static_cast<double>(k) * k;

    TilePower& tp = report.tiles[i];
    tp.supply_v = v;
    const double i_load = load_current(tile_power_w[i]);
    const LdoOperatingPoint op = ldo_.evaluate(v, i_load);
    tp.regulated_v = op.v_out;
    tp.in_regulation = op.in_regulation;
    // An unpowered tile's LDO is off: scatter_sinks() sank no quiescent
    // current for it, so it draws nothing from the plane and dissipates
    // nothing.  Its regulated_v stays as evaluated (link BER reads it).
    if (tile_power_w[i] > 0.0) {
      tp.plane_current_a = op.i_in;
      tp.ldo_loss_w = op.power_loss_w;
    }

    report.min_supply_v = std::min(report.min_supply_v, v);
    report.max_supply_v = std::max(report.max_supply_v, v);
    report.ldo_loss_w += tp.ldo_loss_w;
    report.delivered_power_w += op.v_out * i_load;
    if (!op.in_regulation) ++report.tiles_out_of_regulation;
  }

  report.total_supply_current_a =
      grid_.total_supply_current(node_v, node_sink);
  report.plane_loss_w = grid_.dissipated_power(node_v);
  report.total_input_power_w =
      report.total_supply_current_a * config_.edge_supply_voltage_v;
  report.efficiency = report.total_input_power_w > 0.0
                          ? report.delivered_power_w / report.total_input_power_w
                          : 0.0;

  // Energy balance.  Internal edge currents cancel in pairs, and each
  // tile's sink times its mean voltage is its LDO's delivered + loss, so
  // input − (delivered + plane + LDO loss) = Σ r_i·v_i over the free
  // nodes' KCL residuals r_i: at most max|v| · nodes · residual, plus the
  // round-off of summing the four terms.
  if (stats.converged) {
    const double terms[] = {report.total_input_power_w,
                            report.delivered_power_w, report.plane_loss_w,
                            report.ldo_loss_w};
    double max_v = 0.0;
    for (const double v : node_v) max_v = std::max(max_v, std::abs(v));
    const double nodes = static_cast<double>(node_v.size());
    double magnitude = 0.0;
    for (const double t : terms) magnitude += std::abs(t);
    const double bound =
        max_v * nodes * stats.residual +
        nodes * std::numeric_limits<double>::epsilon() * magnitude;
    require(std::abs(terms[0] - terms[1] - terms[2] - terms[3]) <= bound,
            "PDN energy balance exceeds the solve's residual bound");
  }
  if (metrics_ != nullptr) {
    metrics_->counter("pdn.solves").add();
    metrics_->gauge("pdn.min_supply_v").set(report.min_supply_v);
    metrics_->gauge("pdn.max_supply_v").set(report.max_supply_v);
    metrics_->gauge("pdn.total_supply_current_a")
        .set(report.total_supply_current_a);
    metrics_->gauge("pdn.plane_loss_w").set(report.plane_loss_w);
    metrics_->gauge("pdn.ldo_loss_w").set(report.ldo_loss_w);
    metrics_->gauge("pdn.efficiency").set(report.efficiency);
    metrics_->gauge("pdn.tiles_out_of_regulation")
        .set(static_cast<double>(report.tiles_out_of_regulation));
  }
  return report;
}

std::vector<double> WaferPdn::midline_profile(const PdnReport& report,
                                              const TileGrid& grid) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(grid.width()));
  const int y = grid.height() / 2;
  for (int x = 0; x < grid.width(); ++x)
    out.push_back(report.tiles[grid.index_of({x, y})].supply_v);
  return out;
}

std::vector<double> WaferPdn::ring_profile(const PdnReport& report,
                                           const TileGrid& grid) {
  const int max_ring = std::min(grid.width(), grid.height()) / 2;
  std::vector<double> sum(static_cast<std::size_t>(max_ring) + 1, 0.0);
  std::vector<int> count(static_cast<std::size_t>(max_ring) + 1, 0);
  grid.for_each([&](TileCoord c) {
    const int ring = std::min(grid.distance_to_edge(c), max_ring);
    sum[ring] += report.tiles[grid.index_of(c)].supply_v;
    ++count[ring];
  });
  std::vector<double> out;
  out.reserve(sum.size());
  for (std::size_t i = 0; i < sum.size(); ++i)
    out.push_back(count[i] > 0 ? sum[i] / count[i] : 0.0);
  return out;
}

}  // namespace wsp::pdn

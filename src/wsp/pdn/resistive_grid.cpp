#include "wsp/pdn/resistive_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "wsp/common/error.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/pdn/multigrid.hpp"

namespace wsp::pdn {

bool GridSheet::is_dirichlet(int x, int y) const {
  const auto& pe = powered_edges;
  return (pe[static_cast<int>(Direction::North)] && y == height - 1) ||
         (pe[static_cast<int>(Direction::East)] && x == width - 1) ||
         (pe[static_cast<int>(Direction::South)] && y == 0) ||
         (pe[static_cast<int>(Direction::West)] && x == 0);
}

ResistiveGrid::ResistiveGrid(const GridSheet& sheet) : sheet_(sheet) {
  require(sheet.width >= 2 && sheet.height >= 2,
          "ResistiveGrid needs at least 2x2 nodes");
  require(sheet.gx > 0.0 && sheet.gy > 0.0,
          "sheet conductances must be positive");
  require(sheet.shunt_g >= 0.0, "shunt conductance must be non-negative");
  const auto& pe = sheet.powered_edges;
  require(pe[0] || pe[1] || pe[2] || pe[3] || sheet.shunt_g > 0.0,
          "a sheet needs a powered edge or a shunt to be grounded");
}

// Out-of-line where MultigridHierarchy is complete.
ResistiveGrid::~ResistiveGrid() = default;
ResistiveGrid::ResistiveGrid(ResistiveGrid&&) noexcept = default;
ResistiveGrid& ResistiveGrid::operator=(ResistiveGrid&&) noexcept = default;

void ResistiveGrid::bind_metrics(obs::MetricsRegistry* registry,
                                 const std::string& prefix) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.solves = &registry->counter(prefix + "solves");
  metrics_.iterations = &registry->counter(prefix + "iterations");
  metrics_.converged = &registry->counter(prefix + "converged");
  metrics_.residual_a = &registry->gauge(prefix + "residual_a");
  metrics_.max_delta_v = &registry->gauge(prefix + "max_delta_v");
}

void ResistiveGrid::record_solve(const SolveStats& stats) {
  if (metrics_.solves == nullptr) return;
  metrics_.solves->add();
  metrics_.iterations->add(static_cast<std::uint64_t>(stats.iterations));
  if (stats.converged) metrics_.converged->add();
  metrics_.residual_a->set(stats.residual);
  metrics_.max_delta_v->set(stats.max_delta_v);
}

SolveStats ResistiveGrid::solve_on(std::span<double> v,
                                   std::span<const double> sink, double tol) {
  WSP_TRACE_SPAN("pdn.grid.solve");
  require(tol > 0.0, "solver tol must be positive");
  SolveStats stats;
  // The bootstrap counts as the first iteration.  If its correction is
  // already below tol, the seed met tol: restore it and report 0
  // iterations, so re-solving a converged state returns it byte for byte
  // instead of taking one more step of a round-off random walk.
  std::copy(v.begin(), v.end(), seed_.begin());
  stats.max_delta_v = hierarchy_->fmg_bootstrap(v.data(), sink.data());
  stats.iterations = 1;
  stats.converged = stats.max_delta_v < tol;
  if (stats.converged) {
    std::copy(seed_.begin(), seed_.end(), v.begin());
    stats.iterations = 0;
  } else {
    double prev_delta = 0.0;
    for (int it = stats.iterations; it < kMaxCycles; ++it) {
      const double max_delta = hierarchy_->v_cycle(v.data(), sink.data());
      stats.iterations = it + 1;
      stats.max_delta_v = max_delta;
      if (max_delta < tol) {
        stats.converged = true;
        break;
      }
      // For a linearly converging iteration the remaining error after an
      // update of size d is bounded by d * rho / (1 - rho).  A V-cycle
      // contracts at a grid-size-independent rho ~ 0.05, so once two
      // consecutive cycles establish the rate, the solve can stop as soon
      // as the *error* estimate clears tol instead of burning one more
      // cycle pushing the update itself below it.  The clamp keeps the
      // estimate meaningful (and positive) while the rate is still
      // settling or the iteration is not contracting.
      if (prev_delta > 0.0 && max_delta < prev_delta) {
        const double rho = std::min(max_delta / prev_delta, 0.5);
        if (max_delta * rho / (1.0 - rho) < tol) {
          stats.converged = true;
          break;
        }
      }
      prev_delta = max_delta;
    }
  }
  stats.fine_sweep_equivalents =
      hierarchy_->fmg_sweep_equivalents() +
      std::max(stats.iterations - 1, 0) *
          hierarchy_->sweep_equivalents_per_cycle();
  stats.residual = hierarchy_->max_kcl_residual(v.data(), sink.data());
  return stats;
}

SolveStats ResistiveGrid::solve(std::span<const double> sink,
                                std::span<double> v, double tol) {
  const RhsView rhs{sink, v};
  SolveStats stats;
  solve_batch(std::span(&rhs, 1), std::span(&stats, 1), tol);
  return stats;
}

void ResistiveGrid::solve_batch(std::span<const RhsView> rhs,
                                std::span<SolveStats> stats, double tol) {
  WSP_TRACE_SPAN("pdn.solve_batch");
  require(stats.size() == rhs.size(),
          "solve_batch needs one SolveStats per RhsView");
  const std::size_t nodes = node_count();
  for (const RhsView& r : rhs) {
    require(r.sink.size() == nodes && r.v.size() == nodes,
            "RhsView spans must cover every grid node");
  }
  if (hierarchy_ == nullptr) {
    hierarchy_ = std::make_unique<MultigridHierarchy>(sheet_);
    seed_.resize(nodes);
  }

  // Reset the Dirichlet entries (the powered edges) of every seed to the
  // edge voltage up front — the solvers assume they hold and never write
  // them.
  const auto& pe = sheet_.powered_edges;
  const double edge_v = sheet_.edge_v;
  for (const RhsView& r : rhs) {
    for (int x = 0; x < width(); ++x) {
      if (pe[static_cast<int>(Direction::North)])
        r.v[index(x, height() - 1)] = edge_v;
      if (pe[static_cast<int>(Direction::South)]) r.v[index(x, 0)] = edge_v;
    }
    for (int y = 0; y < height(); ++y) {
      if (pe[static_cast<int>(Direction::East)])
        r.v[index(width() - 1, y)] = edge_v;
      if (pe[static_cast<int>(Direction::West)]) r.v[index(0, y)] = edge_v;
    }
  }

  // Serial per right-hand side: every solve shares the one hierarchy.
  for (std::size_t k = 0; k < rhs.size(); ++k)
    stats[k] = solve_on(rhs[k].v, rhs[k].sink, tol);
  for (const SolveStats& s : stats) record_solve(s);
}

double ResistiveGrid::total_supply_current(std::span<const double> v,
                                           std::span<const double> sink) const {
  // Current flowing out of every Dirichlet node into the grid.
  const double gx = sheet_.gx;
  const double gy = sheet_.gy;
  const auto w = static_cast<std::size_t>(width());
  double total = 0.0;
  for (int y = 0; y < height(); ++y) {
    for (int x = 0; x < width(); ++x) {
      if (!sheet_.is_dirichlet(x, y)) continue;
      const auto i = index(x, y);
      double out = 0.0;
      if (x > 0) out += gx * (v[i] - v[i - 1]);
      if (x < width() - 1) out += gx * (v[i] - v[i + 1]);
      if (y > 0) out += gy * (v[i] - v[i - w]);
      if (y < height() - 1) out += gy * (v[i] - v[i + w]);
      // Subtract any sink placed directly on the Dirichlet node.
      total += out + sink[i];
    }
  }
  return total;
}

double ResistiveGrid::dissipated_power(std::span<const double> v) const {
  double p = 0.0;
  for (int y = 0; y < height(); ++y) {
    for (int x = 0; x < width() - 1; ++x) {
      const double dv = v[index(x, y)] - v[index(x + 1, y)];
      p += sheet_.gx * dv * dv;
    }
  }
  for (int y = 0; y < height() - 1; ++y) {
    for (int x = 0; x < width(); ++x) {
      const double dv = v[index(x, y)] - v[index(x, y + 1)];
      p += sheet_.gy * dv * dv;
    }
  }
  return p;
}

}  // namespace wsp::pdn

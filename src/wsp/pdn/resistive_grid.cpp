#include "wsp/pdn/resistive_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/pdn/multigrid.hpp"

namespace wsp::pdn {

ResistiveGrid::ResistiveGrid(int width, int height)
    : width_(width), height_(height) {
  require(width >= 2 && height >= 2, "ResistiveGrid needs at least 2x2 nodes");
  const auto nodes = static_cast<std::size_t>(width) * height;
  g_east_.assign(static_cast<std::size_t>(width - 1) * height, 0.0);
  g_north_.assign(static_cast<std::size_t>(width) * (height - 1), 0.0);
  sink_.assign(nodes, 0.0);
  shunt_g_.assign(nodes, 0.0);
  shunt_v_.assign(nodes, 0.0);
  dirichlet_.assign(nodes, 0);
  v_.assign(nodes, 0.0);
}

// Out-of-line where MultigridHierarchy is complete.
ResistiveGrid::~ResistiveGrid() = default;
ResistiveGrid::ResistiveGrid(ResistiveGrid&&) noexcept = default;
ResistiveGrid& ResistiveGrid::operator=(ResistiveGrid&&) noexcept = default;

void ResistiveGrid::set_conductance_east(int x, int y, double siemens) {
  require(x >= 0 && x < width_ - 1 && y >= 0 && y < height_,
          "east edge out of range");
  require(siemens >= 0.0, "conductance must be non-negative");
  g_east_[east_index(x, y)] = siemens;
  invalidate_topology();
}

void ResistiveGrid::set_conductance_north(int x, int y, double siemens) {
  require(x >= 0 && x < width_ && y >= 0 && y < height_ - 1,
          "north edge out of range");
  require(siemens >= 0.0, "conductance must be non-negative");
  g_north_[north_index(x, y)] = siemens;
  invalidate_topology();
}

void ResistiveGrid::fill_conductances(double gx, double gy) {
  std::fill(g_east_.begin(), g_east_.end(), gx);
  std::fill(g_north_.begin(), g_north_.end(), gy);
  invalidate_topology();
}

void ResistiveGrid::set_dirichlet(int x, int y, double volts) {
  const auto i = index(x, y);
  dirichlet_[i] = 1;
  v_[i] = volts;
  invalidate_topology();
}

void ResistiveGrid::clear_dirichlet(int x, int y) {
  dirichlet_[index(x, y)] = 0;
  invalidate_topology();
}

void ResistiveGrid::set_current_sink(int x, int y, double amperes) {
  // Sinks enter only the right-hand side (read live during sweeps), so the
  // multigrid hierarchy survives per-solve load updates.
  sink_[index(x, y)] = amperes;
}

void ResistiveGrid::set_current_sinks(const std::vector<double>& amperes) {
  require(amperes.size() == sink_.size(),
          "sink vector must cover every grid node");
  sink_ = amperes;  // right-hand side only: the hierarchy survives
}

void ResistiveGrid::set_shunt(int x, int y, double siemens, double v_ref) {
  require(siemens >= 0.0, "shunt conductance must be non-negative");
  const auto i = index(x, y);
  shunt_g_[i] = siemens;
  shunt_v_[i] = v_ref;
  invalidate_topology();
}

std::vector<char> ResistiveGrid::grounded_nodes() const {
  // Flood fill over conducting edges from every Dirichlet or shunted node.
  std::vector<char> grounded(node_count(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < grounded.size(); ++i)
    if (dirichlet_[i] || shunt_g_[i] > 0.0) {
      grounded[i] = 1;
      stack.push_back(i);
    }
  const auto w = static_cast<std::size_t>(width_);
  auto visit = [&](std::size_t j, double g) {
    if (g > 0.0 && !grounded[j]) {
      grounded[j] = 1;
      stack.push_back(j);
    }
  };
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    const int x = static_cast<int>(i % w);
    const int y = static_cast<int>(i / w);
    if (x > 0) visit(i - 1, g_east_[east_index(x - 1, y)]);
    if (x < width_ - 1) visit(i + 1, g_east_[east_index(x, y)]);
    if (y > 0) visit(i - w, g_north_[north_index(x, y - 1)]);
    if (y < height_ - 1) visit(i + w, g_north_[north_index(x, y)]);
  }
  return grounded;
}

void ResistiveGrid::invalidate_topology() {
  hierarchy_.reset();
  seed_ = {};
}

void ResistiveGrid::prepare_solvers() {
  if (hierarchy_ != nullptr) return;
  hierarchy_ = std::make_unique<MultigridHierarchy>(*this);
  seed_.resize(node_count());
}

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

SolveStats ResistiveGrid::solve(double tol) {
  prepare_solvers();
  const SolveStats stats = solve_on(v_, sink_, tol);
  record_solve(stats);
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
  prepare_solvers();

  // Reset the Dirichlet entries of every seed from the grid's fixed values
  // up front — the solvers assume they hold and never write them.
  for (const RhsView& r : rhs) {
    for (std::size_t i = 0; i < nodes; ++i)
      if (dirichlet_[i]) r.v[i] = v_[i];
  }

  // Serial per right-hand side: every solve shares the one prepared
  // hierarchy and is bit-identical to a solve(tol) on that RHS.
  for (std::size_t k = 0; k < rhs.size(); ++k)
    stats[k] = solve_on(rhs[k].v, rhs[k].sink, tol);
  for (const SolveStats& s : stats) record_solve(s);
}

void ResistiveGrid::reset_voltages(double volts) {
  for (std::size_t i = 0; i < v_.size(); ++i)
    if (!dirichlet_[i]) v_[i] = volts;
}

double ResistiveGrid::total_supply_current(std::span<const double> v,
                                           std::span<const double> sink) const {
  // Current flowing out of every Dirichlet node into the grid.
  double total = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const auto i = index(x, y);
      if (!dirichlet_[i]) continue;
      double out = 0.0;
      if (x > 0)
        out += g_east_[east_index(x - 1, y)] * (v[i] - v[i - 1]);
      if (x < width_ - 1)
        out += g_east_[east_index(x, y)] * (v[i] - v[i + 1]);
      if (y > 0)
        out += g_north_[north_index(x, y - 1)] *
               (v[i] - v[i - static_cast<std::size_t>(width_)]);
      if (y < height_ - 1)
        out += g_north_[north_index(x, y)] *
               (v[i] - v[i + static_cast<std::size_t>(width_)]);
      // Subtract any sink placed directly on the Dirichlet node.
      total += out + sink[i];
    }
  }
  return total;
}

double ResistiveGrid::dissipated_power(std::span<const double> v) const {
  double p = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_ - 1; ++x) {
      const double dv = v[index(x, y)] - v[index(x + 1, y)];
      p += g_east_[east_index(x, y)] * dv * dv;
    }
  }
  for (int y = 0; y < height_ - 1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const double dv = v[index(x, y)] - v[index(x, y + 1)];
      p += g_north_[north_index(x, y)] * dv * dv;
    }
  }
  return p;
}

}  // namespace wsp::pdn

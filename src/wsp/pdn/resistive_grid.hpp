// Discretised resistive power-plane solver.
//
// The Si-IF substrate dedicates its bottom two metal layers to power: one
// VDD plane and one ground plane, each a 2 um-thick slotted copper sheet
// (Sec. VIII).  Power enters at the wafer edge (Sec. III) and every tile
// draws load current through its LDO.  IR droop across the planes is what
// produces the paper's Fig. 2 profile: 2.5 V at the edge falling to about
// 1.4 V at the center of the wafer at peak draw.
//
// The grid is one uniform sheet: every east edge has conductance gx, every
// north edge gy, the powered edges are held at one edge voltage, and every
// node may have the same shunt to one reference.  The PDN planes are the
// sheet fed at its powered edges; the thermal model (the solver doubles as
// a heat-spreader model by duality) is the sheet with a shunt to ambient
// at every node.  The topology is fixed at construction and the grid holds
// no solution: every solve reads the caller's sinks and writes the
// caller's voltage buffer.
//
// Solves run geometric multigrid V-cycles with a full-multigrid start (see
// multigrid.hpp).  Every level smooths with a red-black (checkerboard-
// ordered) relaxation sweep: nodes of one color only ever read the other
// color's values within a half-sweep, so the update is independent of
// traversal order.  Every solve runs serially on its calling thread.  The
// hierarchy holds every level's operator as row-major plane arrays, and
// its solve scratch; it is built on the first solve and kept for the
// grid's lifetime, so every later solve and batch reuses it.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "wsp/obs/metrics.hpp"

namespace wsp::pdn {

class MultigridHierarchy;

/// Result of a grid solve.
struct SolveStats {
  /// Multigrid V-cycles, FMG start included.  0 means the seed already
  /// met tol: the FMG start's update was below it, so the seed is
  /// returned unchanged (re-solving a converged state is idempotent).
  int iterations = 0;
  /// Max |Kirchhoff current-law residual| over non-Dirichlet nodes at exit,
  /// amperes: how much current each nodal balance fails to conserve.
  double residual = 0.0;
  /// Max update applied to any node over the final V-cycle, volts — the
  /// quantity `tol` is compared against.
  double max_delta_v = 0.0;
  bool converged = false;
  /// Total smoothing work in units of one full fine-grid red+black sweep:
  /// every level's sweeps, residual and transfer passes, weighted by level
  /// size.  The FMG start is charged even when its update is discarded.
  double fine_sweep_equivalents = 0.0;
};

/// One right-hand side of a batched solve: a per-node sink vector and the
/// caller-owned voltage buffer it solves into (seeded with the initial
/// guess; Dirichlet entries are overwritten with the edge voltage).
/// Both spans must cover node_count() entries.
struct RhsView {
  std::span<const double> sink;  ///< amperes out of each node
  std::span<double> v;           ///< in: seed, out: solution
};

/// The whole topology of a grid: a uniform width x height sheet.  Units:
/// volts, amperes, siemens.
struct GridSheet {
  int width = 0;
  int height = 0;
  double gx = 0.0;  ///< every edge (x,y)-(x+1,y); must be > 0
  double gy = 0.0;  ///< every edge (x,y)-(x,y+1); must be > 0
  /// Edges whose nodes are held at edge_v, indexed by Direction (N, E, S,
  /// W): north is the row y = height-1, south y = 0, west x = 0.
  std::array<bool, 4> powered_edges{};
  double edge_v = 0.0;
  /// Conductance from every node to shunt_ref (0 = no shunt).
  /// Electrically a load to ground; thermally the vertical path to the
  /// cold plate at ambient temperature.
  double shunt_g = 0.0;
  double shunt_ref = 0.0;

  /// True if node (x,y) lies on a powered edge.
  bool is_dirichlet(int x, int y) const;
};

/// Rectangular grid of nodes connected by resistors to their 4-neighbours.
///
/// Node (x, y) has index y*width+x.  Sinks draw current out of nodes;
/// powered-edge (Dirichlet) nodes are held at the edge voltage.
class ResistiveGrid {
 public:
  /// Throws wsp::Error unless the sheet is at least 2x2, gx and gy are
  /// > 0, the shunt is >= 0, and at least one edge is powered or the
  /// shunt is > 0 (otherwise the nodal system has no unique solution).
  explicit ResistiveGrid(const GridSheet& sheet);
  // Out-of-line so the cached MultigridHierarchy can stay an incomplete
  // type here; moves transfer the caches, copies are disabled.
  ~ResistiveGrid();
  ResistiveGrid(ResistiveGrid&&) noexcept;
  ResistiveGrid& operator=(ResistiveGrid&&) noexcept;

  const GridSheet& sheet() const { return sheet_; }
  int width() const { return sheet_.width; }
  int height() const { return sheet_.height; }
  std::size_t node_count() const {
    return static_cast<std::size_t>(sheet_.width) *
           static_cast<std::size_t>(sheet_.height);
  }

  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width()) +
           static_cast<std::size_t>(x);
  }

  /// Solves the nodal system for `sink` (amperes out of each node;
  /// negative values inject) into `v` by multigrid: a full-multigrid
  /// start, then V(1,1) cycles until the max per-node update (or the
  /// error bound the observed contraction puts on it) drops below `tol`
  /// volts, at most kMaxCycles iterations.  `v` holds the seed on entry
  /// (its Dirichlet entries are reset to the edge voltage first) and the
  /// solution on return; a seed the FMG start moves by less than `tol` is
  /// kept as is (iterations == 0).  The single-RHS form of solve_batch.
  /// Both spans must cover node_count() entries; throws unless tol > 0.
  SolveStats solve(std::span<const double> sink, std::span<double> v,
                   double tol = 1e-7);

  /// Iteration cap of one solve, FMG start included.  Convergence is
  /// grid-size-independent, so a converged solve takes ~6-10 cycles at
  /// any resolution; the cap only stops a solve that cannot converge.
  static constexpr int kMaxCycles = 60;

  /// Solves many independent right-hand sides, serially in order,
  /// amortizing one hierarchy over the whole batch.  Each rhs[i] is solved
  /// exactly as solve(rhs[i].sink, rhs[i].v, tol) would, and stats[i]
  /// reports it.  The first solve of the grid's lifetime builds the
  /// hierarchy.  Bit-identical for every thread count.
  /// Requires stats.size() == rhs.size().
  void solve_batch(std::span<const RhsView> rhs, std::span<SolveStats> stats,
                   double tol = 1e-7);

  /// Binds solver metrics into `registry` under `prefix`: counters
  /// <prefix>solves / <prefix>iterations / <prefix>converged and gauges
  /// <prefix>residual_a / <prefix>max_delta_v, updated once per right-hand
  /// side at the end of every solve() or solve_batch().  Pass nullptr to
  /// unbind (the default state: no recording).  The registry must outlive
  /// the grid.
  void bind_metrics(obs::MetricsRegistry* registry,
                    const std::string& prefix = "pdn.grid.");

  /// Total current delivered through all Dirichlet nodes by solution `v`
  /// under `sink` (equals the sum of sinks less any shunt inflow at
  /// convergence — used as a solver sanity check).
  double total_supply_current(std::span<const double> v,
                              std::span<const double> sink) const;

  /// Resistive power dissipated in the grid edges at `v`, watts.
  double dissipated_power(std::span<const double> v) const;

 private:
  GridSheet sheet_;
  // Multigrid hierarchy with its solve scratch, and solve_on's copy of the
  // caller's seed: built on the first solve (not at construction, so a
  // grid that is never solved costs nothing), then kept.
  std::unique_ptr<MultigridHierarchy> hierarchy_;
  std::vector<double> seed_;

  // Registry-backed solver metrics (all null while unbound).
  struct Metrics {
    obs::Counter* solves = nullptr;
    obs::Counter* iterations = nullptr; ///< V-cycles, FMG start included
    obs::Counter* converged = nullptr;  ///< solves that met tol
    obs::Gauge* residual_a = nullptr;   ///< last solve's max KCL residual
    obs::Gauge* max_delta_v = nullptr;  ///< last solve's final update
  } metrics_;

  SolveStats solve_on(std::span<double> v, std::span<const double> sink,
                      double tol);
  void record_solve(const SolveStats& stats);
};

}  // namespace wsp::pdn

// Discretised resistive power-plane solver.
//
// The Si-IF substrate dedicates its bottom two metal layers to power: one
// VDD plane and one ground plane, each a 2 um-thick slotted copper sheet
// (Sec. VIII).  Power enters at the wafer edge (Sec. III) and every tile
// draws load current through its LDO.  IR droop across the planes is what
// produces the paper's Fig. 2 profile: 2.5 V at the edge falling to about
// 1.4 V at the center of the wafer at peak draw.
//
// This class solves the nodal equations of a rectangular resistor grid with
// Dirichlet (fixed-voltage) nodes and nodal current sinks by geometric
// multigrid V-cycles with a full-multigrid start (see multigrid.hpp).  Every
// level smooths with a red-black (checkerboard-ordered) relaxation sweep:
// nodes of one color only ever read the other color's values within a
// half-sweep, so the update is independent of traversal order.  Every
// solve, batched or not, runs serially on its calling thread.  The
// hierarchy holds every level's operator as row-major plane arrays, and
// its solve scratch; it is built once per topology change and cached, so
// sink updates never touch it, which is what makes solve_batch() able to
// amortize one setup across many right-hand sides.
// It is deliberately self-contained so it can also model other planes (e.g.
// the thermal heat-spreader model).
#pragma once

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
/// guess; Dirichlet entries are overwritten from the grid's fixed values).
/// Both spans must cover node_count() entries.
struct RhsView {
  std::span<const double> sink;  ///< amperes out of each node
  std::span<double> v;           ///< in: seed, out: solution
};

/// Rectangular grid of nodes connected by resistors to their 4-neighbours.
///
/// Node (x, y) has index y*width+x.  Conductances are per-edge; current
/// sinks draw current out of nodes; Dirichlet nodes are held at a fixed
/// voltage (the edge supply).  Units: volts, amperes, siemens.
class ResistiveGrid {
 public:
  ResistiveGrid(int width, int height);
  // Out-of-line so the cached MultigridHierarchy can stay an incomplete
  // type here; moves transfer the caches, copies are disabled.
  ~ResistiveGrid();
  ResistiveGrid(ResistiveGrid&&) noexcept;
  ResistiveGrid& operator=(ResistiveGrid&&) noexcept;

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t node_count() const { return v_.size(); }

  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  /// Sets the conductance (siemens) of the edge between (x,y) and (x+1,y).
  void set_conductance_east(int x, int y, double siemens);
  /// Sets the conductance (siemens) of the edge between (x,y) and (x,y+1).
  void set_conductance_north(int x, int y, double siemens);

  /// Sets every horizontal edge to `gx` and every vertical edge to `gy`.
  void fill_conductances(double gx, double gy);

  /// Fixes node (x,y) at `volts` (a supply connection).
  void set_dirichlet(int x, int y, double volts);
  /// Removes a previously-set Dirichlet constraint.
  void clear_dirichlet(int x, int y);
  bool is_dirichlet(int x, int y) const { return dirichlet_[index(x, y)]; }

  /// Sets the current (amperes) drawn *out of* node (x,y) — a load.
  /// Negative values inject current.
  void set_current_sink(int x, int y, double amperes);
  double current_sink(int x, int y) const { return sink_[index(x, y)]; }

  /// Replaces the whole sink vector in one call (node_count() entries,
  /// amperes out of each node, indexed by index()).  Like
  /// set_current_sink, this touches only the right-hand side: any cached
  /// multigrid hierarchy survives, so per-solve load updates (power maps,
  /// DSE sweep points) stay amortized.
  void set_current_sinks(const std::vector<double>& amperes);
  const std::vector<double>& current_sinks() const { return sink_; }

  /// Connects node (x,y) to a fixed reference `v_ref` through `siemens`
  /// (a shunt).  Electrically: a load to ground; thermally (the solver
  /// doubles as a heat-spreader model): the vertical path to the cold
  /// plate at ambient temperature.
  void set_shunt(int x, int y, double siemens, double v_ref);

  /// Solves the nodal system by multigrid: a full-multigrid start, then
  /// V(1,1) cycles until the max per-node update (or the error bound the
  /// observed contraction puts on it) drops below `tol` volts, at most
  /// kMaxCycles iterations.  The first solve builds (and caches) a
  /// MultigridHierarchy from the current topology; the cache is
  /// invalidated by conductance/Dirichlet/shunt changes but survives sink
  /// updates, so repeated solves against one topology pay the setup cost
  /// once.  The previous solution (if any) seeds the iteration; a seed the
  /// FMG start moves by less than `tol` is kept as is (iterations == 0).
  /// Bit-identical for every thread count.  Throws unless tol > 0.
  SolveStats solve(double tol = 1e-7);

  /// Iteration cap of one solve, FMG start included.  Convergence is
  /// grid-size-independent, so a converged solve takes ~6-10 cycles at
  /// any resolution; the cap only stops a solve that cannot converge.
  static constexpr int kMaxCycles = 60;

  /// Solves many independent right-hand sides against this one topology,
  /// serially in order, amortizing one hierarchy over the whole
  /// batch.  Each rhs[i].v is seeded by the caller (its Dirichlet entries
  /// are reset from the grid's fixed values first) and holds that solve's
  /// solution on return; stats[i] reports it.  The grid's own solution
  /// vector and sinks are untouched.  Results are bit-identical to solving
  /// each RHS with solve(tol) from the same seed.
  /// Requires stats.size() == rhs.size().
  void solve_batch(std::span<const RhsView> rhs, std::span<SolveStats> stats,
                   double tol = 1e-7);

  /// Binds solver metrics into `registry` under `prefix`: counters
  /// <prefix>solves / <prefix>iterations / <prefix>converged and gauges
  /// <prefix>residual_a / <prefix>max_delta_v, updated at the end of every
  /// solve().  Pass nullptr to unbind (the default state: no recording).
  /// The registry must outlive the grid.
  void bind_metrics(obs::MetricsRegistry* registry,
                    const std::string& prefix = "pdn.grid.");

  double voltage(int x, int y) const { return v_[index(x, y)]; }
  const std::vector<double>& voltages() const { return v_; }

  /// Resets every non-Dirichlet node to `volts` (Dirichlet nodes keep their
  /// fixed values).  Gives a freshly-constructed-grid seed without paying
  /// for a rebuild: the hierarchy and sinks survive.  Callers that want
  /// history-independent solve()s against a cached grid call this before
  /// each one (WaferPdn and WaferThermal pass solve_batch a zero seed
  /// instead).
  void reset_voltages(double volts = 0.0);

  /// Total current delivered through all Dirichlet nodes (should equal the
  /// sum of sinks at convergence — used as a solver sanity check).  The
  /// span overload evaluates an external solution/sink pair (a solve_batch
  /// result) against this grid's topology.
  double total_supply_current() const {
    return total_supply_current(v_, sink_);
  }
  double total_supply_current(std::span<const double> v,
                              std::span<const double> sink) const;

  /// Resistive power dissipated in the grid edges, watts.
  double dissipated_power() const { return dissipated_power(v_); }
  double dissipated_power(std::span<const double> v) const;

 private:
  int width_;
  int height_;
  std::vector<double> g_east_;   // (width-1) x height edges
  std::vector<double> g_north_;  // width x (height-1) edges
  std::vector<double> sink_;     // amperes out of each node
  std::vector<double> shunt_g_;  // siemens to the shunt reference
  std::vector<double> shunt_v_;  // shunt reference voltage
  std::vector<char> dirichlet_;
  std::vector<double> v_;
  // Cached multigrid hierarchy with its solve scratch, and solve_on's copy
  // of the caller's seed: built on the first solve, reused by every solve
  // until the topology changes (sink updates preserve them).
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

  /// Per node: 1 if a conducting path reaches a Dirichlet node or shunt.
  std::vector<char> grounded_nodes() const;
  // Out-of-line: resets hierarchy_, which is incomplete here.
  void invalidate_topology();
  /// Builds the hierarchy for the current topology unless it is cached.
  void prepare_solvers();
  SolveStats solve_on(std::span<double> v, std::span<const double> sink,
                      double tol);
  void record_solve(const SolveStats& stats);

  friend class MultigridHierarchy;

  std::size_t east_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t north_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
};

}  // namespace wsp::pdn

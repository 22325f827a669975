// Geometric multigrid hierarchy: the resistive-plane solver's only solve
// path.
//
// A single-level relaxation (Gauss-Seidel/SOR) is an O(n^1.5) algorithm on
// an n-node plane: its sweep count climbs with resolution because only
// neighbouring nodes exchange information per sweep.  A geometric V-cycle
// attacks each error wavelength on the level where it is high-frequency: a
// red-black sweep per level kills the local error, the residual is
// restricted to a half-resolution grid, and the recursion bottoms out in a
// dense Cholesky solve on a handful of nodes.  Convergence per cycle is
// grid-size-independent (~0.05-0.1 contraction), so a converged solve costs
// a constant ~25-35 fine-sweep equivalents at any resolution.
//
// Construction is purely topological — conductances, shunts and the
// Dirichlet set — so ResistiveGrid caches the hierarchy exactly like its
// sweep stencil: invalidated on topology edits, preserved across sink
// updates.  That makes the factorize-once/solve-many shape explicit:
// brownout re-solves, thermal extractions and DSE sweep points all reuse
// one hierarchy, and solve_batch() runs its right-hand sides one after
// another against it, each with its own workspace.
//
// Coarsening: every other node per axis, both boundary lines always kept
// (arbitrary grid sizes, no 2^k+1 requirement).  A coarse edge is the
// series combination of the fine edges along its path, scaled by the
// full-weighting row mass it represents; a fine Dirichlet node interior to
// a path clamps the path into shunts-to-zero on its endpoints (the coarse
// equations are error equations, and error is pinned to zero at Dirichlet
// nodes).  Restriction is full weighting (the transpose of bilinear
// prolongation), which for a resistor network is just aggregating nodal
// current mismatch — an extensive quantity — into the coarse control
// volume, so the coarse problem is again a well-posed resistor grid.
//
// Determinism: a V-cycle runs serially on the calling thread — every
// level smooths with ResistiveGrid::sweep_color, and the residual,
// transfer and coarsest-solve passes are plain loops — so it is
// bit-identical for every thread count.  Parallelism never paid inside
// the PDN: the 64x64 wafer solve ran slower at 2, 4 and 8 threads than at
// 1, and fanning solve_batch right-hand sides or per-tile loops over the
// pool never won on a shape a caller issues (DESIGN.md "Parallel
// execution").  The pool works one level up instead, across campaign
// trials.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {

/// The coarse-level operators and inter-level transfer maps for one grid
/// topology.  Immutable after construction; per-solve state lives in a
/// Workspace so concurrent right-hand sides never share scratch.
class MultigridHierarchy {
 public:
  /// Captures the coarse operators for `fine`'s current topology.  The
  /// fine grid must outlive the hierarchy and must not change topology
  /// while it is in use (ResistiveGrid enforces this by resetting its
  /// cached hierarchy on every topology edit).  Coarsening stops at a
  /// level of at most kCoarsestNodes nodes.  Throws wsp::Error if the
  /// coarsest operator is not positive definite (an ungrounded grid — no
  /// Dirichlet node or shunt reaches it), whose nodal system has no unique
  /// solution.
  explicit MultigridHierarchy(const ResistiveGrid& fine);

  /// Coarsening stops once a level has at most this many nodes, which are
  /// then solved by a dense Cholesky factorization.
  static constexpr int kCoarsestNodes = 64;

  /// Per-solve scratch: residual and coarse-level solution/rhs vectors.
  struct Workspace {
    std::vector<std::vector<double>> r;     ///< residual per level
    std::vector<std::vector<double>> v;     ///< coarse solutions (level >= 1)
    std::vector<std::vector<double>> sink;  ///< coarse rhs (level >= 1)
    std::vector<double> direct;             ///< coarsest dense-solve vector
  };
  Workspace make_workspace() const;

  /// Runs one V(1,1)-cycle on the fine-level problem `A v = b(sink)`,
  /// updating `v` in place.  Returns the max |update| applied to any fine
  /// node (smoothing deltas and prolongated corrections), the convergence
  /// metric solve() compares against tol.
  double v_cycle(Workspace& ws, double* v, const double* sink) const;

  /// Full-multigrid bootstrap: restricts the residual of the caller's seed
  /// down the whole hierarchy, direct-solves the coarsest, and works back
  /// up with one V-cycle per level, so the first fine V-cycle starts from
  /// a near-discretization-accurate iterate instead of the raw seed.
  /// Costs ~40% of one V-cycle on top of the level-0 work it includes and
  /// typically replaces 2-3 full V-cycles.  Respects the seed: a good warm
  /// start leaves a small residual and the bootstrap correction shrinks
  /// accordingly.  Returns the max |update| like v_cycle.
  double fmg_bootstrap(Workspace& ws, double* v, const double* sink) const;

  int levels() const { return static_cast<int>(levels_.size()); }
  int level_width(int level) const { return levels_[level].width; }
  int level_height(int level) const { return levels_[level].height; }

  /// Cost of one V-cycle in units of one full fine-grid red+black sweep:
  /// the two smoothing sweeps plus ~1 sweep-equivalent of residual and
  /// transfer work per level, weighted by level size.
  double sweep_equivalents_per_cycle() const;

  /// Cost of the FMG bootstrap in the same fine-sweep units.
  double fmg_sweep_equivalents() const;

 private:
  // 1-D transfer map between a fine axis and its coarse axis.
  struct AxisMap {
    // For each fine coordinate: the two bracketing coarse indices and
    // bilinear weights (lo == hi with weight 1/0 at injection points).
    std::vector<std::int32_t> lo, hi;
    std::vector<double> w_lo, w_hi;
    // Transpose (gather) form: for each coarse index, the fine
    // coordinates and weights that restrict into it.
    std::vector<std::vector<std::pair<std::int32_t, double>>> gather;
    // Full-weighting mass per coarse index: sum of its gather weights —
    // the strip width its edges represent.
    std::vector<double> mass;
  };

  struct Level {
    int width = 0;
    int height = 0;
    std::vector<double> g_east;   // (width-1) x height
    std::vector<double> g_north;  // width x (height-1)
    std::vector<double> shunt_g;  // to the error reference (0 V)
    std::vector<char> dirichlet;
    std::vector<ResistiveGrid::StencilNode> stencil[2];
    // Both colors' node ids in stencil order: the prolongation loop only
    // needs ids, and streaming 4 bytes per node instead of a 40-byte
    // StencilNode keeps it memory-lean (max() is exact under any
    // combine order, so one fused list stays deterministic).
    std::vector<std::uint32_t> active;
    AxisMap from_finer_x;  // empty on level 0
    AxisMap from_finer_y;
    // Flattened full-weighting restriction: per *coarse* node, a CSR-style
    // slice of fine indices and weights (empty for Dirichlet nodes).
    std::vector<std::int32_t> restrict_off;  // coarse_nodes + 1 entries
    std::vector<std::int32_t> restrict_idx;
    std::vector<double> restrict_w;
    // Flattened bilinear prolongation: for each *fine* node, the four
    // coarse indices and weights of its interpolation — the AxisMap
    // product with the div/mod coordinate recovery precomputed, since
    // prolongation is on the solve hot path (profiled at ~1.4x the cost
    // of a smoothing half-sweep without this).
    std::vector<std::int32_t> prolong_idx;  // 4 per fine node
    std::vector<double> prolong_w;          // 4 per fine node
  };

  static AxisMap make_axis_map(int fine_n, int coarse_n);
  static Level coarsen(const Level& fine);
  static void build_stencil(Level& level);
  void build_direct_solver();

  // V-cycle stages, all operating on caller-provided buffers.
  double cycle(std::size_t level, Workspace& ws, double* v,
               const double* sink) const;
  void residual(const Level& level, const double* v, const double* sink,
                double* r) const;
  /// Full-weighting restriction: coarse_out = sign * R(fine_vals).  The
  /// residual path uses sign = -1 (A e = r with the grid's "sink drawn
  /// out" convention); the FMG rhs chain uses sign = +1.
  void restrict_values(const Level& coarse, const double* fine_vals,
                       double* coarse_out, double sign) const;
  double prolong_correct(const Level& coarse, const Level& fine,
                         const double* coarse_v, double* fine_v) const;
  /// Adds the dense solution of A x = sign * rhs (both indexed by node)
  /// into `v`; returns max |x|.
  double solve_direct(Workspace& ws, const double* rhs, double sign,
                      double* v) const;

  std::vector<Level> levels_;  // [0] mirrors the fine grid's topology

  // Dense Cholesky of the coarsest level over its active (non-Dirichlet,
  // connected) nodes: A = L L^T, factorized once at construction.
  std::vector<std::int32_t> direct_index_;  // node -> unknown index or -1
  std::vector<std::int32_t> direct_node_;   // unknown index -> node
  std::vector<double> direct_l_;            // row-major lower triangle
  int direct_n_ = 0;
};

}  // namespace wsp::pdn

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
// Construction reads only the sheet description — conductances, shunt and
// powered edges, all fixed for a grid's lifetime — so ResistiveGrid builds
// the hierarchy on its first solve and keeps it.  That makes the
// factorize-once/solve-many shape explicit: epoch re-solves, brownout
// re-solves and thermal extractions all reuse one hierarchy, and
// solve_batch() runs its right-hand sides one after another against it,
// through the one scratch workspace the hierarchy owns.
//
// Every level is a rectangle stored as row-major plane arrays (east and
// north edge conductances, shunt flow, diagonal and its inverse, plus the
// per-row runs of active nodes), so each kernel — the red-black smoother,
// the residuals, full-weighting restriction and bilinear prolongation — is
// a loop over the rectangle whose neighbours are i±1 and i±width.  A node
// on the border reads its own voltage through a 0 conductance in place of
// the missing neighbour, so every sum has the same terms in one fixed
// order (W, E, S, N, shunt) wherever the node sits.
//
// Coarsening: every other node per axis, both boundary lines always kept
// (arbitrary grid sizes, no 2^k+1 requirement), so a powered edge is a
// Dirichlet line on every level and the coarse equations — error
// equations, with error pinned to zero there — keep the sheet's form.  A
// coarse edge is the series combination of the fine edges along its path,
// scaled by the full-weighting row mass it represents, and a coarse shunt
// aggregates the fine shunts of its control volume.  Only free nodes ever
// read an edge or shunt, and a free coarse node's paths and control volume
// hold no fine Dirichlet node.  Restriction is full weighting (the
// transpose of bilinear prolongation), which for a resistor network is
// just aggregating nodal current mismatch — an extensive quantity — into
// the coarse control volume, so the coarse problem is again a well-posed
// resistor grid.
//
// Determinism: a V-cycle runs serially on the calling thread — the
// smoother, residual, transfer and coarsest-solve passes are plain loops —
// so it is bit-identical for every thread count.  Parallelism never paid
// inside the PDN: the 64x64 wafer solve ran slower at 2, 4 and 8 threads
// than at 1, and fanning solve_batch right-hand sides or per-tile loops
// over threads never won on a shape a caller issues (DESIGN.md "Parallel
// execution").  Threads work one level up instead, across campaign
// trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {

/// The per-level plane operators, the inter-level transfer maps and the
/// solve scratch for one sheet.  The operators are immutable after
/// construction; the scratch is reused by every solve, one at a time.
class MultigridHierarchy {
 public:
  /// Builds the operators for `sheet`, which ResistiveGrid has validated
  /// (gx, gy > 0; a powered edge or a shunt grounds it).  Coarsening stops
  /// at a level of at most kCoarsestNodes nodes.
  explicit MultigridHierarchy(const GridSheet& sheet);

  /// Coarsening stops once a level has at most this many nodes, which are
  /// then solved by a dense Cholesky factorization.
  static constexpr int kCoarsestNodes = 64;

  /// Runs one V(1,1)-cycle on the fine-level problem `A v = b(sink)`,
  /// updating `v` in place.  Returns the max |update| applied to any fine
  /// node (smoothing deltas and prolongated corrections), the convergence
  /// metric solve() compares against tol.
  double v_cycle(double* v, const double* sink);

  /// Full-multigrid bootstrap: restricts the residual of the caller's seed
  /// down the whole hierarchy, direct-solves the coarsest, and works back
  /// up with one V-cycle per level, so the first fine V-cycle starts from
  /// a near-discretization-accurate iterate instead of the raw seed.
  /// Costs ~40% of one V-cycle on top of the level-0 work it includes and
  /// typically replaces 2-3 full V-cycles.  Respects the seed: a good warm
  /// start leaves a small residual and the bootstrap correction shrinks
  /// accordingly.  Returns the max |update| like v_cycle.
  double fmg_bootstrap(double* v, const double* sink);

  /// Max |Kirchhoff current-law residual| of `v` over the fine level's
  /// active nodes, amperes.
  double max_kcl_residual(const double* v, const double* sink) const;

  /// Cost of one V-cycle in units of one full fine-grid red+black sweep:
  /// the two smoothing sweeps plus ~1 sweep-equivalent of residual and
  /// transfer work per level, weighted by level size.
  double sweep_equivalents_per_cycle() const;

  /// Cost of the FMG bootstrap in the same fine-sweep units.
  double fmg_sweep_equivalents() const;

 private:
  // Which active nodes a kernel visits: one checkerboard color ([0] = red,
  // x+y even) or both.
  static constexpr int kRed = 0;
  static constexpr int kBlack = 1;
  static constexpr int kBothColors = 2;

  // 1-D transfer map between a fine axis and its coarse axis.  A coarse
  // index gathers at most kTaps fine coordinates (fine spacing is 2, or 1
  // at the far boundary).
  static constexpr int kTaps = 3;
  struct AxisMap {
    // For each fine coordinate: the two bracketing coarse indices and
    // bilinear weights (lo == hi with weight 1/0 at injection points).
    std::vector<std::int32_t> lo, hi;
    std::vector<double> w_lo, w_hi;
    // The transpose: for each coarse index, the window of fine coordinates
    // [first, first + taps) that restricts into it and their weights
    // (kTaps slots per coarse index).
    std::vector<std::int32_t> first, taps;
    std::vector<double> w;
    // Full-weighting mass per coarse index: the sum of its window weights —
    // the strip width its edges represent.
    std::vector<double> mass;
  };

  // A maximal span [begin, end) of active columns in row y.
  struct Run {
    std::int32_t y, begin, end;
  };

  // One level's operator, row-major over its width x height rectangle
  // (node i = y*width + x).
  struct Level {
    int width = 0;
    int height = 0;
    std::vector<double> g_east;   // edge i <-> i+1; 0 on the last column
    std::vector<double> g_north;  // edge i <-> i+width; 0 on the last row
    std::vector<double> shunt_g;  // to the shunt reference
    std::vector<char> dirichlet;
    std::vector<double> shunt_flow;  // shunt_g * reference (0 V below level 0)
    std::vector<double> diag;        // W + E + S + N + shunt_g
    std::vector<double> inv_diag;
    // Active (non-Dirichlet) nodes, row by row.
    std::vector<Run> runs;
    AxisMap from_finer_x;  // empty on level 0
    AxisMap from_finer_y;
    // The transfers' weight products wy * wx, stored once per distinct row
    // of products (interior rows repeat, so a level holds a handful).
    // Prolongation reads prolong_products[prolong_row[y] + 4x + k] for fine
    // node (x, y), k = lo.lo, lo.hi, hi.lo, hi.hi; restriction reads
    // restrict_products[restrict_row[Y] + kTaps * (kTaps * X + ky) + kx].
    std::vector<double> prolong_products;
    std::vector<double> restrict_products;
    std::vector<std::int32_t> prolong_row;
    std::vector<std::int32_t> restrict_row;
  };

  static AxisMap make_axis_map(int fine_n, int coarse_n);
  static void build_transfer_products(Level& coarse, int fine_width,
                                      int fine_height);
  static Level coarsen(const Level& fine);
  /// Derives the solve arrays and runs from the level's edges, shunts and
  /// Dirichlet set, with every shunt to `shunt_ref`.
  static void finish_level(Level& level, double shunt_ref);
  void build_direct_solver();

  // Kernels, each a loop over a level's rectangle.
  template <class F>
  static double for_each_flow(const Level& level, int color, const double* v,
                              F&& f);
  template <bool kResidual>
  static double relax(const Level& level, int color, double* v,
                      const double* sink, double* r);
  static double smooth(const Level& level, double* v, const double* sink);
  static void residual(const Level& level, int color, const double* v,
                       const double* sink, double* r);
  /// Full-weighting restriction: coarse_out = sign * R(fine_vals).  The
  /// residual path uses sign = -1 (A e = r with the grid's "sink drawn
  /// out" convention); the FMG rhs chain uses sign = +1.
  static void restrict_values(const Level& coarse, int fine_width,
                              const double* fine_vals, double* coarse_out,
                              double sign);
  static double prolong_correct(const Level& coarse, const Level& fine,
                                const double* coarse_v, double* fine_v);
  /// Adds the dense solution of A x = sign * rhs (both indexed by node)
  /// into `v`; returns max |x|.
  double solve_direct(const double* rhs, double sign, double* v);
  double cycle(std::size_t level, double* v, const double* sink);

  std::vector<Level> levels_;  // [0] is the fine grid's own equation

  // Dense Cholesky of the coarsest level over its active (non-Dirichlet)
  // nodes: A = L L^T, factorized once at construction.
  std::vector<std::int32_t> direct_index_;  // node -> unknown index or -1
  std::vector<std::int32_t> direct_node_;   // unknown index -> node
  std::vector<double> direct_l_;            // row-major lower triangle
  int direct_n_ = 0;

  // Solve scratch, sized at construction and reused by every solve.
  // Entries the kernels never write (inactive nodes of r_) stay zero.
  std::vector<std::vector<double>> r_;     // residual per level
  std::vector<std::vector<double>> v_;     // coarse solutions (level >= 1)
  std::vector<std::vector<double>> sink_;  // coarse rhs (level >= 1)
  std::vector<double> direct_;             // coarsest dense-solve vector
};

}  // namespace wsp::pdn

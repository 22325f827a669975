#include "wsp/pdn/multigrid.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::pdn {

namespace {
// Coarse size of an axis of `n` nodes: every other node, both boundary
// lines always kept (so Dirichlet edges survive on every level and grid
// sizes need not be 2^k+1).  n == 2 cannot coarsen further.
int coarse_dim(int n) {
  if (n <= 2) return n;
  return n % 2 == 0 ? n / 2 + 1 : (n + 1) / 2;
}

// Fine coordinate of coarse index X on an axis of `fine_n` nodes.
int fine_coord(int X, int fine_n) { return std::min(2 * X, fine_n - 1); }

// Appends `row` to `table` unless an equal row is already there; returns
// the row's offset.
std::int32_t intern_row(std::vector<double>& table,
                        const std::vector<double>& row) {
  for (std::size_t off = 0; off < table.size(); off += row.size())
    if (std::equal(row.begin(), row.end(), table.begin() + off))
      return static_cast<std::int32_t>(off);
  table.insert(table.end(), row.begin(), row.end());
  return static_cast<std::int32_t>(table.size() - row.size());
}

double series(double g1, double g2) { return g1 * g2 / (g1 + g2); }

// Every level smooths V(1,1): one red-black sweep before the coarse-grid
// correction and one after, over-relaxed by kSmoothOmega.  That schedule
// measured fastest to converge across 16x16-128x128 wafer planes: the
// per-cycle contraction is ~0.04, so extra sweeps buy less than they cost.
// Omega stays near 1 because the smoother only has to kill high-frequency
// error; the coarse levels carry information across the grid.
constexpr double kSmoothOmega = 1.10;

}  // namespace

MultigridHierarchy::AxisMap MultigridHierarchy::make_axis_map(int fine_n,
                                                              int coarse_n) {
  AxisMap m;
  m.lo.assign(fine_n, 0);
  m.hi.assign(fine_n, 0);
  m.w_lo.assign(fine_n, 0.0);
  m.w_hi.assign(fine_n, 0.0);
  for (int X = 0; X + 1 < coarse_n; ++X) {
    const int f0 = fine_coord(X, fine_n);
    const int f1 = fine_coord(X + 1, fine_n);
    for (int x = f0; x <= f1; ++x) {
      const double t = static_cast<double>(x - f0) / (f1 - f0);
      m.lo[x] = X;
      m.hi[x] = X + 1;
      m.w_lo[x] = 1.0 - t;
      m.w_hi[x] = t;
    }
  }
  // Interval joins and the last coarse node collapse to pure injection.
  const int last = fine_coord(coarse_n - 1, fine_n);
  m.lo[last] = m.hi[last] = coarse_n - 1;
  m.w_lo[last] = 1.0;
  m.w_hi[last] = 0.0;

  // The transpose: every fine coordinate with a non-zero weight joins the
  // window of its coarse index, in increasing order.  A window spans the
  // open interval between its coarse neighbours, so it is contiguous and
  // at most kTaps wide.
  m.first.assign(coarse_n, 0);
  m.taps.assign(coarse_n, 0);
  m.w.assign(static_cast<std::size_t>(kTaps) * coarse_n, 0.0);
  const auto tap = [&m](int X, int x, double w) {
    if (m.taps[X] == 0) m.first[X] = x;
    m.w[static_cast<std::size_t>(kTaps) * X + m.taps[X]++] = w;
  };
  for (int x = 0; x < fine_n; ++x) {
    if (m.w_lo[x] > 0.0) tap(m.lo[x], x, m.w_lo[x]);
    if (m.hi[x] != m.lo[x] && m.w_hi[x] > 0.0) tap(m.hi[x], x, m.w_hi[x]);
  }
  m.mass.assign(coarse_n, 0.0);
  for (int X = 0; X < coarse_n; ++X)
    for (int k = 0; k < m.taps[X]; ++k)
      m.mass[X] += m.w[static_cast<std::size_t>(kTaps) * X + k];
  return m;
}

void MultigridHierarchy::build_transfer_products(Level& c, int fine_width,
                                                  int fine_height) {
  const AxisMap& mx = c.from_finer_x;
  const AxisMap& my = c.from_finer_y;
  std::vector<double> row(4 * static_cast<std::size_t>(fine_width));
  c.prolong_row.resize(fine_height);
  for (int y = 0; y < fine_height; ++y) {
    for (int x = 0; x < fine_width; ++x) {
      double* w = row.data() + 4 * static_cast<std::size_t>(x);
      w[0] = my.w_lo[y] * mx.w_lo[x];
      w[1] = my.w_lo[y] * mx.w_hi[x];
      w[2] = my.w_hi[y] * mx.w_lo[x];
      w[3] = my.w_hi[y] * mx.w_hi[x];
    }
    c.prolong_row[y] = intern_row(c.prolong_products, row);
  }
  row.assign(static_cast<std::size_t>(kTaps) * kTaps * c.width, 0.0);
  c.restrict_row.resize(c.height);
  for (int Y = 0; Y < c.height; ++Y) {
    for (int X = 0; X < c.width; ++X)
      for (int ky = 0; ky < my.taps[Y]; ++ky)
        for (int kx = 0; kx < mx.taps[X]; ++kx)
          row[kTaps * (kTaps * static_cast<std::size_t>(X) + ky) + kx] =
              my.w[kTaps * Y + ky] * mx.w[kTaps * X + kx];
    c.restrict_row[Y] = intern_row(c.restrict_products, row);
  }
}

void MultigridHierarchy::finish_level(Level& level, double shunt_ref) {
  const int w = level.width;
  const auto nodes = static_cast<std::size_t>(w) * level.height;
  level.shunt_flow.assign(nodes, 0.0);
  level.diag.assign(nodes, 0.0);
  level.inv_diag.assign(nodes, 0.0);
  level.runs.clear();
  for (int y = 0; y < level.height; ++y) {
    int begin = -1;
    for (int x = 0; x < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * w + x;
      // The flow's term order (W, E, S, N, shunt), absent edges as 0.
      level.diag[i] = (x > 0 ? level.g_east[i - 1] : 0.0) + level.g_east[i] +
                      (y > 0 ? level.g_north[i - w] : 0.0) +
                      level.g_north[i] + level.shunt_g[i];
      level.shunt_flow[i] = level.shunt_g[i] * shunt_ref;
      const bool active = !level.dirichlet[i];
      if (active) level.inv_diag[i] = 1.0 / level.diag[i];
      if (active && begin < 0) begin = x;
      if (!active && begin >= 0) {
        level.runs.push_back({y, begin, x});
        begin = -1;
      }
    }
    if (begin >= 0) level.runs.push_back({y, begin, w});
  }
}

MultigridHierarchy::Level MultigridHierarchy::coarsen(const Level& fine) {
  Level c;
  c.width = coarse_dim(fine.width);
  c.height = coarse_dim(fine.height);
  c.from_finer_x = make_axis_map(fine.width, c.width);
  c.from_finer_y = make_axis_map(fine.height, c.height);
  const auto nodes = static_cast<std::size_t>(c.width) * c.height;
  c.g_east.assign(nodes, 0.0);
  c.g_north.assign(nodes, 0.0);
  c.shunt_g.assign(nodes, 0.0);
  c.dirichlet.assign(nodes, 0);

  auto f_index = [&](int x, int y) {
    return static_cast<std::size_t>(y) * fine.width + x;
  };
  auto c_index = [&](int X, int Y) {
    return static_cast<std::size_t>(Y) * c.width + X;
  };

  for (int Y = 0; Y < c.height; ++Y)
    for (int X = 0; X < c.width; ++X)
      c.dirichlet[c_index(X, Y)] = fine.dirichlet[f_index(
          fine_coord(X, fine.width), fine_coord(Y, fine.height))];

  // Coarse edges: the series combination of the (one or two) fine edges
  // along the path between the coarse nodes, scaled by the full-weighting
  // strip mass of the perpendicular axis.  A path's interior fine node is
  // never Dirichlet unless the whole line is a powered edge, whose coarse
  // nodes are Dirichlet too and read none of its edges.
  for (int Y = 0; Y < c.height; ++Y) {
    const int fy = fine_coord(Y, fine.height);
    const double mass = c.from_finer_y.mass[Y];
    for (int X = 0; X + 1 < c.width; ++X) {
      const int f0 = fine_coord(X, fine.width);
      const int f1 = fine_coord(X + 1, fine.width);
      const double g1 = fine.g_east[f_index(f0, fy)];
      c.g_east[c_index(X, Y)] =
          mass * (f1 == f0 + 1 ? g1
                               : series(g1, fine.g_east[f_index(f0 + 1, fy)]));
    }
  }
  for (int X = 0; X < c.width; ++X) {
    const int fx = fine_coord(X, fine.width);
    const double mass = c.from_finer_x.mass[X];
    for (int Y = 0; Y + 1 < c.height; ++Y) {
      const int f0 = fine_coord(Y, fine.height);
      const int f1 = fine_coord(Y + 1, fine.height);
      const double g1 = fine.g_north[f_index(fx, f0)];
      c.g_north[c_index(X, Y)] =
          mass * (f1 == f0 + 1 ? g1
                               : series(g1, fine.g_north[f_index(fx, f0 + 1)]));
    }
  }

  // Coarse shunts: full-weighting aggregation of the fine shunt
  // conductances in each free coarse node's control volume, which holds no
  // fine Dirichlet node (only a powered edge does, and its coarse nodes
  // are Dirichlet).
  const AxisMap& mx = c.from_finer_x;
  const AxisMap& my = c.from_finer_y;
  for (int Y = 0; Y < c.height; ++Y)
    for (int X = 0; X < c.width; ++X) {
      if (c.dirichlet[c_index(X, Y)]) continue;
      double g = 0.0;
      for (int kx = 0; kx < mx.taps[X]; ++kx)
        for (int ky = 0; ky < my.taps[Y]; ++ky) {
          const std::size_t f = f_index(mx.first[X] + kx, my.first[Y] + ky);
          g += mx.w[kTaps * X + kx] * my.w[kTaps * Y + ky] * fine.shunt_g[f];
        }
      c.shunt_g[c_index(X, Y)] = g;
    }

  build_transfer_products(c, fine.width, fine.height);
  // Coarse levels carry error equations: shunt references are 0 V.
  finish_level(c, 0.0);
  return c;
}

MultigridHierarchy::MultigridHierarchy(const GridSheet& sheet) {
  WSP_TRACE_SPAN("pdn.mg.build");
  Level l0;
  l0.width = sheet.width;
  l0.height = sheet.height;
  const auto nodes = static_cast<std::size_t>(l0.width) * l0.height;
  l0.g_east.assign(nodes, 0.0);
  l0.g_north.assign(nodes, 0.0);
  l0.shunt_g.assign(nodes, sheet.shunt_g);
  l0.dirichlet.assign(nodes, 0);
  for (int y = 0; y < l0.height; ++y)
    for (int x = 0; x < l0.width; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * l0.width + x;
      if (x < l0.width - 1) l0.g_east[i] = sheet.gx;
      if (y < l0.height - 1) l0.g_north[i] = sheet.gy;
      l0.dirichlet[i] = sheet.is_dirichlet(x, y);
    }
  // The fine level relaxes the original equation: its shunts keep their
  // reference.
  finish_level(l0, sheet.shunt_ref);
  levels_.push_back(std::move(l0));

  while (true) {
    const Level& top = levels_.back();
    if (static_cast<long long>(top.width) * top.height <= kCoarsestNodes)
      break;
    if (coarse_dim(top.width) == top.width &&
        coarse_dim(top.height) == top.height)
      break;  // cannot reduce further (degenerate 2xN grids)
    levels_.push_back(coarsen(top));
  }
  build_direct_solver();

  r_.resize(levels_.size());
  v_.resize(levels_.size());
  sink_.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto level_nodes =
        static_cast<std::size_t>(levels_[l].width) * levels_[l].height;
    r_[l].assign(level_nodes, 0.0);
    if (l > 0) {
      v_[l].assign(level_nodes, 0.0);
      sink_[l].assign(level_nodes, 0.0);
    }
  }
  direct_.assign(static_cast<std::size_t>(direct_n_), 0.0);
}

void MultigridHierarchy::build_direct_solver() {
  // Dense Cholesky of the coarsest level's error operator over its active
  // nodes.  The operator is a grounded resistor network's conductance
  // matrix: symmetric, diagonally dominant and positive definite, since a
  // sheet always reaches a powered edge or a shunt.
  const Level& bottom = levels_.back();
  const int w = bottom.width;
  direct_index_.assign(static_cast<std::size_t>(w) * bottom.height, -1);
  direct_node_.clear();
  for (const Run& run : bottom.runs)
    for (int x = run.begin; x < run.end; ++x) {
      const auto i = static_cast<std::int32_t>(run.y * w + x);
      direct_index_[i] = static_cast<std::int32_t>(direct_node_.size());
      direct_node_.push_back(i);
    }
  direct_n_ = static_cast<int>(direct_node_.size());
  if (direct_n_ == 0) return;  // all-Dirichlet bottom level: nothing to do

  const auto n = static_cast<std::size_t>(direct_n_);
  std::vector<double> a(n * n, 0.0);
  for (const Run& run : bottom.runs)
    for (int x = run.begin; x < run.end; ++x) {
      const std::size_t i = static_cast<std::size_t>(run.y) * w + x;
      const auto row = static_cast<std::size_t>(direct_index_[i]);
      a[row * n + row] = bottom.diag[i];
      // Edges to Dirichlet neighbours stay in the diagonal only: the error
      // there is pinned to zero.
      const auto couple = [&](std::size_t j, double g) {
        if (direct_index_[j] >= 0)
          a[row * n + static_cast<std::size_t>(direct_index_[j])] -= g;
      };
      if (x > 0) couple(i - 1, bottom.g_east[i - 1]);
      if (x + 1 < w) couple(i + 1, bottom.g_east[i]);
      if (run.y > 0) couple(i - w, bottom.g_north[i - w]);
      if (run.y + 1 < bottom.height) couple(i + w, bottom.g_north[i]);
    }

  // In-place lower Cholesky (row-major).
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    require(d > 0.0, "multigrid coarsest operator is not positive definite");
    const double ljj = std::sqrt(d);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / ljj;
    }
  }
  direct_l_ = std::move(a);
}

template <class F>
double MultigridHierarchy::for_each_flow(const Level& level, int color,
                                         const double* v, F&& f) {
  // Calls f(i, flow) for every active node of `color`, where flow is the
  // current the neighbours and the shunt push into node i at `v`:
  //   g_W v_W + g_E v_E + g_S v_S + g_N v_N + shunt_flow,
  // summed in that order, and returns the max of what f returns (exact in
  // any visiting order).  An absent neighbour is the node itself through a
  // 0 conductance (the last column and row store 0 edges), so every node
  // sums the same five terms wherever it sits.  Nodes of one color never
  // read each other, so f may update v[i].
  double max_out = 0.0;
  const auto visit = [&](std::size_t i, double flow) {
    max_out = std::max(max_out, f(i, flow));
  };
  const int w = level.width;
  const int step = color == kBothColors ? 1 : 2;
  const double* g_east = level.g_east.data();
  const double* g_north = level.g_north.data();
  // The last row stores no north edges: the 0 "south" edges of row 0.
  const double* no_edges =
      g_north + static_cast<std::size_t>(level.height - 1) * w;
  for (const Run& run : level.runs) {
    const std::size_t row = static_cast<std::size_t>(run.y) * w;
    const bool has_south = run.y > 0;
    const bool has_north = run.y + 1 < level.height;
    const double* vr = v + row;
    const double* vs = has_south ? vr - w : vr;
    const double* vn = has_north ? vr + w : vr;
    const double* ge = g_east + row;
    const double* gs = has_south ? g_north + row - w : no_edges;
    const double* gn = g_north + row;
    const double* sf = level.shunt_flow.data() + row;
    int x = run.begin;
    if (step == 2 && ((x + run.y) & 1) != color) ++x;
    if (x == 0) {  // no west neighbour
      visit(row, 0.0 * vr[0] + ge[0] * vr[1] + gs[0] * vs[0] + gn[0] * vn[0] +
                 sf[0]);
      x += step;
    }
    const int end = std::min(run.end, w - 1);
    for (; x < end; x += step)
      visit(row + x, ge[x - 1] * vr[x - 1] + ge[x] * vr[x + 1] + gs[x] * vs[x] +
                     gn[x] * vn[x] + sf[x]);
    if (x == w - 1 && run.end == w)  // no east neighbour
      visit(row + x, ge[x - 1] * vr[x - 1] + ge[x] * vr[x] + gs[x] * vs[x] +
                     gn[x] * vn[x] + sf[x]);
  }
  return max_out;
}

template <bool kResidual>
double MultigridHierarchy::relax(const Level& level, int color, double* v,
                                 const double* sink, double* r) {
  // One over-relaxed Gauss-Seidel half-sweep; returns the max |relaxed
  // update|.  With kResidual this runs as the *second* color of a sweep:
  // every neighbour is then final, so the node's KCL residual
  // flow - diag * v_new - sink = diag * (v_gs - v_new) falls out of values
  // already in registers and is stored to r — the cycle gets this color's
  // residual for free instead of re-walking the level.
  const double* diag = level.diag.data();
  const double* inv_diag = level.inv_diag.data();
  return for_each_flow(level, color, v, [=](std::size_t i, double flow) {
    const double v_gs = (flow - sink[i]) * inv_diag[i];
    const double old = v[i];
    const double updated = old + kSmoothOmega * (v_gs - old);
    v[i] = updated;
    if constexpr (kResidual) r[i] = diag[i] * (v_gs - updated);
    return std::abs(updated - old);
  });
}

double MultigridHierarchy::smooth(const Level& level, double* v,
                                  const double* sink) {
  const double red = relax<false>(level, kRed, v, sink, nullptr);
  return std::max(red, relax<false>(level, kBlack, v, sink, nullptr));
}

void MultigridHierarchy::residual(const Level& level, int color,
                                  const double* v, const double* sink,
                                  double* r) {
  // Only active nodes are written: Dirichlet entries keep the scratch's
  // zero initialization, which no path ever dirties.
  const double* diag = level.diag.data();
  for_each_flow(level, color, v, [=](std::size_t i, double flow) {
    r[i] = flow - diag[i] * v[i] - sink[i];
    return 0.0;
  });
}

double MultigridHierarchy::max_kcl_residual(const double* v,
                                            const double* sink) const {
  // True nodal current residual: |sum_j g_ij (v_j - v_i) + shunt - sink_i|,
  // amperes — zero at the exact solution of every balanced node.
  const double* diag = levels_[0].diag.data();
  return for_each_flow(levels_[0], kBothColors, v,
                       [=](std::size_t i, double flow) {
                         return std::abs(flow - diag[i] * v[i] - sink[i]);
                       });
}

void MultigridHierarchy::restrict_values(const Level& coarse, int fine_width,
                                         const double* fine_vals,
                                         double* coarse_out, double sign) {
  // Full weighting (transpose of bilinear prolongation): coarse rhs is the
  // aggregated nodal current mismatch over the coarse node's window, fine
  // rows outer, columns inner.  The grid's sink sign convention is
  // "amperes drawn out", so A e = r uses sign = -1.  Dirichlet coarse
  // nodes restrict to zero.
  const AxisMap& mx = coarse.from_finer_x;
  const AxisMap& my = coarse.from_finer_y;
  for (int Y = 0; Y < coarse.height; ++Y) {
    const double* products =
        coarse.restrict_products.data() + coarse.restrict_row[Y];
    const double* rows =
        fine_vals + static_cast<std::size_t>(my.first[Y]) * fine_width;
    for (int X = 0; X < coarse.width; ++X) {
      const std::size_t ci = static_cast<std::size_t>(Y) * coarse.width + X;
      double acc = 0.0;
      if (!coarse.dirichlet[ci]) {
        const double* w =
            products + static_cast<std::size_t>(kTaps) * kTaps * X;
        const int taps = mx.taps[X];
        const double* f = rows + mx.first[X];
        for (int ky = 0; ky < my.taps[Y]; ++ky, w += kTaps, f += fine_width) {
          if (taps == kTaps) {  // interior: the same terms, unrolled
            acc += w[0] * f[0];
            acc += w[1] * f[1];
            acc += w[2] * f[2];
          } else {
            for (int kx = 0; kx < taps; ++kx) acc += w[kx] * f[kx];
          }
        }
      }
      coarse_out[ci] = sign * acc;
    }
  }
}

double MultigridHierarchy::prolong_correct(const Level& coarse,
                                           const Level& fine,
                                           const double* coarse_v,
                                           double* fine_v) {
  // Bilinear interpolation of the coarse error into the fine level's
  // active nodes only — Dirichlet nodes keep their fixed values.  All four
  // terms are summed, the zero-weight ones included.
  const AxisMap& mx = coarse.from_finer_x;
  const AxisMap& my = coarse.from_finer_y;
  double max_c = 0.0;
  for (const Run& run : fine.runs) {
    const double* lo_row =
        coarse_v + static_cast<std::size_t>(my.lo[run.y]) * coarse.width;
    const double* hi_row =
        coarse_v + static_cast<std::size_t>(my.hi[run.y]) * coarse.width;
    const double* products =
        coarse.prolong_products.data() + coarse.prolong_row[run.y];
    double* out = fine_v + static_cast<std::size_t>(run.y) * fine.width;
    for (int x = run.begin; x < run.end; ++x) {
      const std::int32_t lo = mx.lo[x];
      const std::int32_t hi = mx.hi[x];
      const double* w = products + 4 * static_cast<std::size_t>(x);
      const double c = w[0] * lo_row[lo] + w[1] * lo_row[hi] +
                       w[2] * hi_row[lo] + w[3] * hi_row[hi];
      out[x] += c;
      max_c = std::max(max_c, std::abs(c));
    }
  }
  return max_c;
}

double MultigridHierarchy::solve_direct(const double* rhs, double sign,
                                        double* v) {
  if (direct_n_ == 0) return 0.0;
  const auto n = static_cast<std::size_t>(direct_n_);
  for (std::size_t k = 0; k < n; ++k) direct_[k] = sign * rhs[direct_node_[k]];
  // L y = rhs, then L^T x = y, in place.
  for (std::size_t i = 0; i < n; ++i) {
    double s = direct_[i];
    for (std::size_t k = 0; k < i; ++k) s -= direct_l_[i * n + k] * direct_[k];
    direct_[i] = s / direct_l_[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = direct_[ii];
    for (std::size_t k = ii + 1; k < n; ++k)
      s -= direct_l_[k * n + ii] * direct_[k];
    direct_[ii] = s / direct_l_[ii * n + ii];
  }
  double max_x = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    v[direct_node_[k]] += direct_[k];
    max_x = std::max(max_x, std::abs(direct_[k]));
  }
  return max_x;
}

double MultigridHierarchy::cycle(std::size_t level, double* v,
                                 const double* sink) {
  const Level& L = levels_[level];
  if (level + 1 == levels_.size()) {
    if (level == 0) {
      // Tiny fine grids: the error-equation direct solve replaces the
      // whole cycle (one residual, one Cholesky back-substitution).
      residual(L, kBothColors, v, sink, r_[0].data());
      return solve_direct(r_[0].data(), 1.0, v);
    }
    // Coarse bottom level: solve A e = r (= -sink) exactly.
    return solve_direct(sink, -1.0, v);
  }

  // Pre-smooth: the second color's residual falls out of its half-sweep,
  // so only the first color needs an explicit half-pass.
  double* r = r_[level].data();
  double max_update = relax<false>(L, kRed, v, sink, nullptr);
  max_update = std::max(max_update, relax<true>(L, kBlack, v, sink, r));
  residual(L, kRed, v, sink, r);

  const Level& C = levels_[level + 1];
  double* cv = v_[level + 1].data();
  restrict_values(C, L.width, r, sink_[level + 1].data(), -1.0);
  std::fill(v_[level + 1].begin(), v_[level + 1].end(), 0.0);
  cycle(level + 1, cv, sink_[level + 1].data());
  max_update = std::max(max_update, prolong_correct(C, L, cv, v));
  return std::max(max_update, smooth(L, v, sink));
}

double MultigridHierarchy::v_cycle(double* v, const double* sink) {
  WSP_TRACE_SPAN("pdn.mg.cycle");
  return cycle(0, v, sink);
}

double MultigridHierarchy::fmg_bootstrap(double* v, const double* sink) {
  WSP_TRACE_SPAN("pdn.mg.fmg");
  const std::size_t bottom = levels_.size() - 1;
  if (bottom == 0) return cycle(0, v, sink);

  // Restrict the error-equation rhs of the caller's seed down the whole
  // chain.  At level l >= 1 the seed is zero, so the residual of
  // `A e = sink` is just -sink and the next rhs restricts directly from
  // the current one with a positive sign.
  residual(levels_[0], kBothColors, v, sink, r_[0].data());
  restrict_values(levels_[1], levels_[0].width, r_[0].data(),
                  sink_[1].data(), -1.0);
  for (std::size_t l = 1; l < bottom; ++l)
    restrict_values(levels_[l + 1], levels_[l].width, sink_[l].data(),
                    sink_[l + 1].data(), 1.0);

  // Exact coarsest solve, then one V-cycle per level on the way up — each
  // level starts from the prolonged correction of the level below, so its
  // cycle only has to clean up interpolation error.  Deeper scratch
  // buffers are dead by the time cycle(l) reuses them.
  std::fill(v_[bottom].begin(), v_[bottom].end(), 0.0);
  solve_direct(sink_[bottom].data(), -1.0, v_[bottom].data());
  for (std::size_t l = bottom; l-- > 1;) {
    std::fill(v_[l].begin(), v_[l].end(), 0.0);
    prolong_correct(levels_[l + 1], levels_[l], v_[l + 1].data(),
                    v_[l].data());
    cycle(l, v_[l].data(), sink_[l].data());
  }
  const double max_update =
      prolong_correct(levels_[1], levels_[0], v_[1].data(), v);

  // Post-smooth the interpolated correction into the fine grid so the
  // bootstrap hands the first V-cycle the same kind of iterate it would
  // produce.
  return std::max(max_update, smooth(levels_[0], v, sink));
}

double MultigridHierarchy::sweep_equivalents_per_cycle() const {
  const double fine_nodes =
      static_cast<double>(levels_[0].width) * levels_[0].height;
  double total = 0.0;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const double rel =
        static_cast<double>(levels_[l].width) * levels_[l].height / fine_nodes;
    if (l + 1 == levels_.size()) {
      total += rel;  // direct solve, charged as one sweep of its level
    } else {
      // Two smoothing sweeps plus residual + restriction + prolongation:
      // the pre-smooth fuses the second residual half into its sweep,
      // leaving ~1.0 sweep of transfer traffic.
      total += rel * (2.0 + 1.0);
    }
  }
  return total;
}

double MultigridHierarchy::fmg_sweep_equivalents() const {
  const double fine_nodes =
      static_cast<double>(levels_[0].width) * levels_[0].height;
  auto rel = [&](std::size_t l) {
    return static_cast<double>(levels_[l].width) * levels_[l].height /
           fine_nodes;
  };
  // Fine level: residual + restriction down, prolongation up, one
  // post-smooth sweep.
  double total = 1.0 + 1.5;
  // Coarsest direct solve plus the rhs chain through every coarse level.
  total += rel(levels_.size() - 1);
  for (std::size_t l = 1; l < levels_.size(); ++l) total += 0.5 * rel(l);
  // One V-cycle per intermediate level, each over its own sub-hierarchy,
  // charged two sweeps plus a full explicit residual pass per level.
  for (std::size_t start = 1; start + 1 < levels_.size(); ++start)
    for (std::size_t l = start; l < levels_.size(); ++l)
      total += rel(l) * (l + 1 == levels_.size() ? 1.0 : 2.0 + 1.5);
  return total;
}

}  // namespace wsp::pdn

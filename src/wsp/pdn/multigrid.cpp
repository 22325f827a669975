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

double series(double g1, double g2) {
  const double sum = g1 + g2;
  return sum > 0.0 ? g1 * g2 / sum : 0.0;
}

// Every level smooths V(1,1): one red-black sweep before the coarse-grid
// correction and one after, over-relaxed by kSmoothOmega.  That schedule
// measured fastest to converge across 16x16-128x128 wafer planes: the
// per-cycle contraction is ~0.04, so extra sweeps buy less than they cost.
// Omega stays near 1 because the smoother only has to kill high-frequency
// error; the coarse levels carry information across the grid.
constexpr double kSmoothOmega = 1.10;

// One full red-black smoothing sweep; returns the max |update|.
double smooth(const std::vector<ResistiveGrid::StencilNode> (&stencil)[2],
              double* v, const double* sink) {
  const double red = ResistiveGrid::sweep_color(stencil[0], kSmoothOmega, v,
                                                sink);
  return std::max(
      red, ResistiveGrid::sweep_color(stencil[1], kSmoothOmega, v, sink));
}
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

  m.gather.resize(coarse_n);
  m.mass.assign(coarse_n, 0.0);
  for (int x = 0; x < fine_n; ++x) {
    if (m.w_lo[x] > 0.0) m.gather[m.lo[x]].push_back({x, m.w_lo[x]});
    if (m.hi[x] != m.lo[x] && m.w_hi[x] > 0.0)
      m.gather[m.hi[x]].push_back({x, m.w_hi[x]});
  }
  for (int X = 0; X < coarse_n; ++X)
    for (const auto& [x, w] : m.gather[X]) m.mass[X] += w;
  return m;
}

void MultigridHierarchy::build_stencil(Level& level) {
  // Coarse levels carry error equations: shunt references are 0 V, so
  // shunts appear only in the diagonal.
  ResistiveGrid::build_stencil(level.width, level.height, level.g_east,
                               level.g_north, level.shunt_g, nullptr,
                               level.dirichlet, level.stencil);
  level.active.clear();
  for (int color = 0; color < 2; ++color)
    for (const auto& s : level.stencil[color]) level.active.push_back(s.node);
}

MultigridHierarchy::Level MultigridHierarchy::coarsen(const Level& fine) {
  Level c;
  c.width = coarse_dim(fine.width);
  c.height = coarse_dim(fine.height);
  c.from_finer_x = make_axis_map(fine.width, c.width);
  c.from_finer_y = make_axis_map(fine.height, c.height);
  const auto nodes = static_cast<std::size_t>(c.width) * c.height;
  c.g_east.assign(static_cast<std::size_t>(c.width - 1) * c.height, 0.0);
  c.g_north.assign(static_cast<std::size_t>(c.width) * (c.height - 1), 0.0);
  c.shunt_g.assign(nodes, 0.0);
  c.dirichlet.assign(nodes, 0);

  auto f_east = [&](int x, int y) {
    return fine.g_east[static_cast<std::size_t>(y) * (fine.width - 1) + x];
  };
  auto f_north = [&](int x, int y) {
    return fine.g_north[static_cast<std::size_t>(y) * fine.width + x];
  };
  auto f_dirichlet = [&](int x, int y) {
    return fine.dirichlet[static_cast<std::size_t>(y) * fine.width + x] != 0;
  };
  auto c_index = [&](int X, int Y) {
    return static_cast<std::size_t>(Y) * c.width + X;
  };

  for (int Y = 0; Y < c.height; ++Y)
    for (int X = 0; X < c.width; ++X)
      c.dirichlet[c_index(X, Y)] =
          f_dirichlet(fine_coord(X, fine.width), fine_coord(Y, fine.height));

  // Coarse edges: the series combination of the (one or two) fine edges
  // along the path between the coarse nodes, scaled by the full-weighting
  // strip mass of the perpendicular axis.  A fine Dirichlet node interior
  // to the path pins the error to zero there, so the path contributes
  // clamp shunts to its endpoints instead of a through-conductance.
  for (int Y = 0; Y < c.height; ++Y) {
    const int fy = fine_coord(Y, fine.height);
    const double mass = c.from_finer_y.mass[Y];
    for (int X = 0; X + 1 < c.width; ++X) {
      const int f0 = fine_coord(X, fine.width);
      const int f1 = fine_coord(X + 1, fine.width);
      const auto e = static_cast<std::size_t>(Y) * (c.width - 1) + X;
      if (f1 == f0 + 1) {
        c.g_east[e] = mass * f_east(f0, fy);
      } else {
        const double g1 = f_east(f0, fy);
        const double g2 = f_east(f0 + 1, fy);
        if (f_dirichlet(f0 + 1, fy)) {
          c.shunt_g[c_index(X, Y)] += mass * g1;
          c.shunt_g[c_index(X + 1, Y)] += mass * g2;
        } else {
          c.g_east[e] = mass * series(g1, g2);
        }
      }
    }
  }
  for (int X = 0; X < c.width; ++X) {
    const int fx = fine_coord(X, fine.width);
    const double mass = c.from_finer_x.mass[X];
    for (int Y = 0; Y + 1 < c.height; ++Y) {
      const int f0 = fine_coord(Y, fine.height);
      const int f1 = fine_coord(Y + 1, fine.height);
      const auto e = static_cast<std::size_t>(Y) * c.width + X;
      if (f1 == f0 + 1) {
        c.g_north[e] = mass * f_north(fx, f0);
      } else {
        const double g1 = f_north(fx, f0);
        const double g2 = f_north(fx, f0 + 1);
        if (f_dirichlet(fx, f0 + 1)) {
          c.shunt_g[c_index(X, Y)] += mass * g1;
          c.shunt_g[c_index(X, Y + 1)] += mass * g2;
        } else {
          c.g_north[e] = mass * series(g1, g2);
        }
      }
    }
  }

  // Coarse shunts: full-weighting aggregation of the fine shunt
  // conductances in each coarse control volume (fine Dirichlet nodes carry
  // no error, so they contribute nothing).
  for (int Y = 0; Y < c.height; ++Y)
    for (int X = 0; X < c.width; ++X) {
      if (c.dirichlet[c_index(X, Y)]) continue;
      double g = 0.0;
      for (const auto& [fx, wx] : c.from_finer_x.gather[X])
        for (const auto& [fy, wy] : c.from_finer_y.gather[Y]) {
          if (f_dirichlet(fx, fy)) continue;
          g += wx * wy *
               fine.shunt_g[static_cast<std::size_t>(fy) * fine.width + fx];
        }
      c.shunt_g[c_index(X, Y)] += g;
    }

  // Flatten the axis-map product into a CSR gather per coarse node so the
  // hot restriction loop streams contiguous index/weight pairs instead of
  // chasing nested vector-of-pairs.
  c.restrict_off.assign(nodes + 1, 0);
  c.restrict_idx.clear();
  c.restrict_w.clear();
  for (int Y = 0; Y < c.height; ++Y)
    for (int X = 0; X < c.width; ++X) {
      const auto ci = c_index(X, Y);
      if (!c.dirichlet[ci]) {
        for (const auto& [fy, wy] : c.from_finer_y.gather[Y])
          for (const auto& [fx, wx] : c.from_finer_x.gather[X]) {
            c.restrict_idx.push_back(
                static_cast<std::int32_t>(fy) * fine.width + fx);
            c.restrict_w.push_back(wy * wx);
          }
      }
      c.restrict_off[ci + 1] = static_cast<std::int32_t>(c.restrict_idx.size());
    }

  // Flatten the two axis maps into one gather per fine node so the hot
  // prolongation loop is four fused multiply-adds with no coordinate
  // arithmetic.
  const auto fine_nodes =
      static_cast<std::size_t>(fine.width) * fine.height;
  c.prolong_idx.resize(4 * fine_nodes);
  c.prolong_w.resize(4 * fine_nodes);
  for (int y = 0; y < fine.height; ++y) {
    const AxisMap& mx = c.from_finer_x;
    const AxisMap& my = c.from_finer_y;
    const std::int32_t lo_row = my.lo[y] * c.width;
    const std::int32_t hi_row = my.hi[y] * c.width;
    for (int x = 0; x < fine.width; ++x) {
      const auto k = 4 * (static_cast<std::size_t>(y) * fine.width + x);
      c.prolong_idx[k + 0] = lo_row + mx.lo[x];
      c.prolong_idx[k + 1] = lo_row + mx.hi[x];
      c.prolong_idx[k + 2] = hi_row + mx.lo[x];
      c.prolong_idx[k + 3] = hi_row + mx.hi[x];
      c.prolong_w[k + 0] = my.w_lo[y] * mx.w_lo[x];
      c.prolong_w[k + 1] = my.w_lo[y] * mx.w_hi[x];
      c.prolong_w[k + 2] = my.w_hi[y] * mx.w_lo[x];
      c.prolong_w[k + 3] = my.w_hi[y] * mx.w_hi[x];
    }
  }

  build_stencil(c);
  return c;
}

MultigridHierarchy::MultigridHierarchy(const ResistiveGrid& fine) {
  WSP_TRACE_SPAN("pdn.mg.build");
  Level l0;
  l0.width = fine.width();
  l0.height = fine.height();
  l0.g_east = fine.g_east_;
  l0.g_north = fine.g_north_;
  // Floating regions sit outside the fine stencil; cutting their edges
  // makes every coarse level see them as isolated nodes too.
  const std::vector<char> grounded = fine.grounded_nodes();
  for (int y = 0; y < l0.height; ++y)
    for (int x = 0; x < l0.width; ++x) {
      if (grounded[fine.index(x, y)]) continue;
      if (x < l0.width - 1) l0.g_east[fine.east_index(x, y)] = 0.0;
      if (y < l0.height - 1) l0.g_north[fine.north_index(x, y)] = 0.0;
    }
  l0.shunt_g = fine.shunt_g_;
  l0.dirichlet = fine.dirichlet_;
  // The fine level smooths the *original* equation (shunt references keep
  // their configured voltages), so reuse the grid's own stencil verbatim.
  l0.stencil[0] = fine.stencil_[0];
  l0.stencil[1] = fine.stencil_[1];
  for (int color = 0; color < 2; ++color)
    for (const auto& s : l0.stencil[color]) l0.active.push_back(s.node);
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
}

void MultigridHierarchy::build_direct_solver() {
  // Dense Cholesky of the coarsest level's error operator over its active
  // nodes.  The operator is a grounded resistor network's conductance
  // matrix: symmetric, diagonally dominant, positive definite as long as
  // every active component reaches a Dirichlet node or shunt — exactly the
  // condition for the nodal system to have a unique solution at all.
  const Level& bottom = levels_.back();
  const auto nodes = static_cast<std::size_t>(bottom.width) * bottom.height;
  direct_index_.assign(nodes, -1);
  direct_node_.clear();
  for (int color = 0; color < 2; ++color)
    for (const auto& s : bottom.stencil[color]) {
      direct_index_[s.node] = 0;  // mark active
    }
  for (std::size_t i = 0; i < nodes; ++i)
    if (direct_index_[i] == 0) {
      direct_index_[i] = static_cast<std::int32_t>(direct_node_.size());
      direct_node_.push_back(static_cast<std::int32_t>(i));
    }
  direct_n_ = static_cast<int>(direct_node_.size());
  if (direct_n_ == 0) return;  // all-Dirichlet bottom level: nothing to do

  const auto n = static_cast<std::size_t>(direct_n_);
  std::vector<double> a(n * n, 0.0);
  for (int color = 0; color < 2; ++color)
    for (const auto& s : bottom.stencil[color]) {
      const auto row = static_cast<std::size_t>(direct_index_[s.node]);
      a[row * n + row] = s.gsum;
      for (int k = 0; k < 4; ++k) {
        if (s.nbr[k] == s.node || s.g[k] <= 0.0) continue;
        const std::int32_t col = direct_index_[s.nbr[k]];
        if (col >= 0) a[row * n + col] -= s.g[k];
        // Edges to Dirichlet neighbours stay in the diagonal only: the
        // error there is pinned to zero.
      }
    }

  // In-place lower Cholesky (row-major).
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    require(d > 0.0,
            "multigrid coarsest operator is not positive definite — the "
            "grid has a floating region no Dirichlet node or shunt grounds");
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

MultigridHierarchy::Workspace MultigridHierarchy::make_workspace() const {
  Workspace ws;
  ws.r.resize(levels_.size());
  ws.v.resize(levels_.size());
  ws.sink.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto nodes =
        static_cast<std::size_t>(levels_[l].width) * levels_[l].height;
    ws.r[l].assign(nodes, 0.0);
    if (l > 0) {
      ws.v[l].assign(nodes, 0.0);
      ws.sink[l].assign(nodes, 0.0);
    }
  }
  ws.direct.assign(static_cast<std::size_t>(direct_n_), 0.0);
  return ws;
}

namespace {
// One color's KCL residual into r.  Only active nodes are written:
// Dirichlet/isolated entries rely on the workspace's zero initialization,
// which no path ever dirties.
void residual_color(const std::vector<ResistiveGrid::StencilNode>& st,
                    const double* v, const double* sink, double* r) {
  for (const auto& s : st)
    r[s.node] = s.flow(v) - s.gsum * v[s.node] - sink[s.node];
}
}  // namespace

void MultigridHierarchy::residual(const Level& level, const double* v,
                                  const double* sink, double* r) const {
  residual_color(level.stencil[0], v, sink, r);
  residual_color(level.stencil[1], v, sink, r);
}

void MultigridHierarchy::restrict_values(const Level& coarse,
                                         const double* fine_vals,
                                         double* coarse_out,
                                         double sign) const {
  // Full weighting (transpose of bilinear prolongation): coarse rhs is the
  // aggregated nodal current mismatch.  The grid's sink sign convention is
  // "amperes drawn out", so A e = r uses sign = -1.  Dirichlet coarse
  // nodes have an empty CSR slice and restrict to zero.
  const std::int32_t* off = coarse.restrict_off.data();
  const std::int32_t* idx = coarse.restrict_idx.data();
  const double* w = coarse.restrict_w.data();
  const auto nodes = static_cast<std::size_t>(coarse.width) * coarse.height;
  for (std::size_t ci = 0; ci < nodes; ++ci) {
    double acc = 0.0;
    for (std::int32_t j = off[ci]; j < off[ci + 1]; ++j)
      acc += w[j] * fine_vals[idx[j]];
    coarse_out[ci] = sign * acc;
  }
}

double MultigridHierarchy::prolong_correct(const Level& coarse,
                                           const Level& fine,
                                           const double* coarse_v,
                                           double* fine_v) const {
  // Bilinear interpolation of the coarse error into the fine level's
  // active nodes only — isolated fine nodes keep their untouched values,
  // exactly as the smoother leaves them.  Uses the flattened
  // per-node gather built at coarsening time.
  const std::int32_t* idx = coarse.prolong_idx.data();
  const double* w = coarse.prolong_w.data();
  double max_c = 0.0;
  for (const std::uint32_t node : fine.active) {
    const auto p = 4 * static_cast<std::size_t>(node);
    const double c = w[p + 0] * coarse_v[idx[p + 0]] +
                     w[p + 1] * coarse_v[idx[p + 1]] +
                     w[p + 2] * coarse_v[idx[p + 2]] +
                     w[p + 3] * coarse_v[idx[p + 3]];
    fine_v[node] += c;
    max_c = std::max(max_c, std::abs(c));
  }
  return max_c;
}

double MultigridHierarchy::solve_direct(Workspace& ws, const double* rhs,
                                        double sign, double* v) const {
  if (direct_n_ == 0) return 0.0;
  const auto n = static_cast<std::size_t>(direct_n_);
  for (std::size_t k = 0; k < n; ++k)
    ws.direct[k] = sign * rhs[direct_node_[k]];
  // L y = rhs, then L^T x = y, in place.
  for (std::size_t i = 0; i < n; ++i) {
    double s = ws.direct[i];
    for (std::size_t k = 0; k < i; ++k) s -= direct_l_[i * n + k] * ws.direct[k];
    ws.direct[i] = s / direct_l_[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = ws.direct[ii];
    for (std::size_t k = ii + 1; k < n; ++k)
      s -= direct_l_[k * n + ii] * ws.direct[k];
    ws.direct[ii] = s / direct_l_[ii * n + ii];
  }
  double max_x = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    v[direct_node_[k]] += ws.direct[k];
    max_x = std::max(max_x, std::abs(ws.direct[k]));
  }
  return max_x;
}

double MultigridHierarchy::cycle(std::size_t level, Workspace& ws, double* v,
                                 const double* sink) const {
  const Level& L = levels_[level];
  if (level + 1 == levels_.size()) {
    if (level == 0) {
      // Tiny fine grids: the error-equation direct solve replaces the
      // whole cycle (one residual, one Cholesky back-substitution).
      residual(L, v, sink, ws.r[0].data());
      return solve_direct(ws, ws.r[0].data(), 1.0, v);
    }
    // Coarse bottom level: solve A e = r (= -sink) exactly.
    return solve_direct(ws, sink, -1.0, v);
  }

  // Pre-smooth: the second color's residual falls out of its half-sweep,
  // so only the first color needs an explicit half-pass.
  double* r = ws.r[level].data();
  double max_update =
      ResistiveGrid::sweep_color(L.stencil[0], kSmoothOmega, v, sink);
  max_update = std::max(max_update, ResistiveGrid::sweep_color_residual(
                                        L.stencil[1], kSmoothOmega, v, sink,
                                        r));
  residual_color(L.stencil[0], v, sink, r);

  const Level& C = levels_[level + 1];
  restrict_values(C, r, ws.sink[level + 1].data(), -1.0);
  std::fill(ws.v[level + 1].begin(), ws.v[level + 1].end(), 0.0);
  cycle(level + 1, ws, ws.v[level + 1].data(), ws.sink[level + 1].data());
  max_update = std::max(
      max_update, prolong_correct(C, L, ws.v[level + 1].data(), v));
  return std::max(max_update, smooth(L.stencil, v, sink));
}

double MultigridHierarchy::v_cycle(Workspace& ws, double* v,
                                   const double* sink) const {
  WSP_TRACE_SPAN("pdn.mg.cycle");
  return cycle(0, ws, v, sink);
}

double MultigridHierarchy::fmg_bootstrap(Workspace& ws, double* v,
                                         const double* sink) const {
  WSP_TRACE_SPAN("pdn.mg.fmg");
  const std::size_t bottom = levels_.size() - 1;
  if (bottom == 0) return cycle(0, ws, v, sink);

  // Restrict the error-equation rhs of the caller's seed down the whole
  // chain.  At level l >= 1 the seed is zero, so the residual of
  // `A e = sink` is just -sink and the next rhs restricts directly from
  // the current one with a positive sign.
  residual(levels_[0], v, sink, ws.r[0].data());
  restrict_values(levels_[1], ws.r[0].data(), ws.sink[1].data(), -1.0);
  for (std::size_t l = 1; l < bottom; ++l)
    restrict_values(levels_[l + 1], ws.sink[l].data(),
                    ws.sink[l + 1].data(), 1.0);

  // Exact coarsest solve, then one V-cycle per level on the way up — each
  // level starts from the prolonged correction of the level below, so its
  // cycle only has to clean up interpolation error.  Deeper workspace
  // buffers are dead by the time cycle(l) reuses them as scratch.
  std::fill(ws.v[bottom].begin(), ws.v[bottom].end(), 0.0);
  solve_direct(ws, ws.sink[bottom].data(), -1.0, ws.v[bottom].data());
  for (std::size_t l = bottom; l-- > 1;) {
    std::fill(ws.v[l].begin(), ws.v[l].end(), 0.0);
    prolong_correct(levels_[l + 1], levels_[l], ws.v[l + 1].data(),
                    ws.v[l].data());
    cycle(l, ws, ws.v[l].data(), ws.sink[l].data());
  }
  const double max_update =
      prolong_correct(levels_[1], levels_[0], ws.v[1].data(), v);

  // Post-smooth the interpolated correction into the fine grid so the
  // bootstrap hands the first V-cycle the same kind of iterate it would
  // produce.
  return std::max(max_update, smooth(levels_[0].stencil, v, sink));
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

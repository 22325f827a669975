// Whole-wafer PDN tests: the Fig. 2 droop profile, the Sec. III strategy
// comparison, report aggregates and the quasi-static wafer transient.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/pdn/strategy.hpp"
#include "wsp/pdn/transient.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {
namespace {

SystemConfig full() { return SystemConfig::paper_prototype(); }

TEST(WaferPdn, Fig2_EdgeAndCenterVoltages) {
  // The headline Fig. 2 numbers: 2.5 V at the edge, ~1.4 V at the center
  // at peak draw.
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  ASSERT_TRUE(r.solver_converged);
  EXPECT_GT(r.max_supply_v, 2.3);   // edge tiles sit just below 2.5 V
  EXPECT_LE(r.max_supply_v, 2.5);
  EXPECT_NEAR(r.min_supply_v, 1.4, 0.1);  // center of the wafer
}

TEST(WaferPdn, Fig2_TotalCurrentMatchesTableI) {
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  // ~290-296 A of pass-through current (Sec. III "about 290 A").
  EXPECT_NEAR(r.total_supply_current_a, 296.7, 3.0);
}

TEST(WaferPdn, Fig2_ProfileDecreasesTowardCenter) {
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  const auto rings = WaferPdn::ring_profile(r, full().grid());
  ASSERT_GE(rings.size(), 16u);
  for (std::size_t i = 1; i < rings.size(); ++i)
    EXPECT_LT(rings[i], rings[i - 1]) << "ring " << i;
}

TEST(WaferPdn, Fig2_MidlineIsSymmetricAndValleyShaped) {
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  const auto line = WaferPdn::midline_profile(r, full().grid());
  ASSERT_EQ(line.size(), 32u);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_NEAR(line[i], line[31 - i], 5e-3) << i;
  // Valley: strictly decreasing to the middle.
  for (std::size_t i = 0; i + 1 < 16; ++i) EXPECT_GT(line[i], line[i + 1]);
}

TEST(WaferPdn, EveryTileStaysInRegulationAtPeak) {
  // The design goal: the wide-input LDO keeps all 1024 tiles regulated at
  // peak draw despite the droop.
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  EXPECT_EQ(r.tiles_out_of_regulation, 0);
  for (const TilePower& tp : r.tiles) {
    EXPECT_GE(tp.regulated_v, 1.0);
    EXPECT_LE(tp.regulated_v, 1.2);
  }
}

TEST(WaferPdn, LowActivityDroopsLess) {
  WaferPdn pdn(full(), {});
  const PdnReport idle = pdn.solve_uniform(0.1);
  WaferPdn pdn2(full(), {});
  const PdnReport peak = pdn2.solve_uniform(1.0);
  EXPECT_GT(idle.min_supply_v, peak.min_supply_v);
  EXPECT_LT(idle.total_supply_current_a, peak.total_supply_current_a);
}

TEST(WaferPdn, EnergyBalanceCloses) {
  // Input power = delivered + plane loss + LDO loss (within solver tol).
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(1.0);
  const double accounted =
      r.delivered_power_w + r.plane_loss_w + r.ldo_loss_w;
  EXPECT_NEAR(accounted / r.total_input_power_w, 1.0, 0.02);
}

TEST(WaferPdn, EnergyBalanceClosesOnEverySolveEntryPoint) {
  // Edge input power = delivered + plane loss + LDO loss, to the solver
  // tolerance, on every solve entry point.  Each LDO must be evaluated at
  // the load current the plane actually sank.
  const auto relative_error = [](const PdnReport& r) {
    const double accounted =
        r.delivered_power_w + r.plane_loss_w + r.ldo_loss_w;
    return std::abs(accounted / r.total_input_power_w - 1.0);
  };
  constexpr double kTol = 1e-5;
  for (const int side : {8, 32}) {
    const SystemConfig cfg = SystemConfig::reduced(side, side);
    const std::size_t tiles = cfg.grid().tile_count();
    Rng rng(static_cast<std::uint64_t>(side));
    // A random map with a fifth of the tiles unpowered.
    const auto random_map = [&] {
      std::vector<double> power(tiles);
      for (double& p : power)
        p = rng.bernoulli(0.2) ? 0.0 : rng.uniform() * cfg.tile_peak_power_w;
      return power;
    };

    WaferPdn cc(cfg, {});
    EXPECT_LE(relative_error(cc.solve_uniform(1.0)), kTol) << side;
    EXPECT_LE(relative_error(cc.solve_uniform(0.3)), kTol) << side;
    EXPECT_LE(relative_error(cc.solve(random_map())), kTol) << side;

    // Three warm-started epochs of a drifting map.
    std::vector<std::vector<double>> seeds(1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::vector<PdnReport> reports =
          cc.solve_batch_warm(std::vector<std::vector<double>>{random_map()},
                              seeds);
      EXPECT_LE(relative_error(reports[0]), kTol)
          << side << " epoch " << epoch;
    }
  }

  // A light load: one tile at peak on 8×8.  The edge current's truncation
  // error is fixed in volts, so the relative miss exceeds kTol here.  Every
  // converged report is instead checked inside the solve against its own
  // KCL residual: |input − accounted| <= max|v| · nodes · residual, plus
  // the round-off of summing the four terms.
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  std::vector<double> one_tile(cfg.grid().tile_count(), 0.0);
  one_tile[cfg.grid().index_of({4, 4})] = cfg.tile_peak_power_w;
  WaferPdn pdn(cfg, {});
  EXPECT_NO_THROW(pdn.solve(one_tile));
  std::vector<std::vector<double>> v(1);
  std::vector<SolveStats> stats;
  const PdnReport r = pdn.solve_batch_warm(
      std::vector<std::vector<double>>{one_tile}, v, &stats)[0];
  ASSERT_TRUE(stats[0].converged);
  double max_v = 0.0;
  for (const double x : v[0]) max_v = std::max(max_v, std::abs(x));
  const double nodes = static_cast<double>(v[0].size());
  const double magnitude = r.total_input_power_w + r.delivered_power_w +
                           r.plane_loss_w + r.ldo_loss_w;
  EXPECT_LE(std::abs(r.total_input_power_w - r.delivered_power_w -
                     r.plane_loss_w - r.ldo_loss_w),
            max_v * nodes * stats[0].residual +
                nodes * std::numeric_limits<double>::epsilon() * magnitude);
}

TEST(WaferPdn, MorePowerNeverRaisesAnyTileSupply) {
  // Maximum principle, tile by tile.  With Dirichlet edges the plane
  // operator is an M-matrix, so its inverse is elementwise non-negative:
  // drawing more current anywhere lowers (or keeps) the voltage at every
  // node.  ConstantCurrent loads are monotone in power, so under an
  // elementwise-larger power map no tile's supply may rise, up to the
  // stopping error of the two solves.
  for (const int n : {8, 32}) {
    const SystemConfig cfg = SystemConfig::reduced(n, n);
    const std::size_t tiles = cfg.grid().tile_count();
    const double peak = cfg.tile_peak_power_w;
    WaferPdnOptions opt;
    WaferPdn pdn(cfg, opt);
    const double slack = 10 * opt.solver_tol;
    Rng rng(static_cast<std::uint64_t>(n));
    double deepest_drop = 0.0;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> lower(tiles), higher(tiles);
      for (std::size_t i = 0; i < tiles; ++i) {
        lower[i] = peak * rng.uniform();
        higher[i] = lower[i] + (rng.below(3) == 0 ? peak * rng.uniform() : 0);
      }
      const PdnReport lo = pdn.solve(lower);
      const PdnReport hi = pdn.solve(higher);
      ASSERT_TRUE(lo.solver_converged && hi.solver_converged);
      for (std::size_t i = 0; i < tiles; ++i) {
        EXPECT_LE(hi.tiles[i].supply_v, lo.tiles[i].supply_v + slack)
            << n << "x" << n << " trial " << trial << " tile " << i;
        deepest_drop = std::max(
            deepest_drop, lo.tiles[i].supply_v - hi.tiles[i].supply_v);
      }
    }
    EXPECT_GT(deepest_drop, 1e-3) << n << "x" << n
                                  << ": the added power never showed up";
  }
}

TEST(WaferPdn, AggregatesAreTileOrderSums) {
  // The report's sums accumulate tile by tile in index order, so summing
  // the per-tile figures the same way reproduces them exactly.
  WaferPdn pdn(full(), {});
  const PdnReport r = pdn.solve_uniform(0.8);
  double ldo_loss = 0.0;
  for (const TilePower& t : r.tiles) ldo_loss += t.ldo_loss_w;
  EXPECT_EQ(r.ldo_loss_w, ldo_loss);
}

/// Every PdnReport field, per tile and aggregate, as raw bits.
std::vector<std::uint64_t> report_bits(const PdnReport& r) {
  std::vector<std::uint64_t> out;
  const auto put = [&](double x) {
    out.push_back(std::bit_cast<std::uint64_t>(x));
  };
  for (const TilePower& t : r.tiles) {
    put(t.supply_v);
    put(t.regulated_v);
    put(t.plane_current_a);
    put(t.ldo_loss_w);
    out.push_back(t.in_regulation);
  }
  for (const double x : {r.min_supply_v, r.max_supply_v,
                         r.total_supply_current_a, r.total_input_power_w,
                         r.plane_loss_w, r.ldo_loss_w, r.delivered_power_w,
                         r.efficiency})
    put(x);
  out.push_back(static_cast<std::uint64_t>(r.tiles_out_of_regulation));
  out.push_back(r.solver_converged);
  return out;
}

std::vector<double> random_power_map(const SystemConfig& cfg,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> power(cfg.grid().tile_count());
  for (double& p : power)
    p = cfg.tile_peak_power_w * (0.2 + 0.8 * rng.uniform());
  return power;
}

TEST(WaferPdn, ResolvingAConvergedWarmSeedIsIdempotent) {
  // A seed the FMG start moves by less than tol is returned unchanged with
  // iterations == 0, so re-solving a converged state is a fixed point
  // instead of one more step of a round-off random walk.
  for (const int n : {8, 32}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(n));
    const SystemConfig cfg = SystemConfig::reduced(n, n);
    WaferPdn pdn(cfg, {});
    const std::vector<std::vector<double>> maps{
        random_power_map(cfg, static_cast<std::uint64_t>(n))};
    std::vector<std::vector<double>> seeds(1);
    std::vector<SolveStats> stats;
    const PdnReport cold = pdn.solve_batch_warm(maps, seeds, &stats)[0];
    ASSERT_TRUE(cold.solver_converged);
    ASSERT_GT(stats[0].iterations, 0);
    const std::vector<double> converged = seeds[0];
    for (int again = 0; again < 3; ++again) {
      const PdnReport warm = pdn.solve_batch_warm(maps, seeds, &stats)[0];
      EXPECT_EQ(stats[0].iterations, 0) << "re-solve " << again;
      EXPECT_TRUE(stats[0].converged);
      EXPECT_LT(stats[0].max_delta_v, pdn.options().solver_tol);
      EXPECT_GT(stats[0].fine_sweep_equivalents, 0.0);  // the FMG start ran
      EXPECT_TRUE(seeds[0] == converged) << "re-solve " << again;
      EXPECT_EQ(report_bits(warm), report_bits(cold)) << "re-solve " << again;
    }
  }
}

TEST(WaferPdn, PerturbedWarmSeedRunsAVCycleAndReconverges) {
  // 10 x tol off the fixed point is more than the FMG start may absorb:
  // the solve iterates, converges, and lands back within tol.
  const SystemConfig cfg = SystemConfig::reduced(32, 32);
  WaferPdn pdn(cfg, {});
  const double tol = pdn.options().solver_tol;
  const std::vector<std::vector<double>> maps{random_power_map(cfg, 3)};
  std::vector<std::vector<double>> seeds(1);
  const PdnReport ref = pdn.solve_batch_warm(maps, seeds)[0];
  for (double& v : seeds[0]) v += 10 * tol;
  std::vector<SolveStats> stats;
  const PdnReport again = pdn.solve_batch_warm(maps, seeds, &stats)[0];
  EXPECT_GE(stats[0].iterations, 1);
  ASSERT_TRUE(stats[0].converged);
  for (std::size_t i = 0; i < ref.tiles.size(); ++i)
    EXPECT_NEAR(again.tiles[i].supply_v, ref.tiles[i].supply_v, tol) << i;
}

TEST(WaferPdn, IdleFloorMapSettlesOnItsFirstWarmResolve) {
  // The cosim loop's static reference: every healthy tile at the idle
  // floor (30% of peak, ActivityScale's default).  Its cold solve is
  // already a fixed point of the warm re-solve.
  for (const int n : {8, 32}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(n));
    const SystemConfig cfg = SystemConfig::reduced(n, n);
    WaferPdn pdn(cfg, {});
    const std::vector<std::vector<double>> maps{std::vector<double>(
        cfg.grid().tile_count(), 0.3 * cfg.tile_peak_power_w)};
    std::vector<std::vector<double>> seeds(1);
    std::vector<SolveStats> stats;
    const PdnReport cold = pdn.solve_batch_warm(maps, seeds, &stats)[0];
    ASSERT_GT(stats[0].iterations, 0);
    const PdnReport warm = pdn.solve_batch_warm(maps, seeds, &stats)[0];
    EXPECT_EQ(stats[0].iterations, 0);
    EXPECT_EQ(report_bits(warm), report_bits(cold));
  }
}

TEST(WaferPdn, ColdSolveAfterWarmEpochsMatchesAFreshModel) {
  // solve() is a one-map cold batch, so a model that has already run warm
  // epochs (and other cold solves) reports exactly what a fresh model
  // does.  A campaign trial shares one model between its brownout
  // re-solves and its coupled epochs on the strength of this.
  for (const int n : {8, 32}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(n));
    const SystemConfig cfg = SystemConfig::reduced(n, n);
    const std::vector<double> map = random_power_map(cfg, 17);
    WaferPdn used(cfg, {});
    used.solve_uniform(0.5);
    std::vector<std::vector<double>> seeds(1);
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      const std::vector<std::vector<double>> maps{
          random_power_map(cfg, 100 + epoch)};
      ASSERT_TRUE(used.solve_batch_warm(maps, seeds)[0].solver_converged);
    }
    const PdnReport after = used.solve(map);
    ASSERT_TRUE(after.solver_converged);
    EXPECT_EQ(report_bits(after), report_bits(WaferPdn(cfg, {}).solve(map)));
    EXPECT_EQ(report_bits(used.solve_uniform(1.0)),
              report_bits(WaferPdn(cfg, {}).solve_uniform(1.0)));
  }
}

TEST(WaferPdn, FewerPoweredEdgesDroopMore) {
  WaferPdnOptions all_edges;
  WaferPdnOptions two_edges;
  two_edges.powered_edges = {false, true, false, true};  // E + W only
  WaferPdn pdn4(full(), all_edges);
  WaferPdn pdn2(full(), two_edges);
  const double min4 = pdn4.solve_uniform(1.0).min_supply_v;
  const double min2 = pdn2.solve_uniform(1.0).min_supply_v;
  EXPECT_LT(min2, min4);
}

TEST(WaferPdn, RefinementIsConsistent) {
  WaferPdnOptions coarse;
  coarse.nodes_per_tile = 1;
  WaferPdnOptions fine;
  fine.nodes_per_tile = 3;
  const double min_c =
      WaferPdn(full(), coarse).solve_uniform(1.0).min_supply_v;
  const double min_f = WaferPdn(full(), fine).solve_uniform(1.0).min_supply_v;
  EXPECT_NEAR(min_c, min_f, 0.05);
}

TEST(WaferPdn, PerTilePowerVectorSupported) {
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  WaferPdn pdn(cfg, {});
  std::vector<double> power(64, 0.0);
  power[cfg.grid().index_of({4, 4})] = cfg.tile_peak_power_w;
  const PdnReport r = pdn.solve(power);
  ASSERT_TRUE(r.solver_converged);
  // Only one tile draws: droop is tiny and deepest at that tile.
  const double v_hot = r.tiles[cfg.grid().index_of({4, 4})].supply_v;
  EXPECT_EQ(r.min_supply_v, v_hot);
  EXPECT_GT(v_hot, 2.45);
  EXPECT_THROW(pdn.solve(std::vector<double>(3, 0.0)), Error);
}

TEST(WaferPdn, RejectsBadOptions) {
  WaferPdnOptions bad;
  bad.nodes_per_tile = 0;
  EXPECT_THROW(WaferPdn(full(), bad), Error);
  bad = {};
  bad.plane_slotting_factor = 0.5;
  EXPECT_THROW(WaferPdn(full(), bad), Error);
  bad = {};
  bad.powered_edges = {false, false, false, false};
  EXPECT_THROW(WaferPdn(full(), bad), Error);
  WaferPdn ok(full(), {});
  EXPECT_THROW(ok.solve_uniform(1.5), Error);
}

// --------------------------------------------------------- Sec. III study

TEST(Strategy, BuckLowersPlaneCurrentRoughlyTenfold) {
  const StrategyComparison cmp = compare_strategies(full());
  // Paper: down-conversion "would lower the current delivered through the
  // power planes by ~12x" (the exact factor depends on the converter
  // efficiency asumption; the model lands at V_buck*eff/V_ff ~ 9).
  EXPECT_GT(cmp.plane_current_ratio, 7.0);
  EXPECT_LT(cmp.plane_current_ratio, 13.0);
}

TEST(Strategy, BuckPlaneLossIsQuadraticallySmaller) {
  const StrategyComparison cmp = compare_strategies(full());
  const double ratio = cmp.ldo.plane_loss_w / cmp.buck.plane_loss_w;
  EXPECT_NEAR(ratio, cmp.plane_current_ratio * cmp.plane_current_ratio,
              ratio * 0.05);
}

TEST(Strategy, BuckPaysAreaLdoPaysEfficiency) {
  const StrategyComparison cmp = compare_strategies(full());
  // The paper's trade-off: buck burns 25-30 % of the wafer area, the LDO
  // scheme none; buck delivers power more efficiently.
  EXPECT_GE(cmp.buck.area_overhead_fraction, 0.25);
  EXPECT_LE(cmp.buck.area_overhead_fraction, 0.30);
  EXPECT_EQ(cmp.ldo.area_overhead_fraction, 0.0);
  EXPECT_GT(cmp.buck.efficiency, cmp.ldo.efficiency);
  // The LDO scheme still delivers every watt the logic needs: the peak
  // 350 mW/tile is specified at the 1.21 V FF corner; at the regulated
  // ~1.1 V output the same pass-through current carries 350 * 1.1/1.21 mW.
  const double expected = 1024 * 0.350 * (1.1 / 1.21);
  EXPECT_NEAR(cmp.ldo.delivered_power_w, expected, expected * 0.05);
}

TEST(Strategy, BuckDroopIsNegligible) {
  const StrategyComparison cmp = compare_strategies(full());
  const double ldo_droop = 2.5 - cmp.ldo.min_tile_supply_v;
  const double buck_droop = 12.0 - cmp.buck.min_tile_supply_v;
  EXPECT_LT(buck_droop, ldo_droop / 5.0);
}

TEST(Strategy, SubKwSystemTotalPowerIsSane) {
  const StrategyComparison cmp = compare_strategies(full());
  // "this prototype is a sub-kW system".
  EXPECT_LT(cmp.ldo.input_power_w, 1000.0);
  EXPECT_GT(cmp.ldo.input_power_w, 400.0);
}


// ----------------------------------------------- precondition hardening

// Every rejected input names its violation with a stable message: these
// are load-bearing for callers that surface solver errors verbatim.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no wsp::Error thrown)";
}

TEST(WaferPdnPreconditions, SolveUniformRejectsNonFiniteActivity) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(thrown_message([&] { pdn.solve_uniform(nan); }),
            "activity must be finite");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(thrown_message([&] { pdn.solve_uniform(inf); }),
            "activity must be finite");
}

TEST(WaferPdnPreconditions, SolveUniformRejectsOutOfRangeActivity) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  EXPECT_EQ(thrown_message([&] { pdn.solve_uniform(-0.1); }),
            "activity must be in [0,1]");
  EXPECT_EQ(thrown_message([&] { pdn.solve_uniform(1.5); }),
            "activity must be in [0,1]");
}

TEST(WaferPdnPreconditions, SolveRejectsWrongLengthPowerMap) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  EXPECT_EQ(thrown_message([&] { pdn.solve(std::vector<double>(3, 0.0)); }),
            "tile power vector size mismatch");
}

TEST(WaferPdnPreconditions, SolveRejectsNegativeOrNaNPower) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  std::vector<double> power(16, 1.0);
  power[5] = -1.0;
  EXPECT_EQ(thrown_message([&] { pdn.solve(power); }),
            "tile power must be finite and non-negative");
  power[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(thrown_message([&] { pdn.solve(power); }),
            "tile power must be finite and non-negative");
}

TEST(WaferPdnPreconditions, SolveBatchValidatesEveryMap) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  std::vector<std::vector<double>> maps(2, std::vector<double>(16, 1.0));
  maps[1][3] = -2.0;  // second map bad: the batch must still reject
  EXPECT_EQ(thrown_message([&] { pdn.solve_batch(maps); }),
            "tile power must be finite and non-negative");
  maps[1] = std::vector<double>(7, 1.0);
  EXPECT_EQ(thrown_message([&] { pdn.solve_batch(maps); }),
            "tile power vector size mismatch");
}

TEST(WaferPdnPreconditions, SolveBatchWarmValidatesSeeds) {
  WaferPdn pdn(SystemConfig::reduced(4, 4), {});
  std::vector<std::vector<double>> maps(2, std::vector<double>(16, 1.0));
  std::vector<std::vector<double>> seeds(1);
  EXPECT_EQ(thrown_message([&] { pdn.solve_batch_warm(maps, seeds); }),
            "warm-start seed count must match power maps");
  seeds.assign(2, std::vector<double>(3, 0.0));
  EXPECT_EQ(thrown_message([&] { pdn.solve_batch_warm(maps, seeds); }),
            "warm-start seed length must equal node_count()");
}

TEST(WaferTransient, EpochsMatchIndependentSolves) {
  // Each epoch is one steady-state plane solve: its figures equal a
  // WaferPdn::solve on that epoch's map bit for bit.
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  const auto tiles = static_cast<std::size_t>(cfg.total_tiles());
  std::vector<std::vector<double>> maps;
  maps.emplace_back(tiles, 0.3 * cfg.tile_peak_power_w);
  maps.emplace_back(tiles, cfg.tile_peak_power_w);
  maps.emplace_back(tiles, 0.0);
  for (std::size_t i = 0; i < tiles; i += 3)
    maps[2][i] = cfg.tile_peak_power_w;

  WaferPdn batch_pdn(cfg, {});
  const double epoch_s = 2.5e-6;
  const WaferTransientResult result =
      simulate_wafer_transient(batch_pdn, maps, epoch_s);
  ASSERT_EQ(result.epochs.size(), maps.size());

  WaferPdn solo_pdn(cfg, {});
  double worst_min = std::numeric_limits<double>::infinity();
  int worst_oor = 0;
  bool all_converged = true;
  for (std::size_t e = 0; e < maps.size(); ++e) {
    const PdnReport r = solo_pdn.solve(maps[e]);
    const WaferTransientEpoch& ep = result.epochs[e];
    EXPECT_EQ(ep.t_s, static_cast<double>(e) * epoch_s);
    EXPECT_EQ(ep.min_supply_v, r.min_supply_v) << "epoch " << e;
    EXPECT_EQ(ep.max_supply_v, r.max_supply_v) << "epoch " << e;
    EXPECT_EQ(ep.tiles_out_of_regulation, r.tiles_out_of_regulation);
    EXPECT_EQ(ep.converged, r.solver_converged);
    worst_min = std::min(worst_min, r.min_supply_v);
    worst_oor = std::max(worst_oor, r.tiles_out_of_regulation);
    all_converged = all_converged && r.solver_converged;
  }
  EXPECT_EQ(result.worst_min_supply_v, worst_min);
  EXPECT_EQ(result.worst_tiles_out_of_regulation, worst_oor);
  EXPECT_EQ(result.all_converged, all_converged);
  EXPECT_TRUE(result.all_converged);
  // The full-power epoch droops deepest.
  EXPECT_EQ(result.worst_min_supply_v, result.epochs[1].min_supply_v);
}

TEST(WaferTransient, RejectsBadArguments) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  WaferPdn pdn(cfg, {});
  const std::vector<std::vector<double>> maps(
      1, std::vector<double>(static_cast<std::size_t>(cfg.total_tiles()),
                             1.0));
  EXPECT_EQ(thrown_message([&] { simulate_wafer_transient(pdn, maps, 0.0); }),
            "epoch duration must be positive");
  EXPECT_EQ(
      thrown_message([&] { simulate_wafer_transient(pdn, maps, -1e-6); }),
      "epoch duration must be positive");
  EXPECT_EQ(thrown_message([&] { simulate_wafer_transient(pdn, {}, 1e-6); }),
            "at least one epoch power map needed");
}

}  // namespace
}  // namespace wsp::pdn

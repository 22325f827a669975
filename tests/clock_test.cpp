// Tests for Sec. IV: PLL, clock selection FSM, waferscale forwarding
// (Fig. 4) and duty-cycle distortion handling.
#include <gtest/gtest.h>

#include "clock_oracles.hpp"
#include "wsp/clock/duty_cycle.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/clock/pll.hpp"
#include "wsp/clock/selector.hpp"
#include "wsp/common/error.hpp"

namespace wsp::clock {
namespace {

SystemConfig cfg() { return SystemConfig::paper_prototype(); }

// ------------------------------------------------------------------- PLL

TEST(Pll, GeneratesFastClockFromSlowReference) {
  const Pll pll(cfg());
  const PllResult r = pll.generate(50e6, 350e6, 0.01);
  ASSERT_TRUE(r.locked) << r.failure_reason;
  EXPECT_NEAR(r.output_hz, 350e6, 1.0);  // 7 x 50 MHz
}

TEST(Pll, SnapsToNearestIntegerMultiple) {
  const Pll pll(cfg());
  const PllResult r = pll.generate(100e6, 320e6, 0.01);
  ASSERT_TRUE(r.locked);
  EXPECT_NEAR(r.output_hz, 300e6, 1.0);  // round(3.2) = 3
}

TEST(Pll, RejectsInputOutsideCaptureRange) {
  const Pll pll(cfg());
  EXPECT_FALSE(pll.generate(5e6, 300e6, 0.01).locked);    // below 10 MHz
  EXPECT_FALSE(pll.generate(200e6, 300e6, 0.01).locked);  // above 133 MHz
}

TEST(Pll, RejectsTargetsAbove400MHz) {
  const Pll pll(cfg());
  EXPECT_FALSE(pll.generate(100e6, 450e6, 0.01).locked);
}

TEST(Pll, RejectsNoisySupply) {
  // The center-of-wafer regulated supply fluctuates 1.0-1.2 V (0.2 Vpp),
  // which is why only edge tiles can host the generator.
  const Pll pll(cfg());
  EXPECT_FALSE(pll.generate(50e6, 300e6, 0.2).locked);
  EXPECT_TRUE(pll.generate(50e6, 300e6, 0.02).locked);
}

// --------------------------------------------------------------- selector

TEST(ClockSelector, BootsOnJtagClock) {
  const ClockSelector sel;
  EXPECT_EQ(sel.phase(), SelectorPhase::Boot);
  EXPECT_EQ(sel.selected(), ClockSource::Jtag);
  EXPECT_EQ(sel.toggle_threshold(), 16);
}

TEST(ClockSelector, SelectsFirstInputReachingToggleCount) {
  ClockSelector sel(4);
  sel.begin_auto_select();
  // Only the East input toggles.
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(sel.step({false, true, false, false}).has_value());
  const auto locked = sel.step({false, true, false, false});
  ASSERT_TRUE(locked.has_value());
  EXPECT_EQ(*locked, ClockSource::ForwardedE);
  EXPECT_EQ(sel.phase(), SelectorPhase::Locked);
}

TEST(ClockSelector, LaterStarterCannotOvertake) {
  ClockSelector sel(4);
  sel.begin_auto_select();
  // South starts 2 steps before West.
  sel.step({false, false, true, false});
  sel.step({false, false, true, false});
  sel.step({false, false, true, true});
  const auto locked = sel.step({false, false, true, true});
  ASSERT_TRUE(locked.has_value());
  EXPECT_EQ(*locked, ClockSource::ForwardedS);
}

TEST(ClockSelector, SimultaneousArrivalBreaksTiesByPortPriority) {
  ClockSelector sel(2);
  sel.begin_auto_select();
  sel.step({true, true, true, true});
  const auto locked = sel.step({true, true, true, true});
  ASSERT_TRUE(locked.has_value());
  EXPECT_EQ(*locked, ClockSource::ForwardedN);  // N has arbiter priority
}

TEST(ClockSelector, SelectionIsSticky) {
  ClockSelector sel(1);
  sel.begin_auto_select();
  ASSERT_TRUE(sel.step({false, false, false, true}).has_value());
  // Later activity on other ports does not change the selection.
  const auto still = sel.step({true, true, true, false});
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(*still, ClockSource::ForwardedW);
}

TEST(ClockSelector, ForceSelectForEdgeGenerators) {
  ClockSelector sel;
  sel.force_select(ClockSource::Master);
  EXPECT_EQ(sel.phase(), SelectorPhase::Locked);
  EXPECT_EQ(sel.selected(), ClockSource::Master);
}

TEST(ClockSelector, CannotRestartAutoSelectAfterLock) {
  ClockSelector sel;
  sel.force_select(ClockSource::Master);
  EXPECT_THROW(sel.begin_auto_select(), Error);
}

TEST(ClockSelector, DirectionSourceMapping) {
  for (Direction d : kAllDirections)
    EXPECT_EQ(direction_of(forwarded_from(d)), d);
  EXPECT_FALSE(direction_of(ClockSource::Jtag).has_value());
  EXPECT_FALSE(direction_of(ClockSource::Master).has_value());
}

// ------------------------------------------------------------- forwarding

TEST(Forwarding, HealthyWaferFullyClocked) {
  const TileGrid grid(8, 8);
  const FaultMap faults(grid);
  const ForwardingPlan plan = simulate_forwarding(faults, {{0, 0}});
  EXPECT_EQ(plan.reached_count, 64u);
  EXPECT_EQ(plan.unreached_healthy_count, 0u);
  EXPECT_EQ(plan.max_hops, 14);  // Manhattan radius from the corner
}

TEST(Forwarding, HopCountsAreManhattanDistancesOnHealthyWafer) {
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  const TileCoord gen{0, 2};
  const ForwardingPlan plan = simulate_forwarding(faults, {gen});
  grid.for_each([&](TileCoord c) {
    const auto& st = plan.tiles[grid.index_of(c)];
    EXPECT_EQ(st.hops_from_generator,
              std::abs(c.x - gen.x) + std::abs(c.y - gen.y));
  });
}

TEST(Forwarding, Fig4_ScenarioReproduced) {
  // The paper's 8x8 example: six faulty tiles, exactly one healthy tile
  // (all four neighbours faulty) cannot receive the forwarded clock.
  const Fig4Scenario sc = make_fig4_scenario();
  EXPECT_EQ(sc.faults.fault_count(), 6u);
  EXPECT_TRUE(sc.faults.all_neighbors_faulty(sc.isolated_tile));
  const ForwardingPlan plan = simulate_forwarding(sc.faults, {sc.generator});
  EXPECT_EQ(plan.unreached_healthy_count, 1u);
  ASSERT_EQ(plan.unreached_healthy.size(), 1u);
  EXPECT_EQ(plan.unreached_healthy[0], sc.isolated_tile);
}

TEST(Forwarding, Fig4_TileWithThreeFaultyNeighborsStillClocked) {
  // The paper's tile "3": three faulty neighbours, one healthy — clocked.
  const Fig4Scenario sc = make_fig4_scenario();
  const TileGrid& grid = sc.faults.grid();
  const TileCoord three_faulty{5, 5};
  int faulty_neighbors = 0;
  for (TileCoord n : grid.neighbors(three_faulty))
    if (sc.faults.is_faulty(n)) ++faulty_neighbors;
  ASSERT_EQ(faulty_neighbors, 3);
  const ForwardingPlan plan = simulate_forwarding(sc.faults, {sc.generator});
  EXPECT_TRUE(plan.tiles[grid.index_of(three_faulty)].reached);
}

TEST(Forwarding, NoSinglePointOfFailureInGeneration) {
  // Any healthy edge tile can generate: pick several and verify coverage.
  const TileGrid grid(8, 8);
  const FaultMap faults(grid);
  for (TileCoord gen : {TileCoord{0, 0}, TileCoord{7, 7}, TileCoord{3, 0},
                        TileCoord{0, 5}}) {
    const ForwardingPlan plan = simulate_forwarding(faults, {gen});
    EXPECT_EQ(plan.reached_count, 64u);
  }
}

TEST(Forwarding, MultipleGeneratorsReduceDepth) {
  const TileGrid grid(16, 16);
  const FaultMap faults(grid);
  const ForwardingPlan one = simulate_forwarding(faults, {{0, 0}});
  const ForwardingPlan four = simulate_forwarding(
      faults, {{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  EXPECT_LT(four.max_hops, one.max_hops);
  EXPECT_EQ(four.reached_count, 256u);
}

TEST(Forwarding, GeneratorMustBeHealthyEdgeTile) {
  const TileGrid grid(8, 8);
  FaultMap faults(grid);
  EXPECT_THROW(simulate_forwarding(faults, {{4, 4}}), Error);  // not edge
  faults.set_faulty({0, 0});
  EXPECT_THROW(simulate_forwarding(faults, {{0, 0}}), Error);  // faulty
  EXPECT_THROW(simulate_forwarding(faults, {}), Error);        // none
}

TEST(Forwarding, InversionParityAlternatesAlongTree) {
  const TileGrid grid(5, 5);
  const FaultMap faults(grid);
  const ForwardingPlan plan = simulate_forwarding(faults, {{0, 0}});
  grid.for_each([&](TileCoord c) {
    const auto& st = plan.tiles[grid.index_of(c)];
    EXPECT_EQ(st.inverted, st.hops_from_generator % 2 != 0);
  });
}

TEST(Forwarding, SelectedInputPointsAtAnEarlierTile) {
  Rng rng(21);
  const TileGrid grid(10, 10);
  const FaultMap faults = FaultMap::random_with_count(grid, 8, rng);
  std::vector<TileCoord> gens;
  grid.for_each([&](TileCoord c) {
    if (grid.is_edge(c) && faults.is_healthy(c) && gens.empty()) gens.push_back(c);
  });
  const ForwardingPlan plan = simulate_forwarding(faults, gens);
  grid.for_each([&](TileCoord c) {
    const auto& st = plan.tiles[grid.index_of(c)];
    if (!st.reached || st.is_generator) return;
    ASSERT_TRUE(st.selected_input.has_value());
    const TileCoord upstream = step(c, *st.selected_input);
    const auto& up = plan.tiles[grid.index_of(upstream)];
    EXPECT_TRUE(up.reached);
    EXPECT_LT(up.lock_time, st.lock_time);
    EXPECT_EQ(st.hops_from_generator, up.hops_from_generator + 1);
  });
}

// Property (the paper's induction argument): forwarding reaches exactly
// the healthy tiles BFS-connected to a generator, for random fault maps.
class ForwardingReachability
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ForwardingReachability, MatchesBfsOracle) {
  const auto [seed, nfaults] = GetParam();
  Rng rng(seed);
  const TileGrid grid(12, 12);
  FaultMap faults = FaultMap::random_with_count(
      grid, static_cast<std::size_t>(nfaults), rng);
  // Find a healthy edge generator.
  std::vector<TileCoord> gens;
  grid.for_each([&](TileCoord c) {
    if (gens.empty() && grid.is_edge(c) && faults.is_healthy(c))
      gens.push_back(c);
  });
  ASSERT_FALSE(gens.empty());
  const ForwardingPlan plan = simulate_forwarding(faults, gens);
  EXPECT_TRUE(reachability_matches_bfs(faults, gens, plan));
}

INSTANTIATE_TEST_SUITE_P(
    RandomMaps, ForwardingReachability,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234, 777),
                       ::testing::Values(0, 3, 10, 30, 60)));

// ------------------------------------------------------------- duty cycle

TEST(DutyCycle, NaiveForwardingDiesWithinTenTiles) {
  // Paper: "a 5% distortion per tile could kill the clock within just 10
  // tiles".
  DutyCycleOptions opt;
  opt.inverted_forwarding = false;
  opt.dcc_enabled = false;
  opt.distortion_per_hop = 0.05;
  const DutyCycleTrace trace = propagate_duty_cycle(20, opt);
  EXPECT_FALSE(trace.clock_alive);
  EXPECT_LE(trace.died_at_hop, 10);
  EXPECT_GT(trace.died_at_hop, 0);
}

TEST(DutyCycle, InvertedForwardingBoundsExcursion) {
  DutyCycleOptions opt;
  opt.inverted_forwarding = true;
  opt.dcc_enabled = false;
  opt.distortion_per_hop = 0.05;
  // 62 hops: the worst-case forwarding depth on the 32x32 wafer.
  const DutyCycleTrace trace = propagate_duty_cycle(62, opt);
  EXPECT_TRUE(trace.clock_alive);
  EXPECT_LE(trace.worst_excursion, 0.05 + 1e-12);
}

TEST(DutyCycle, DccShrinksResidualDistortion) {
  DutyCycleOptions no_dcc;
  no_dcc.dcc_enabled = false;
  DutyCycleOptions dcc;
  dcc.dcc_enabled = true;
  const DutyCycleTrace a = propagate_duty_cycle(62, no_dcc);
  const DutyCycleTrace b = propagate_duty_cycle(62, dcc);
  EXPECT_LT(b.worst_excursion, a.worst_excursion);
  EXPECT_TRUE(b.clock_alive);
}

TEST(DutyCycle, ZeroHopsIsIdeal) {
  const DutyCycleTrace trace = propagate_duty_cycle(0, {});
  EXPECT_TRUE(trace.clock_alive);
  EXPECT_EQ(trace.duty_per_hop.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.duty_per_hop[0], 0.5);
}

TEST(DutyCycle, WaferReportAllAliveWithPaperDesign) {
  // Full design (inversion + DCC) on a 32x32 wafer: every reached tile
  // has a usable clock.
  const TileGrid grid(32, 32);
  const FaultMap faults(grid);
  const ForwardingPlan plan = simulate_forwarding(faults, {{0, 0}});
  const WaferDutyReport report = analyze_plan_duty(plan, grid, {});
  EXPECT_EQ(report.dead_tiles, 0u);
  EXPECT_LT(report.worst_excursion, 0.06);
}

TEST(DutyCycle, WaferReportNaiveDesignKillsFarTiles) {
  const TileGrid grid(32, 32);
  const FaultMap faults(grid);
  const ForwardingPlan plan = simulate_forwarding(faults, {{0, 0}});
  DutyCycleOptions naive;
  naive.inverted_forwarding = false;
  naive.dcc_enabled = false;
  const WaferDutyReport report = analyze_plan_duty(plan, grid, naive);
  // Everything beyond ~9 hops is dead: the vast majority of the wafer.
  EXPECT_GT(report.dead_tiles, 900u);
}

TEST(DutyCycle, RejectsBadOptions) {
  DutyCycleOptions opt;
  opt.distortion_per_hop = 0.6;
  EXPECT_THROW(propagate_duty_cycle(5, opt), Error);
  opt = {};
  opt.dcc_correction_strength = 1.5;
  EXPECT_THROW(propagate_duty_cycle(5, opt), Error);
  EXPECT_THROW(propagate_duty_cycle(-1, {}), Error);
}

// Property sweep: with inversion enabled the clock survives arbitrarily
// deep forwarding for any per-hop distortion below the pulse limit.
class InversionSurvives : public ::testing::TestWithParam<double> {};

TEST_P(InversionSurvives, DeepChains) {
  DutyCycleOptions opt;
  opt.inverted_forwarding = true;
  opt.dcc_enabled = false;
  opt.distortion_per_hop = GetParam();
  const DutyCycleTrace trace = propagate_duty_cycle(200, opt);
  EXPECT_TRUE(trace.clock_alive) << "d=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Distortions, InversionSurvives,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace wsp::clock

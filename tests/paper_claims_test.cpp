// Paper-claims regression suite (CTest label: paper).
//
// Golden assertions tying the model to the headline numbers of
// "Designing a 2048-Chiplet, 14336-Core Waferscale Processor" (DAC'21),
// as tabulated in EXPERIMENTS.md.  Each test states the paper value, the
// value this codebase reproduces, and the tolerance with a rationale.
// Tolerances are deliberately asymmetric in places: the *model-vs-model*
// bound is tight (these are deterministic solves — a drift means a code
// change altered the physics), while the *model-vs-paper* bound is loose
// (the paper gives rounded plot-derived values).
//
// Covered claims:
//   - Fig. 2 / Sec. III-B: edge-2.5 V supply droops to ~1.4 V at wafer
//     center under full activity; ~290 A total supply current.
//   - Fig. 7: protocol + relaying cost under faults — all traffic still
//     completes, relayed share grows with fault count (~10% at 20 faults).
//   - Table 1: 150 um^2 I/O cell, 2020 I/Os per compute chiplet
//     (~0.30 mm^2), ~15,100 mm^2 total wafer area.
//   - Fig. 9/10: 12.88 Gbit memory load takes ~2.51 h on one 10 MHz JTAG
//     chain, 32 chains give exactly 32x, broadcast gives 14x.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "stat_oracles.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/io/io_cell.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/pdn/wafer_pdn.hpp"
#include "wsp/testinfra/test_time.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

// ------------------------------------------------------- Fig. 2: PDN droop

class PdnDroopClaims : public ::testing::Test {
 protected:
  // One full-wafer solve shared by the droop assertions (the uniform
  // solve at activity 1.0 is the paper's worst-case operating point).
  static void SetUpTestSuite() {
    config_ = new SystemConfig(SystemConfig::paper_prototype());
    pdn_ = new pdn::WaferPdn(*config_, {});
    report_ = new pdn::PdnReport(pdn_->solve_uniform(1.0));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete pdn_;
    delete config_;
    report_ = nullptr;
    pdn_ = nullptr;
    config_ = nullptr;
  }

  static SystemConfig* config_;
  static pdn::WaferPdn* pdn_;
  static pdn::PdnReport* report_;
};

SystemConfig* PdnDroopClaims::config_ = nullptr;
pdn::WaferPdn* PdnDroopClaims::pdn_ = nullptr;
pdn::PdnReport* PdnDroopClaims::report_ = nullptr;

TEST_F(PdnDroopClaims, EdgeVoltageMatchesSupply) {
  // Paper: wafer edge is held at 2.5 V by the off-wafer supply.  Model
  // reproduces 2.498 V (first plane node sits behind one mesh segment).
  // Tight 1% bound vs the configured supply.
  EXPECT_NEAR(report_->max_supply_v, config_->edge_supply_voltage_v,
              0.01 * config_->edge_supply_voltage_v);
}

TEST_F(PdnDroopClaims, CenterDroopsToRegulationFloor) {
  // Paper (Fig. 2): center of the wafer droops to ~1.4 V, which is why
  // every tile carries an LDO and the chiplets run off a regulated rail.
  // Model reproduces 1.456 V; accept 1.35..1.55 V (plot-derived paper
  // value is one significant digit).
  EXPECT_GE(report_->min_supply_v, 1.35);
  EXPECT_LE(report_->min_supply_v, 1.55);
  // And the droop must still clear the configured regulation floor —
  // zero tiles out of regulation at full activity.
  EXPECT_GE(report_->min_supply_v, config_->min_center_supply_v);
  EXPECT_EQ(report_->tiles_out_of_regulation, 0);
}

TEST_F(PdnDroopClaims, TotalSupplyCurrentNearPaperValue) {
  // Paper (Sec. III-B): ~290 A drawn from the edge supply at full
  // activity.  Model reproduces 296.7 A; 5% bound covers the paper's
  // rounding and our slightly different per-tile power split.
  EXPECT_NEAR(report_->total_supply_current_a, 290.0, 0.05 * 290.0);
}

TEST_F(PdnDroopClaims, MidlineProfileDroopsMonotonicallyTowardCenter) {
  // The droop is spatial: walking the horizontal midline from the edge
  // to the center, plane voltage must decrease monotonically (within a
  // solver-tolerance epsilon), then rise again symmetrically.
  const auto profile =
      pdn::WaferPdn::midline_profile(*report_, config_->grid());
  ASSERT_GE(profile.size(), 8u);
  const std::size_t mid = profile.size() / 2;
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i + 1 <= mid && i + 1 < profile.size(); ++i)
    EXPECT_LE(profile[i + 1], profile[i] + kEps) << "at midline index " << i;
  EXPECT_NEAR(profile.front(), report_->max_supply_v, 0.05);
  EXPECT_NEAR(*std::min_element(profile.begin(), profile.end()),
              report_->min_supply_v, 0.05);
}

TEST_F(PdnDroopClaims, Fig2HoldsUnderMultigridSolver) {
  // The Fig. 2 claims are about the wafer, not the solver tolerance:
  // re-running the worst-case operating point at a tighter tolerance must
  // reproduce the same droop profile to within solver tolerance.
  pdn::WaferPdnOptions opt;
  opt.solver_tol = 1e-9;
  pdn::WaferPdn mg_pdn(*config_, opt);
  const pdn::PdnReport mg = mg_pdn.solve_uniform(1.0);
  ASSERT_TRUE(mg.solver_converged);
  EXPECT_NEAR(mg.max_supply_v, report_->max_supply_v, 1e-5);
  EXPECT_NEAR(mg.min_supply_v, report_->min_supply_v, 1e-5);
  EXPECT_NEAR(mg.total_supply_current_a, report_->total_supply_current_a,
              1e-2);
  EXPECT_EQ(mg.tiles_out_of_regulation, 0);
}

TEST_F(PdnDroopClaims, LowerActivityRaisesCenterVoltage) {
  // Sanity on the IR-drop physics: quartering the activity factor must
  // raise the center voltage substantially (model: ~1.46 V -> ~2.24 V).
  const pdn::PdnReport quarter = pdn_->solve_uniform(0.25);
  EXPECT_GT(quarter.min_supply_v, report_->min_supply_v + 0.3);
  EXPECT_LE(quarter.max_supply_v, config_->edge_supply_voltage_v + 1e-9);
}

// --------------------------------------- Fig. 7: relaying cost under faults

TEST(Fig7RelayingClaims, FaultsAddRelayingButEverythingStillCompletes) {
  // Exact recipe of bench_noc_traffic's Fig. 7 table: 32x32 wafer,
  // fault maps of growing size from one seeded stream, fixed traffic
  // seed, injection 0.002, 500 cycles.  Paper claim: the interconnect
  // tolerates faulty tiles by relaying around them at a modest protocol
  // cost; nothing becomes unreachable.
  Rng seed_rng(77);
  std::uint64_t prev_relayed = 0;
  for (const std::size_t n : {0u, 2u, 5u, 10u, 20u}) {
    const FaultMap faults =
        FaultMap::random_with_count(TileGrid(32, 32), n, seed_rng);
    noc::NocSystem noc{faults};
    noc::TrafficConfig cfg;
    cfg.injection_rate = 0.002;
    const auto gen = workloads::make_synthetic(cfg, faults, Rng(3));
    const noc::TrafficReport r =
        workloads::run_workload_traffic(noc, *gen, 500).report;

    // Every issued transaction completes; none are unreachable.
    EXPECT_EQ(r.completed, r.issued) << "faults=" << n;
    EXPECT_EQ(r.unreachable, 0u) << "faults=" << n;
    EXPECT_GT(r.issued, 0u) << "faults=" << n;

    // Uniform traffic picks each ordered healthy pair alike, and a pair is
    // relayed exactly when neither DoR path survives, so the relayed count
    // is Binomial(issued, dual_pct / 100).  Demand a relay only where the
    // census expects at least 14 (a zero count then has odds below 1e-6).
    const std::uint64_t relayed = noc.stats().relayed;
    const double p_relay = noc::census_disconnection(faults).dual_pct() / 100.0;
    EXPECT_TRUE(oracle::binomial_consistent(r.issued, p_relay, relayed))
        << "faults=" << n << ": " << relayed << " relayed of " << r.issued
        << " at p = " << p_relay;
    if (n == 0) {
      // A fault-free wafer never relays.
      EXPECT_EQ(relayed, 0u);
    } else if (static_cast<double>(r.issued) * p_relay >= 14.0) {
      EXPECT_GT(relayed, 0u) << "faults=" << n;
    }
    // Relaying grows (weakly) with fault count under this fixed seed.
    EXPECT_GE(relayed, prev_relayed) << "faults=" << n;
    prev_relayed = relayed;

    if (n == 20) {
      // Golden point: at 20 faulty tiles ~10% of completed transactions
      // needed relaying (model: 93 / 962).  Accept 5..20% — the share
      // is seed-dependent but its magnitude is the paper's claim: a
      // minority protocol cost, not a cliff.
      const double share =
          static_cast<double>(relayed) / static_cast<double>(r.completed);
      EXPECT_GE(share, 0.05);
      EXPECT_LE(share, 0.20);
    }
  }
}

// ----------------------------------------------------- Table 1: I/O + area

TEST(Table1AreaClaims, IoCellAndPerChipletArea) {
  const SystemConfig cfg = SystemConfig::paper_prototype();
  // Paper (Table 1): 150 um^2 per I/O cell.
  EXPECT_DOUBLE_EQ(cfg.io_cell_area_m2, 150e-12);
  // Paper: 2020 I/Os per compute chiplet -> ~0.30 mm^2 of I/O area.
  EXPECT_EQ(cfg.ios_per_compute_chiplet, 2020);
  const io::IoCellSpec cell = io::IoCellSpec::from_config(cfg);
  const double compute_io_mm2 =
      cell.total_area_m2(cfg.ios_per_compute_chiplet) * 1e6;
  EXPECT_NEAR(compute_io_mm2, 0.303, 0.003);  // 2020 * 150 um^2 exactly
}

TEST(Table1AreaClaims, TotalWaferAreaNearPaperValue) {
  // Paper (Table 1): ~15,100 mm^2 total.  The model's tiling comes out
  // at 15,225 mm^2 (+0.8%) because we pack whole tiles; 2% bound.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const double total_mm2 = cfg.total_area_m2() * 1e6;
  EXPECT_NEAR(total_mm2, 15100.0, 0.02 * 15100.0);
}

// ---------------------------------------- Fig. 9/10: test-time scaling

TEST(TestTimeClaims, SingleChainLoadTimeMatchesPaper) {
  // Paper (Fig. 9): loading all on-wafer memory over one 10 MHz JTAG
  // chain takes ~2.51 hours (12.88 Gbit at ~7 TCK per payload bit).
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const testinfra::LoadTimeReport one =
      testinfra::memory_load_time(cfg, /*chains=*/1, /*broadcast=*/false);
  EXPECT_NEAR(one.hours(), 2.51, 0.02 * 2.51);
  // The payload itself: ~12.88 Gbit of memory image.
  EXPECT_NEAR(static_cast<double>(one.total_payload_bits), 12.88e9,
              0.02 * 12.88e9);
}

TEST(TestTimeClaims, ChainsScaleLoadTimeLinearly) {
  // Paper (Fig. 10): independent chains divide load time exactly — 32
  // chains bring 2.51 h down to ~4.7 minutes.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const testinfra::LoadTimeReport one =
      testinfra::memory_load_time(cfg, 1, false);
  const testinfra::LoadTimeReport many =
      testinfra::memory_load_time(cfg, 32, false);
  EXPECT_NEAR(one.seconds / many.seconds, 32.0, 1e-9);
  EXPECT_NEAR(many.minutes(), 4.7, 0.1);
}

TEST(TestTimeClaims, BroadcastSpeedupIsFourteenX) {
  // Paper (Sec. V): broadcasting the common code image to the 14 cores
  // of a tile makes one DAP visible instead of fourteen — a 14x shift
  // reduction for the program image.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  EXPECT_NEAR(testinfra::broadcast_speedup(cfg), 14.0, 1e-9);
  // For the full memory load the gain is diluted by the shared banks,
  // which still load in full: per tile, plain shifts 14 x 64 KB private
  // + 5 x 128 KB shared = 1536 KB, broadcast shifts 1 x 64 KB + 640 KB
  // = 704 KB, so the end-to-end ratio is exactly 1536/704.
  const testinfra::LoadTimeReport bcast =
      testinfra::memory_load_time(cfg, 1, /*broadcast=*/true);
  const testinfra::LoadTimeReport plain =
      testinfra::memory_load_time(cfg, 1, false);
  EXPECT_NEAR(plain.seconds / bcast.seconds, 1536.0 / 704.0, 1e-9);
}

}  // namespace
}  // namespace wsp

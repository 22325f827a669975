#include "wsp/clock/pll.hpp"
// End-to-end integration: the full bring-up story of the paper, in order.
//
//   assembly (Monte Carlo bonding)  ->  post-assembly JTAG fault isolation
//   ->  clock setup (forwarding over the fault map)  ->  kernel network
//   selection  ->  running a graph workload on the surviving tiles.
#include <gtest/gtest.h>

#include "clock_oracles.hpp"
#include "wsp/clock/duty_cycle.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/io/bonding_yield.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/pdn/wafer_pdn.hpp"
#include "wsp/testinfra/dap_chain.hpp"
#include "wsp/workloads/graph_apps.hpp"

namespace wsp {
namespace {

TEST(Integration, FullBringUpOnAssembledWafer) {
  // Use a reduced 8x8 wafer with the paper's per-chiplet I/O counts but a
  // pessimistic pillar yield so the assembly actually has faults to
  // tolerate (the real dual-pillar process is nearly perfect).
  SystemConfig cfg = SystemConfig::reduced(8, 8);
  // Stress the fault-tolerance machinery: per-pad failure 1e-5 over ~2020
  // pads gives ~2% faulty chiplets, so a 64-tile wafer draws a few faults.
  cfg.pillar_bond_yield = 0.99999;

  // --- 1. assembly ---
  // Re-draw until the wafer has faults but is not physically partitioned
  // (a partitioned wafer cannot host a unified-memory computation; the
  // kernel would reject it at bring-up).
  Rng rng(2021);
  io::AssemblyDraw draw = io::simulate_assembly(cfg, 1, rng);
  auto routable = [](const FaultMap& fm) {
    const noc::NetworkSelector sel(fm);
    const auto healthy = fm.healthy_tiles();
    for (std::size_t i = 0; i < healthy.size(); ++i)
      for (std::size_t j = 0; j < healthy.size(); ++j)
        if (i != j && !sel.plan(healthy[i], healthy[j]).reachable)
          return false;
    return true;
  };
  int attempts = 0;
  while ((draw.tile_faults.fault_count() == 0 ||
          draw.tile_faults.fault_count() > 20 ||
          !routable(draw.tile_faults)) &&
         ++attempts < 500)
    draw = io::simulate_assembly(cfg, 1, rng);
  ASSERT_LT(attempts, 500) << "no acceptable assembly draw found";
  const FaultMap& faults = draw.tile_faults;

  // --- 2. post-assembly test: JTAG chain per row isolates faulty tiles ---
  for (int row = 0; row < cfg.array_height; ++row) {
    std::vector<bool> row_faults;
    int first_faulty = -1;
    for (int x = 0; x < cfg.array_width; ++x) {
      const bool f = faults.is_faulty({x, row});
      if (f && first_faulty < 0) first_faulty = x;
      row_faults.push_back(f);
    }
    testinfra::WaferTestChain chain(cfg.array_width, 2, row_faults);
    const auto located = chain.locate_first_faulty();
    if (first_faulty < 0) {
      EXPECT_FALSE(located.has_value()) << "row " << row;
    } else {
      ASSERT_TRUE(located.has_value()) << "row " << row;
      EXPECT_EQ(*located, first_faulty) << "row " << row;
    }
  }

  // --- 3. clock setup from a healthy edge tile ---
  std::vector<TileCoord> generators;
  cfg.grid().for_each([&](TileCoord c) {
    if (generators.empty() && cfg.grid().is_edge(c) && faults.is_healthy(c))
      generators.push_back(c);
  });
  ASSERT_FALSE(generators.empty());
  const clock::ForwardingPlan plan =
      clock::simulate_forwarding(faults, generators);
  EXPECT_TRUE(clock::reachability_matches_bfs(faults, generators, plan));
  const clock::WaferDutyReport duty =
      clock::analyze_plan_duty(plan, cfg.grid(), {});
  EXPECT_EQ(duty.dead_tiles, 0u);  // inversion + DCC keep every clock alive

  // --- 4. the kernel's view: connectivity census over the fault map ---
  const noc::DisconnectionStats census = noc::census_disconnection(faults);
  EXPECT_LE(census.disconnected_dual, census.disconnected_single_xy);

  // --- 5. run BFS on the tiles that are healthy AND clocked ---
  FaultMap usable = faults;
  cfg.grid().for_each([&](TileCoord c) {
    if (faults.is_healthy(c) && !plan.tiles[cfg.grid().index_of(c)].reached)
      usable.set_faulty(c, true);  // unclocked tiles are unusable too
  });
  const workloads::Graph g = workloads::make_grid_graph(16, 16);
  // Source owned by some healthy tile.
  const workloads::GraphAppResult r =
      workloads::run_bfs(cfg, usable, g, 0);
  ASSERT_TRUE(r.quiesced);
  EXPECT_EQ(r.distance, workloads::reference_bfs(g, 0));
}

TEST(Integration, PdnSupportsClockGenerationOnlyAtTheEdge) {
  // Sec. IV's reasoning made quantitative: at peak draw the edge tiles see
  // a stiff supply while center tiles ride the 1.0-1.2 V regulated band,
  // whose ripple exceeds what the PLL tolerates.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  pdn::WaferPdn wafer(cfg, {});
  const pdn::PdnReport report = wafer.solve_uniform(1.0);

  const TileGrid grid = cfg.grid();
  const clock::Pll pll(cfg);
  // Edge tile: near-by off-wafer decap keeps ripple small -> PLL locks.
  const double edge_ripple = 0.02;
  EXPECT_TRUE(pll.generate(100e6, 350e6, edge_ripple).locked);
  // Center tile: the regulated voltage fluctuates across the full band.
  const double center_ripple =
      cfg.regulated_max_v - cfg.regulated_min_v;  // 0.2 Vpp
  EXPECT_FALSE(pll.generate(100e6, 350e6, center_ripple).locked);
  // And the center supply really is the droopy one.
  const double edge_v =
      report.tiles[grid.index_of({0, grid.height() / 2})].supply_v;
  const double center_v =
      report.tiles[grid.index_of({grid.width() / 2, grid.height() / 2})]
          .supply_v;
  EXPECT_GT(edge_v, center_v + 0.5);
}

TEST(Integration, DualNetworkCarriesTrafficAcrossAFaultyWafer) {
  // Five faults on the full 32x32 wafer (the Fig. 6 operating point):
  // every healthy pair with any connectivity must complete round trips.
  SystemConfig cfg = SystemConfig::paper_prototype();
  Rng rng(55);
  const FaultMap faults =
      FaultMap::random_with_count(cfg.grid(), 5, rng);
  noc::NocSystem noc(faults);

  int issued = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const TileCoord s = cfg.grid().coord_of(rng.below(1024));
    const TileCoord d = cfg.grid().coord_of(rng.below(1024));
    if (faults.is_faulty(s) || faults.is_faulty(d)) continue;
    if (noc.issue(s, d, noc::PacketType::ReadRequest).has_value())
      ++issued;
    else
      ++rejected;
  }
  std::vector<noc::CompletedTransaction> done;
  ASSERT_TRUE(noc.drain(done));
  EXPECT_EQ(static_cast<int>(done.size()), issued);
  // At 5 faults almost everything is routable (Fig. 6: <2% disconnected).
  EXPECT_LT(rejected, issued / 20 + 1);
}

TEST(Integration, SingleLayerWaferStillRunsWorkloads) {
  // Sec. VIII's insurance policy: with one routing layer the machine keeps
  // 2 of 5 banks but the NoC is intact — BFS still runs and verifies.
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap faults(cfg.grid());
  const workloads::Graph g = workloads::make_grid_graph(8, 8);

  arch::WaferSystem probe(
      cfg, faults,
      [](TileCoord) -> std::unique_ptr<arch::TileHandler> {
        class Noop : public arch::TileHandler {
          void on_message(arch::TileContext&, const arch::Message&) override {}
        };
        return std::make_unique<Noop>();
      },
      {}, /*single_layer_mode=*/true);
  EXPECT_EQ(probe.tile({0, 0}).memory().connected_bytes(),
            2ull * 128 * 1024);

  const workloads::GraphAppResult r = workloads::run_bfs(cfg, faults, g, 0);
  ASSERT_TRUE(r.quiesced);
  EXPECT_EQ(r.distance, workloads::reference_bfs(g, 0));
}

}  // namespace
}  // namespace wsp

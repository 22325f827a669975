// Tests for the bring-up orchestration API (the scripted version of the
// paper's Sections V-VII flow).
#include <gtest/gtest.h>

#include "wsp/arch/bringup.hpp"
#include "wsp/common/error.hpp"
#include "wsp/io/bonding_yield.hpp"
#include "wsp/noc/connectivity.hpp"

namespace wsp::arch {
namespace {

TEST(Bringup, CleanWaferComesUpWhole) {
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  const FaultMap faults(cfg.grid());
  const BringupReport r = run_bringup(cfg, faults);
  EXPECT_EQ(r.faulty_tiles, 0u);
  EXPECT_EQ(r.usable_tiles, 64u);
  EXPECT_TRUE(r.single_system_image);
  EXPECT_EQ(r.duty.dead_tiles, 0u);
  EXPECT_EQ(noc::census_disconnection(r.usable).disconnected_dual, 0u);
  EXPECT_GT(r.screening_tcks, 0u);
  EXPECT_GT(r.boot_load.seconds, 0.0);
}

TEST(Bringup, FaultyTilesAreExcludedFromTheUsableSet) {
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  FaultMap faults(cfg.grid());
  faults.set_faulty({3, 3});
  faults.set_faulty({5, 6});
  const BringupReport r = run_bringup(cfg, faults);
  EXPECT_EQ(r.faulty_tiles, 2u);
  EXPECT_EQ(r.usable_tiles, 62u);
  EXPECT_TRUE(r.usable.is_faulty({3, 3}));
  EXPECT_TRUE(r.single_system_image);
}

TEST(Bringup, WalledInTileIsUnusableEvenThoughHealthy) {
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  FaultMap faults(cfg.grid());
  for (TileCoord f : {TileCoord{4, 5}, TileCoord{5, 4}, TileCoord{4, 3},
                      TileCoord{3, 4}})
    faults.set_faulty(f);
  const BringupReport r = run_bringup(cfg, faults);
  // (4,4) is healthy but unclockable and unreachable.
  EXPECT_TRUE(r.usable.is_faulty({4, 4}));
  EXPECT_EQ(r.usable_tiles, 64u - 4u - 1u);
  // With the enclave removed from the usable set, the rest of the wafer
  // is still one system.
  EXPECT_TRUE(r.single_system_image);
}

TEST(Bringup, PartitionedWaferWithOneGeneratorKeepsOneHalf) {
  // A full wall splits the wafer.  With only a west-side generator the
  // east half never receives a clock: it drops out of the usable set, and
  // what remains is a coherent (smaller) system.
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  FaultMap faults(cfg.grid());
  for (int y = 0; y < 8; ++y) faults.set_faulty({4, y});
  BringupOptions opt;
  opt.clock_generators = {{0, 0}};
  const BringupReport r = run_bringup(cfg, faults, opt);
  EXPECT_GT(r.clock_plan.unreached_healthy_count, 0u);
  EXPECT_EQ(r.usable_tiles, 4u * 8u);  // the west half
  EXPECT_TRUE(r.single_system_image);
}

TEST(Bringup, PartitionedWaferWithGeneratorsOnBothSidesIsTwoSystems) {
  // Clock both halves independently: both stay usable, but they cannot
  // talk — bring-up must refuse the single-system-image claim.
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  FaultMap faults(cfg.grid());
  for (int y = 0; y < 8; ++y) faults.set_faulty({4, y});
  BringupOptions opt;
  opt.clock_generators = {{0, 0}, {7, 7}};
  const BringupReport r = run_bringup(cfg, faults, opt);
  EXPECT_EQ(r.clock_plan.unreached_healthy_count, 0u);
  EXPECT_EQ(r.usable_tiles, 56u);
  EXPECT_FALSE(r.single_system_image);
}

TEST(Bringup, ExplicitGeneratorsRespected) {
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  const FaultMap faults(cfg.grid());
  BringupOptions opt;
  opt.clock_generators = {{0, 0}, {7, 7}};
  const BringupReport r = run_bringup(cfg, faults, opt);
  EXPECT_TRUE(r.clock_plan.tiles[cfg.grid().index_of({0, 0})].is_generator);
  EXPECT_TRUE(r.clock_plan.tiles[cfg.grid().index_of({7, 7})].is_generator);
  // Two opposite generators halve the worst forwarding depth vs one.
  EXPECT_LE(r.clock_plan.max_hops, 7 + 7);
}

TEST(Bringup, EndToEndFromMonteCarloAssembly) {
  SystemConfig cfg = SystemConfig::reduced(8, 8);
  cfg.pillar_bond_yield = 0.99999;
  Rng rng(77);
  const io::AssemblyDraw draw = io::simulate_assembly(cfg, 1, rng);
  const BringupReport r = run_bringup(cfg, draw.tile_faults);
  EXPECT_EQ(r.faulty_tiles, draw.tile_faults.fault_count());
  EXPECT_LE(r.usable_tiles, 64u - r.faulty_tiles);
  EXPECT_GE(r.usable_tiles + r.faulty_tiles + 1, 64u);  // at most 1 enclave here
}

TEST(Bringup, ValidatesInputs) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap wrong(TileGrid(5, 5));
  EXPECT_THROW(run_bringup(cfg, wrong), Error);
  // A fully faulty edge leaves no generator.
  FaultMap all_faulty(cfg.grid());
  cfg.grid().for_each([&](TileCoord c) { all_faulty.set_faulty(c); });
  EXPECT_THROW(run_bringup(cfg, all_faulty), Error);
}

}  // namespace
}  // namespace wsp::arch

// Tests for Sec. VII: TAP controller FSM, DAP chains, broadcast mode,
// progressive unrolling (Fig. 10), pre-bond probing and load-time model.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/testinfra/dap_chain.hpp"
#include "wsp/testinfra/prebond.hpp"
#include "wsp/testinfra/tap.hpp"
#include "wsp/testinfra/test_time.hpp"

namespace wsp::testinfra {
namespace {

SystemConfig cfg() { return SystemConfig::paper_prototype(); }

// -------------------------------------------------------------------- TAP

TEST(Tap, ResetPathFromEveryState) {
  // IEEE 1149.1 invariant: five TCKs with TMS=1 reach Test-Logic-Reset
  // from any state.
  for (int s = 0; s < 16; ++s) {
    TapState state = static_cast<TapState>(s);
    for (int i = 0; i < 5; ++i) state = tap_next_state(state, true);
    EXPECT_EQ(state, TapState::TestLogicReset)
        << "from " << to_string(static_cast<TapState>(s));
  }
}

TEST(Tap, IdleLoopIsStable) {
  TapState s = TapState::RunTestIdle;
  for (int i = 0; i < 10; ++i) s = tap_next_state(s, false);
  EXPECT_EQ(s, TapState::RunTestIdle);
}

TEST(Tap, CanonicalDrScanSequence) {
  TapController tap;
  tap.step(false);  // -> Run-Test/Idle
  EXPECT_EQ(tap.state(), TapState::RunTestIdle);
  tap.step(true);   // -> Select-DR
  tap.step(false);  // -> Capture-DR
  EXPECT_EQ(tap.state(), TapState::CaptureDr);
  tap.step(false);  // -> Shift-DR
  EXPECT_EQ(tap.state(), TapState::ShiftDr);
  tap.step(true);   // -> Exit1-DR
  tap.step(true);   // -> Update-DR
  EXPECT_EQ(tap.state(), TapState::UpdateDr);
  tap.step(false);  // -> Run-Test/Idle
  EXPECT_EQ(tap.state(), TapState::RunTestIdle);
}

TEST(Tap, IrScanBranch) {
  TapState s = TapState::RunTestIdle;
  s = tap_next_state(s, true);   // Select-DR
  s = tap_next_state(s, true);   // Select-IR
  EXPECT_EQ(s, TapState::SelectIrScan);
  s = tap_next_state(s, false);  // Capture-IR
  s = tap_next_state(s, false);  // Shift-IR
  EXPECT_EQ(s, TapState::ShiftIr);
  s = tap_next_state(s, true);   // Exit1-IR
  s = tap_next_state(s, false);  // Pause-IR
  s = tap_next_state(s, true);   // Exit2-IR
  s = tap_next_state(s, false);  // back to Shift-IR
  EXPECT_EQ(s, TapState::ShiftIr);
}

TEST(Tap, EveryStateHasTwoSuccessors) {
  // FSM sanity: both TMS values lead somewhere valid (no dead states).
  for (int s = 0; s < 16; ++s) {
    const TapState from = static_cast<TapState>(s);
    const TapState t0 = tap_next_state(from, false);
    const TapState t1 = tap_next_state(from, true);
    EXPECT_NE(to_string(t0), std::string("?"));
    EXPECT_NE(to_string(t1), std::string("?"));
  }
}

// ------------------------------------------------------------- DAP chains

TEST(DapChain, SingleTileIdcodesReadInOrder) {
  WaferTestChain chain(1, 14, std::vector<bool>(1, false));
  JtagHost host(chain);
  const auto codes = host.read_idcodes(14);
  ASSERT_EQ(codes.size(), 14u);
  // DAP nearest TDO (index 13) shifts out first.
  for (int d = 0; d < 14; ++d)
    EXPECT_EQ(codes[d], chain.expected_idcode(0, 13 - d)) << d;
}

TEST(DapChain, BroadcastShowsOneDap) {
  // Fig. 9's optimisation: in broadcast mode the external controller sees
  // one DAP per tile, cutting shift latency 14x.
  WaferTestChain chain(1, 14, std::vector<bool>(1, false));
  chain.set_broadcast(true);
  JtagHost host(chain);
  const auto codes = host.read_idcodes(1);
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], chain.expected_idcode(0, 0));
}

TEST(DapChain, BroadcastShiftLatencyIs14xSmaller) {
  WaferTestChain serial(1, 14, std::vector<bool>(1, false));
  JtagHost h1(serial);
  (void)h1.read_idcodes(14);
  WaferTestChain bcast(1, 14, std::vector<bool>(1, false));
  bcast.set_broadcast(true);
  JtagHost h2(bcast);
  (void)h2.read_idcodes(1);
  // Shift portions dominate; the ratio approaches 14 for long payloads.
  EXPECT_GT(static_cast<double>(h1.tck_count()) / h2.tck_count(), 10.0);
}

TEST(DapChain, MultiTileChainConcatenates) {
  WaferTestChain chain(3, 2, std::vector<bool>(3, false));
  chain.set_unrolled(2);  // full depth: 3 tiles
  JtagHost host(chain);
  const auto codes = host.read_idcodes(6);
  ASSERT_EQ(codes.size(), 6u);
  // Order: tile 2 dap 1, tile 2 dap 0, tile 1 dap 1, ... tile 0 dap 0.
  int i = 0;
  for (int t = 2; t >= 0; --t)
    for (int d = 1; d >= 0; --d)
      EXPECT_EQ(codes[i++], chain.expected_idcode(t, d));
}

TEST(DapChain, LoopbackLimitsVisibleDepth) {
  WaferTestChain chain(4, 2, std::vector<bool>(4, false));
  chain.set_unrolled(0);  // only tile 0 visible
  JtagHost host(chain);
  const auto codes = host.read_idcodes(2);
  EXPECT_EQ(codes[0], chain.expected_idcode(0, 1));
  EXPECT_EQ(codes[1], chain.expected_idcode(0, 0));
}

TEST(DapChain, FaultyTileReadsGarbage) {
  std::vector<bool> faulty{true};
  WaferTestChain chain(1, 2, faulty);
  JtagHost host(chain);
  const auto codes = host.read_idcodes(2);
  EXPECT_EQ(codes[0], 0u);  // stuck-at-0 TDO
  EXPECT_EQ(codes[1], 0u);
}

TEST(Unrolling, CleanChainFullyUnrolls) {
  WaferTestChain chain(8, 3, std::vector<bool>(8, false));
  std::uint64_t tcks = 0;
  EXPECT_FALSE(chain.locate_first_faulty(&tcks).has_value());
  EXPECT_EQ(chain.unrolled(), 7);
  EXPECT_GT(tcks, 0u);
}

// Fig. 10 property: the progressive unrolling procedure pin-points the
// first faulty tile wherever it sits in the chain.
class UnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnrollSweep, LocatesFirstFaultyTile) {
  const int faulty_at = GetParam();
  std::vector<bool> faulty(8, false);
  faulty[static_cast<std::size_t>(faulty_at)] = true;
  WaferTestChain chain(8, 3, faulty);
  const auto found = chain.locate_first_faulty();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, faulty_at);
  // The chain parks at the last good prefix.
  EXPECT_EQ(chain.unrolled(), std::max(0, faulty_at - 1));
}

INSTANTIATE_TEST_SUITE_P(Positions, UnrollSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(Unrolling, ReportsFirstOfMultipleFaults) {
  std::vector<bool> faulty(10, false);
  faulty[3] = faulty[7] = true;
  WaferTestChain chain(10, 2, faulty);
  const auto found = chain.locate_first_faulty();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 3);
}

TEST(Unrolling, WorksInBroadcastMode) {
  std::vector<bool> faulty(6, false);
  faulty[4] = true;
  WaferTestChain chain(6, 14, faulty);
  chain.set_broadcast(true);
  std::uint64_t tcks = 0;
  const auto found = chain.locate_first_faulty(&tcks);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 4);
}

// The closed-form screen cost against the bit-level chain it summarises.
// `first_faulty` marks that tile and, past it, every third tile faulty:
// faults behind the first one must not change the count.
std::uint64_t simulated_unroll_tcks(int tiles, int daps_per_tile,
                                    bool broadcast,
                                    std::optional<int> first_faulty) {
  std::vector<bool> faulty(static_cast<std::size_t>(tiles), false);
  if (first_faulty)
    for (int t = *first_faulty; t < tiles; t += 3)
      faulty[static_cast<std::size_t>(t)] = true;
  WaferTestChain chain(tiles, daps_per_tile, faulty);
  chain.set_broadcast(broadcast);
  std::uint64_t tcks = 0;
  EXPECT_EQ(chain.locate_first_faulty(&tcks), first_faulty);
  return tcks;
}

TEST(Unrolling, ClosedFormTcksMatchTheChainOnEveryWidthAndFirstFault) {
  for (int tiles = 1; tiles <= 32; ++tiles) {
    for (const int daps : {1, 3}) {
      for (const bool broadcast : {false, true}) {
        const int in_path = broadcast ? 1 : daps;
        for (int k = 0; k <= tiles; ++k) {
          const std::optional<int> first =
              k < tiles ? std::optional<int>(k) : std::nullopt;
          ASSERT_EQ(progressive_unroll_tcks(tiles, in_path, first),
                    simulated_unroll_tcks(tiles, daps, broadcast, first))
              << tiles << " tiles, " << daps << " DAPs, broadcast "
              << broadcast << ", first fault " << k;
        }
      }
    }
  }
}

TEST(Unrolling, ClosedFormTcksMatchThePaperTileChain) {
  // The paper's row: 32 tiles of 14 DAPs.
  const int daps = cfg().cores_per_tile;
  ASSERT_EQ(daps, 14);
  for (const std::optional<int> first :
       {std::optional<int>(0), std::optional<int>(1), std::optional<int>(16),
        std::optional<int>(31), std::optional<int>()}) {
    for (const bool broadcast : {false, true})
      EXPECT_EQ(progressive_unroll_tcks(32, broadcast ? 1 : daps, first),
                simulated_unroll_tcks(32, daps, broadcast, first))
          << "first fault " << first.value_or(-1) << ", broadcast "
          << broadcast;
  }
  // A fault-free row without broadcast: 32 * (11 + 16 * 14 * 33).
  EXPECT_EQ(progressive_unroll_tcks(32, daps, std::nullopt), 236896u);
  EXPECT_THROW(progressive_unroll_tcks(0, 1, std::nullopt), Error);
  EXPECT_THROW(progressive_unroll_tcks(4, 0, std::nullopt), Error);
  EXPECT_THROW(progressive_unroll_tcks(4, 1, 4), Error);
}

// ---------------------------------------------------------------- prebond

TEST(Prebond, FinePitchPadsAreNotProbeable) {
  // 10 um pads cannot be probed (>=50 um needed); the duplicated larger
  // pads can.
  EXPECT_FALSE(probeable(10e-6));
  EXPECT_FALSE(probeable(7e-6));
  EXPECT_TRUE(probeable(50e-6));
  EXPECT_TRUE(probeable(100e-6));
}

TEST(Prebond, ProbePadPlanNeverBondsProbedPads) {
  const ProbePadPlan plan = plan_probe_pads(12);
  EXPECT_EQ(plan.probe_pad_count, 12);
  EXPECT_FALSE(plan.probed_pads_bonded);  // planarity rule
  EXPECT_NEAR(plan.area_m2, 12 * 50e-6 * 50e-6, 1e-15);
}

TEST(Prebond, KgdScreeningRemovesDieDefectsFromAssembly) {
  // With 90 % die yield and 99.998 % bond yield, skipping KGD screening
  // would put ~205 dead chiplets on the wafer instead of ~0.04.
  const KgdBenefit b = kgd_benefit(cfg(), 0.10, 0.99998);
  EXPECT_LT(b.expected_faulty_with_kgd, 1.0);
  EXPECT_GT(b.expected_faulty_without_kgd, 200.0);
  EXPECT_GT(b.faulty_chiplet_rate_without_kgd,
            b.faulty_chiplet_rate_with_kgd);
}

// -------------------------------------------------------------- test time

TEST(TestTime, TotalPayloadBits) {
  // 1024 tiles x (14 x 64 KB + 5 x 128 KB) x 8 = 1.29e10 bits.
  EXPECT_EQ(total_memory_payload_bits(cfg()), 12884901888ull);
}

TEST(TestTime, SingleChainTakesHours) {
  // Paper: "2.5 hours (with a single chain)".
  const LoadTimeReport r = memory_load_time(cfg(), 1, false);
  EXPECT_NEAR(r.hours(), 2.5, 0.2);
}

TEST(TestTime, ThirtyTwoChainsTakeMinutes) {
  // Paper: "roughly under 5 minutes" with 32 parallel row chains.
  const LoadTimeReport r = memory_load_time(cfg(), 32, false);
  EXPECT_LT(r.minutes(), 5.0);
  EXPECT_GT(r.minutes(), 2.0);
}

TEST(TestTime, SpeedupIsChainCount) {
  const LoadTimeReport one = memory_load_time(cfg(), 1, false);
  const LoadTimeReport many = memory_load_time(cfg(), 32, false);
  EXPECT_NEAR(one.seconds / many.seconds, 32.0, 0.01);
}

TEST(TestTime, BroadcastCutsPrivateImageShifts) {
  const LoadTimeReport serial = memory_load_time(cfg(), 32, false);
  const LoadTimeReport bcast = memory_load_time(cfg(), 32, true);
  EXPECT_LT(bcast.seconds, serial.seconds);
  // Private memories dominate (896 KB of 1536 KB per tile): broadcast
  // saves 13/14 of them.
  const double expected_bits =
      1024.0 * (64.0 * 1024 * 8 + 5 * 128.0 * 1024 * 8);
  EXPECT_NEAR(static_cast<double>(bcast.total_payload_bits), expected_bits,
              1.0);
  EXPECT_NEAR(broadcast_speedup(cfg()), 14.0, 1e-12);
}

TEST(TestTime, TckDerateModelsLongChains) {
  TestTimeParams derated;
  derated.tck_load_derate = 0.001;
  const LoadTimeReport one = memory_load_time(cfg(), 1, false, derated);
  const LoadTimeReport many = memory_load_time(cfg(), 32, false, derated);
  // With load-dependent TCK the split does even better than 32x.
  EXPECT_GT(one.seconds / many.seconds, 32.0);
}

TEST(TestTime, ValidatesArguments) {
  EXPECT_THROW(memory_load_time(cfg(), 0, false), Error);
  EXPECT_THROW(memory_load_time(cfg(), 33, false), Error);
  TestTimeParams bad;
  bad.protocol_overhead = 0.5;
  EXPECT_THROW(memory_load_time(cfg(), 1, false, bad), Error);
}

}  // namespace
}  // namespace wsp::testinfra

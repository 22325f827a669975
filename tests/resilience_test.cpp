// Tests for the runtime-resilience subsystem (wsp/resilience plus the
// degradation hooks it drives in wsp/noc and wsp/clock): fault schedules
// and injection, NoC timeout/retry accounting, replan invariants, clock
// re-selection, PDN brownout re-solve, and the end-to-end degradation
// campaign (determinism + the five-tile-kill acceptance scenario).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clock_oracles.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/clock/recovery.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/resilience/fault_injector.hpp"
#include "wsp/resilience/fault_schedule.hpp"
#include "wsp/resilience/pdn_degradation.hpp"

namespace wsp::resilience {
namespace {

// ----------------------------------------------------------- FaultSchedule

TEST(FaultSchedule, KeepsEventsSortedAndStable) {
  FaultSchedule s;
  s.add({50, RuntimeFaultKind::TileDeath, {1, 1}, Direction::North});
  s.add({10, RuntimeFaultKind::TileDeath, {2, 2}, Direction::North});
  s.add({30, RuntimeFaultKind::LdoBrownout, {3, 3}, Direction::North});
  s.add({30, RuntimeFaultKind::ClockGenLoss, {0, 0}, Direction::North});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.events()[0].cycle, 10u);
  EXPECT_EQ(s.events()[1].cycle, 30u);
  EXPECT_EQ(s.events()[2].cycle, 30u);
  EXPECT_EQ(s.events()[3].cycle, 50u);
  // Same-cycle events keep insertion order (brownout was added first).
  EXPECT_EQ(s.events()[1].kind, RuntimeFaultKind::LdoBrownout);
  EXPECT_EQ(s.events()[2].kind, RuntimeFaultKind::ClockGenLoss);
  EXPECT_EQ(s.horizon(), 50u);
}

TEST(FaultSchedule, RandomIsDeterministicInTheSeed) {
  const TileGrid grid(8, 8);
  ScheduleMix mix;
  mix.clock_gen_losses = 1;
  Rng a(7), b(7);
  const FaultSchedule s1 = FaultSchedule::random(grid, mix, 1000, a);
  const FaultSchedule s2 = FaultSchedule::random(grid, mix, 1000, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.events()[i].cycle, s2.events()[i].cycle);
    EXPECT_EQ(s1.events()[i].kind, s2.events()[i].kind);
    EXPECT_EQ(s1.events()[i].tile, s2.events()[i].tile);
    EXPECT_EQ(s1.events()[i].link, s2.events()[i].link);
  }
}

TEST(FaultSchedule, RandomRespectsMixAndBounds) {
  const TileGrid grid(8, 8);
  ScheduleMix mix;
  mix.tile_deaths = 4;
  mix.link_failures = 3;
  mix.ldo_brownouts = 2;
  mix.clock_gen_losses = 2;
  mix.packet_corruptions = 1;
  Rng rng(13);
  const FaultSchedule s = FaultSchedule::random(grid, mix, 500, rng);
  ASSERT_EQ(s.size(), mix.total());

  std::size_t per_kind[5] = {};
  std::vector<TileCoord> dead;
  for (const FaultEvent& e : s.events()) {
    EXPECT_GE(e.cycle, 1u);
    EXPECT_LE(e.cycle, 500u);
    EXPECT_TRUE(grid.contains(e.tile));
    ++per_kind[static_cast<std::size_t>(e.kind)];
    if (e.kind == RuntimeFaultKind::TileDeath) dead.push_back(e.tile);
    if (e.kind == RuntimeFaultKind::LinkFailure) {
      EXPECT_TRUE(grid.neighbor(e.tile, e.link).has_value());
    }
    if (e.kind == RuntimeFaultKind::ClockGenLoss) {
      EXPECT_TRUE(grid.is_edge(e.tile));
    }
  }
  EXPECT_EQ(per_kind[0], mix.tile_deaths);
  EXPECT_EQ(per_kind[1], mix.link_failures);
  EXPECT_EQ(per_kind[2], mix.ldo_brownouts);
  EXPECT_EQ(per_kind[3], mix.clock_gen_losses);
  EXPECT_EQ(per_kind[4], mix.packet_corruptions);
  // Tile deaths never repeat a target.
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(std::adjacent_find(dead.begin(), dead.end()), dead.end());
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjector, AppliesDueEventsAndNotifiesObservers) {
  const TileGrid grid(4, 4);
  FaultSchedule s;
  s.add({10, RuntimeFaultKind::TileDeath, {1, 1}, Direction::North});
  s.add({20, RuntimeFaultKind::LinkFailure, {2, 2}, Direction::East});
  s.add({30, RuntimeFaultKind::LdoBrownout, {3, 3}, Direction::North});
  s.add({30, RuntimeFaultKind::ClockGenLoss, {0, 0}, Direction::North});
  s.add({40, RuntimeFaultKind::PacketCorruption, {2, 1}, Direction::North});

  FaultInjector injector(FaultMap(grid), s);

  EXPECT_TRUE(injector.advance_to(5).empty());
  EXPECT_EQ(injector.next_due_cycle(), 10u);

  const auto first = injector.advance_to(10);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].kind, RuntimeFaultKind::TileDeath);
  EXPECT_EQ(first[0].tile, (TileCoord{1, 1}));
  EXPECT_EQ(first[0].cycle, 10u);
  EXPECT_FALSE(first[0].link.has_value());
  // The returned notices describe state that is already applied.
  EXPECT_TRUE(injector.faults().is_faulty({1, 1}));
  EXPECT_EQ(injector.next_due_cycle(), 20u);

  const auto second = injector.advance_to(20);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].kind, RuntimeFaultKind::LinkFailure);
  EXPECT_EQ(second[0].tile, (TileCoord{2, 2}));
  EXPECT_EQ(second[0].link, Direction::East);
  EXPECT_TRUE(injector.link_faults().is_failed({2, 2}, Direction::East));
  // Link failures do not kill the tile.
  EXPECT_TRUE(injector.faults().is_healthy({2, 2}));

  const auto third = injector.advance_to(35);
  ASSERT_EQ(third.size(), 2u);  // both cycle-30 events, in schedule order
  EXPECT_EQ(third[0].kind, RuntimeFaultKind::LdoBrownout);
  EXPECT_EQ(third[1].kind, RuntimeFaultKind::ClockGenLoss);
  ASSERT_EQ(injector.brownouts().size(), 1u);
  EXPECT_EQ(injector.brownouts()[0], (TileCoord{3, 3}));
  ASSERT_EQ(injector.lost_generators().size(), 1u);
  EXPECT_EQ(injector.lost_generators()[0], (TileCoord{0, 0}));
  // Brownouts and generator losses are policy events: the fault map is not
  // mutated until the degradation layer decides.
  EXPECT_TRUE(injector.faults().is_healthy({3, 3}));
  EXPECT_FALSE(injector.exhausted());

  const auto last = injector.advance_to(1000);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].kind, RuntimeFaultKind::PacketCorruption);
  EXPECT_EQ(last[0].tile, (TileCoord{2, 1}));
  EXPECT_EQ(last[0].cycle, 40u);
  // Transient: the notice is the whole effect, no state changes.
  EXPECT_TRUE(injector.faults().is_healthy({2, 1}));
  EXPECT_TRUE(injector.exhausted());
  EXPECT_TRUE(injector.advance_to(2000).empty());

  injector.mark_unusable({2, 3});
  EXPECT_TRUE(injector.faults().is_faulty({2, 3}));
}

// --------------------------------------------- NoC timeout/retry/recovery

noc::NocOptions retry_options(std::uint64_t timeout, int retries = 3,
                              std::uint64_t backoff = 16) {
  noc::NocOptions o;
  o.response_timeout = timeout;
  o.max_retries = retries;
  o.retry_backoff_base = backoff;
  return o;
}

TEST(NocResilience, TransactionToDeadDestinationIsLost) {
  const TileGrid grid(4, 4);
  noc::NocSystem noc(FaultMap(grid), retry_options(120, 2));
  ASSERT_TRUE(noc.issue({0, 0}, {3, 3}, noc::PacketType::ReadRequest));

  std::vector<noc::CompletedTransaction> done;
  noc.step(done);
  FaultMap fm = noc.faults();
  fm.set_faulty({3, 3});
  noc.apply_fault_state(fm);

  EXPECT_TRUE(noc.drain(done, 100000));
  const noc::NocStats& st = noc.stats();
  EXPECT_EQ(st.issued, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.lost, 1u);
  // The replan at the first timeout finds the destination dead, so the
  // transaction is lost without burning the remaining retries.
  EXPECT_EQ(st.timeouts, 1u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.replans, 1u);
  EXPECT_EQ(noc.inflight_transactions(), 0u);
}

TEST(NocResilience, TrafficRecoversAroundAMidRunTileDeath) {
  const TileGrid grid(6, 6);
  noc::NocSystem noc(FaultMap(grid), retry_options(200));

  // A mix of pairs; the same-column pair (2,0)->(2,5) is guaranteed to
  // cross (2,2) on *both* networks, so killing that tile strands at least
  // one first attempt and forces the retry + relay fallback.
  const std::pair<TileCoord, TileCoord> pairs[] = {
      {{2, 0}, {2, 5}}, {{2, 5}, {2, 0}}, {{0, 0}, {5, 5}},
      {{5, 0}, {0, 5}}, {{0, 2}, {5, 2}}, {{1, 1}, {4, 3}},
  };
  for (const auto& [src, dst] : pairs)
    ASSERT_TRUE(noc.issue(src, dst, noc::PacketType::ReadRequest));

  std::vector<noc::CompletedTransaction> done;
  for (int i = 0; i < 4; ++i) noc.step(done);

  FaultMap fm = noc.faults();
  fm.set_faulty({2, 2});
  noc.apply_fault_state(fm);

  EXPECT_TRUE(noc.drain(done, 100000));
  const noc::NocStats& st = noc.stats();
  EXPECT_EQ(st.issued, 6u);
  // Every pair avoids the dead tile as an endpoint, and a 6x6 grid minus
  // one interior tile keeps every survivor pair connected (via the other
  // network or a relay), so nothing is permanently lost.
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.lost, 0u);
  EXPECT_GE(st.retries, 1u);
  EXPECT_EQ(st.timeouts, st.retries + st.lost);
  EXPECT_EQ(done.size(), 6u);
}

TEST(NocResilience, CorruptedPacketIsRetriedNotLost) {
  const TileGrid grid(5, 5);
  noc::NocSystem noc(FaultMap(grid), retry_options(100, 2, 8));

  // Converging traffic builds router queues at the hot destination, so a
  // buffered packet exists for the corruption to strike.
  const TileCoord dst{3, 3};
  const TileCoord srcs[] = {{0, 0}, {4, 0}, {0, 4}, {4, 4},
                            {0, 3}, {3, 0}, {1, 1}, {4, 2}};
  for (const TileCoord src : srcs)
    ASSERT_TRUE(noc.issue(src, dst, noc::PacketType::ReadRequest));

  std::vector<noc::CompletedTransaction> done;
  bool corrupted = false;
  for (int cycle = 0; cycle < 50 && !corrupted; ++cycle) {
    noc.step(done);
    grid.for_each([&](TileCoord t) {
      if (!corrupted && noc.inject_corruption(t)) corrupted = true;
    });
  }
  ASSERT_TRUE(corrupted);
  EXPECT_EQ(noc.stats().corrupted, 1u);

  EXPECT_TRUE(noc.drain(done, 100000));
  const noc::NocStats& st = noc.stats();
  EXPECT_EQ(st.issued, 8u);
  EXPECT_EQ(st.completed, 8u);  // the struck transaction recovered
  EXPECT_EQ(st.lost, 0u);
  EXPECT_GE(st.timeouts, 1u);
  EXPECT_EQ(st.timeouts, st.retries);
}

TEST(NocResilience, TimeoutDisabledKeepsLegacyBehaviour) {
  const TileGrid grid(4, 4);
  noc::NocSystem noc{FaultMap(grid)};  // response_timeout == 0
  ASSERT_TRUE(noc.issue({0, 0}, {3, 3}, noc::PacketType::ReadRequest));
  std::vector<noc::CompletedTransaction> done;
  EXPECT_TRUE(noc.drain(done, 10000));
  const noc::NocStats& st = noc.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.lost, 0u);
}

// --------------------------------------------------- NetworkSelector replan

TEST(NetworkSelector, PlansAfterRebindFollowTheNewFaultMap) {
  const TileGrid grid(6, 6);
  FaultMap fm(grid);
  noc::NetworkSelector sel(fm);

  const noc::RoutePlan before = sel.plan({0, 0}, {5, 5});
  ASSERT_TRUE(before.reachable);
  EXPECT_FALSE(before.relayed);

  // Kill the corner of *both* networks' direct paths so the pair must
  // relay under the new map.
  fm.set_faulty({5, 0});
  fm.set_faulty({0, 5});
  fm.set_faulty({2, 2});
  sel = noc::NetworkSelector(fm);
  const noc::RoutePlan after = sel.plan({0, 0}, {5, 5});
  ASSERT_TRUE(after.reachable);
  EXPECT_TRUE(after.relayed);
  for (const TileCoord wp : after.waypoints) EXPECT_FALSE(fm.is_faulty(wp));
  // The assigned selector plans exactly like a second one built over the
  // new map.
  const noc::RoutePlan fresh = noc::NetworkSelector(fm).plan({0, 0}, {5, 5});
  EXPECT_EQ(fields(after), fields(fresh));

  // Going back to the healthy map restores the direct plan.
  sel = noc::NetworkSelector(FaultMap(grid));
  const noc::RoutePlan restored = sel.plan({0, 0}, {5, 5});
  EXPECT_EQ(fields(restored), fields(before));
}

TEST(NetworkSelector, FailedLinkForcesRelayForSameRowPair) {
  // A same-row pair rides the identical tile sequence on both networks, so
  // one failed directed link on that row can only be bypassed via a relay
  // tile in another row.
  const TileGrid grid(5, 5);
  FaultMap fm(grid);
  LinkFaultSet links(grid);
  links.set_failed({1, 2}, Direction::East);
  noc::NetworkSelector sel(fm, links);
  const noc::RoutePlan plan = sel.plan({0, 2}, {4, 2});
  ASSERT_TRUE(plan.reachable);
  EXPECT_TRUE(plan.relayed);
  ASSERT_EQ(plan.waypoints.size(), 3u);
  EXPECT_NE(plan.waypoints[1].y, 2);  // the relay leaves the broken row
}

TEST(NetworkSelector, ReverseLinkDirectionAlsoBlocksThePath) {
  // The response rides the complementary network back over the same tiles,
  // so a failure of only the *reverse* hop must also disqualify the path.
  const TileGrid grid(5, 5);
  FaultMap fm(grid);
  LinkFaultSet links(grid);
  links.set_failed({2, 2}, Direction::West);  // blocks responses 4,2 -> 0,2
  noc::NetworkSelector sel(fm, links);
  const noc::RoutePlan plan = sel.plan({0, 2}, {4, 2});
  ASSERT_TRUE(plan.reachable);
  EXPECT_TRUE(plan.relayed);
}

TEST(NocResilience, ReplannedPairKeepsAllPacketsOnOneNetwork) {
  // In-order invariant across a replan: after a fault-map change, every
  // packet of a given pair must still ride a single network, and arrive in
  // issue order.
  const TileGrid grid(6, 6);
  const TileCoord src{1, 1};
  const TileCoord dst{4, 3};

  FaultMap fm((grid));
  // The pair's parity-balanced choice is YX (north along x=1 first); kill
  // a tile on that column so the replanned pair must move to XY.
  fm.set_faulty({1, 2});

  noc::NocSystem noc(FaultMap(grid), retry_options(200));
  noc.apply_fault_state(fm);  // the mid-run replan

  std::vector<noc::Packet> delivered;
  noc.set_delivery_listener(
      [&](const noc::Packet& p) { delivered.push_back(p); });

  std::vector<std::uint64_t> issue_order;
  std::vector<noc::CompletedTransaction> done;
  for (int i = 0; i < 6; ++i) {
    const auto id = noc.issue(src, dst, noc::PacketType::ReadRequest);
    ASSERT_TRUE(id.has_value());
    issue_order.push_back(*id);
    noc.step(done);
  }
  EXPECT_TRUE(noc.drain(done, 100000));

  ASSERT_EQ(delivered.size(), 6u);
  std::vector<std::uint64_t> arrival_order;
  for (const noc::Packet& p : delivered) {
    EXPECT_EQ(p.network, delivered.front().network);  // one network only
    arrival_order.push_back(p.id);
  }
  EXPECT_EQ(arrival_order, issue_order);  // in order
  EXPECT_EQ(noc.stats().completed, 6u);
  EXPECT_EQ(noc.stats().lost, 0u);
}

// ---------------------------------------------------------- clock recovery

TEST(ClockRecovery, NoFaultsMeansNothingInvalidated) {
  const TileGrid grid(6, 6);
  FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);
  const clock::ReclockReport r = clock::reselect_after_faults(plan, fm, gens);
  EXPECT_TRUE(r.invalidated.empty());
  EXPECT_TRUE(r.newly_orphaned.empty());
  EXPECT_EQ(r.surviving_generator_count, 1u);
  EXPECT_EQ(r.plan.reached_count, plan.reached_count);
  EXPECT_EQ(r.relatch_steps, 0);
}

TEST(ClockRecovery, DownstreamTilesRelatchAfterATileDeath) {
  const TileGrid grid(6, 6);
  FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);

  // Kill an interior tile: its downstream subtree loses the clock but the
  // healthy region stays connected, so everyone re-latches.
  fm.set_faulty({2, 2});
  const clock::ReclockReport r = clock::reselect_after_faults(plan, fm, gens);
  EXPECT_EQ(r.plan.reached_count, grid.tile_count() - 1);
  EXPECT_EQ(r.relatched.size(), r.invalidated.size());
  EXPECT_TRUE(r.newly_orphaned.empty());
  EXPECT_TRUE(clock::reachability_matches_bfs(fm, gens, r.plan));
}

TEST(ClockRecovery, BoxedInTileIsNewlyOrphaned) {
  const TileGrid grid(5, 5);
  FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);

  // Kill all four neighbours of (3,3): the tile is healthy but no
  // toggling clock can ever reach it again (Fig. 4's yellow tile, at
  // runtime).  The same kills box in the (4,4) corner, whose only two
  // neighbours are among them — two orphans, in linear-index order.
  for (const TileCoord n : grid.neighbors({3, 3})) fm.set_faulty(n);
  const clock::ReclockReport r = clock::reselect_after_faults(plan, fm, gens);
  ASSERT_EQ(r.newly_orphaned.size(), 2u);
  EXPECT_EQ(r.newly_orphaned[0], (TileCoord{3, 3}));
  EXPECT_EQ(r.newly_orphaned[1], (TileCoord{4, 4}));
  EXPECT_FALSE(r.plan.tiles[grid.index_of({3, 3})].reached);
  EXPECT_TRUE(clock::reachability_matches_bfs(fm, gens, r.plan));
}

TEST(ClockRecovery, LosingTheOnlyGeneratorOrphansEveryTile) {
  const TileGrid grid(4, 4);
  const FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);
  // ClockGenLoss: the tile is alive but silent, so the survivor list is
  // empty while the fault map is unchanged.
  const clock::ReclockReport r = clock::reselect_after_faults(plan, fm, {});
  EXPECT_EQ(r.surviving_generator_count, 0u);
  EXPECT_EQ(r.invalidated.size(), grid.tile_count());
  EXPECT_EQ(r.newly_orphaned.size(), grid.tile_count());
  EXPECT_EQ(r.plan.reached_count, 0u);
}

TEST(ClockRecovery, SecondGeneratorTakesOverAfterTheFirstDies) {
  const TileGrid grid(6, 6);
  FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}, {5, 5}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);

  fm.set_faulty({0, 0});  // the first generator tile dies outright
  const std::vector<TileCoord> survivors = {{5, 5}};
  const clock::ReclockReport r =
      clock::reselect_after_faults(plan, fm, survivors);
  EXPECT_EQ(r.surviving_generator_count, 1u);
  EXPECT_EQ(r.plan.reached_count, grid.tile_count() - 1);
  EXPECT_TRUE(r.newly_orphaned.empty());
  EXPECT_GE(r.relatch_steps, 1);
  EXPECT_TRUE(clock::reachability_matches_bfs(fm, survivors, r.plan));
}

// ----------------------------------------------------------- PDN brownout

TEST(PdnDegradation, NoBrownoutsMeansNoCollateral) {
  pdn::WaferPdn model(SystemConfig::reduced(8, 8));
  const PdnDegradationReport r =
      resolve_after_brownouts(model, model.solve_uniform(1.0), {},
                              PdnDegradationOptions{}.brownout_load_factor);
  EXPECT_TRUE(r.browned_out.empty());
  EXPECT_TRUE(r.undervolted.empty());
  EXPECT_TRUE(r.unusable().empty());
  EXPECT_DOUBLE_EQ(r.min_supply_v, r.baseline.min_supply_v);
}

TEST(PdnDegradation, BrownoutDeepensTheDroopAndMarksTheTile) {
  pdn::WaferPdn model(SystemConfig::reduced(8, 8));
  const TileCoord struck{4, 4};
  const PdnDegradationReport r = resolve_after_brownouts(
      model, model.solve_uniform(1.0), {struck, struck}, 2.0);  // deduped
  ASSERT_EQ(r.browned_out.size(), 1u);
  EXPECT_EQ(r.browned_out[0], struck);
  // Extra plane current can only deepen the droop.
  EXPECT_LE(r.min_supply_v, r.baseline.min_supply_v);
  const auto unusable = r.unusable();
  EXPECT_TRUE(std::find(unusable.begin(), unusable.end(), struck) !=
              unusable.end());
  // Collateral undervoltage never re-reports the struck tile.
  EXPECT_TRUE(std::find(r.undervolted.begin(), r.undervolted.end(), struck) ==
              r.undervolted.end());
}

// --------------------------------------------------------------- campaign

CampaignOptions small_campaign(std::uint64_t seed) {
  CampaignOptions o;
  o.config = SystemConfig::reduced(6, 6);
  o.seed = seed;
  o.run_cycles = 1200;
  o.fault_horizon = 800;
  o.injection_rate = 0.02;
  o.drain_cycles = 50000;
  o.trajectory_sample_period = 128;
  return o;
}

void expect_identical(const DegradationReport& a, const DegradationReport& b) {
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  EXPECT_TRUE(a.trajectory == b.trajectory);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].applied_cycle, b.events[i].applied_cycle);
    EXPECT_EQ(a.events[i].notice.kind, b.events[i].notice.kind);
    EXPECT_EQ(a.events[i].notice.tile, b.events[i].notice.tile);
    EXPECT_EQ(a.events[i].usable_after, b.events[i].usable_after);
    EXPECT_EQ(a.events[i].recovery_cycles, b.events[i].recovery_cycles);
    EXPECT_EQ(a.events[i].recovered, b.events[i].recovered);
    EXPECT_EQ(a.events[i].clock_relatched, b.events[i].clock_relatched);
    EXPECT_EQ(a.events[i].clock_orphaned, b.events[i].clock_orphaned);
    EXPECT_EQ(a.events[i].pdn_undervolted, b.events[i].pdn_undervolted);
  }
  EXPECT_EQ(a.noc_stats.issued, b.noc_stats.issued);
  EXPECT_EQ(a.noc_stats.completed, b.noc_stats.completed);
  EXPECT_EQ(a.noc_stats.timeouts, b.noc_stats.timeouts);
  EXPECT_EQ(a.noc_stats.retries, b.noc_stats.retries);
  EXPECT_EQ(a.noc_stats.lost, b.noc_stats.lost);
  EXPECT_EQ(a.noc_stats.latency_sum, b.noc_stats.latency_sum);
  EXPECT_EQ(a.mesh_dropped, b.mesh_dropped);
  EXPECT_EQ(a.initial_usable, b.initial_usable);
  EXPECT_EQ(a.final_usable, b.final_usable);
  EXPECT_DOUBLE_EQ(a.pair_reachability_pct, b.pair_reachability_pct);
  EXPECT_EQ(a.single_system_image, b.single_system_image);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(DegradationCampaign, SeededRunIsBitIdentical) {
  const DegradationCampaign campaign(small_campaign(42));
  const DegradationReport a = campaign.run();
  const DegradationReport b = campaign.run();
  expect_identical(a, b);
  EXPECT_EQ(a.events.size(), ScheduleMix{}.total());
}

TEST(DegradationCampaign, DifferentSeedsDiverge) {
  const DegradationReport a = DegradationCampaign(small_campaign(1)).run();
  const DegradationReport b = DegradationCampaign(small_campaign(2)).run();
  bool differs = a.noc_stats.issued != b.noc_stats.issued ||
                 a.events.size() != b.events.size() ||
                 a.final_usable != b.final_usable;
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
    differs = a.events[i].applied_cycle != b.events[i].applied_cycle ||
              a.events[i].notice.tile != b.events[i].notice.tile;
  EXPECT_TRUE(differs);
}

TEST(DegradationCampaign, FiveTileKillBurstRecoversTheFabric) {
  // The acceptance scenario: five tile deaths land mid-traffic on an 8x8
  // wafer.  The NoC must recover (almost) every surviving pair via the
  // dual-network/relay fallback, fully drain (zero deadlocks), and account
  // for every timeout and retry.
  CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 7;
  o.run_cycles = 2500;
  o.injection_rate = 0.02;
  o.drain_cycles = 100000;
  FaultSchedule s;
  s.add({300, RuntimeFaultKind::TileDeath, {2, 2}, Direction::North});
  s.add({600, RuntimeFaultKind::TileDeath, {5, 3}, Direction::North});
  s.add({900, RuntimeFaultKind::TileDeath, {3, 5}, Direction::North});
  s.add({1200, RuntimeFaultKind::TileDeath, {6, 6}, Direction::North});
  s.add({1500, RuntimeFaultKind::TileDeath, {1, 4}, Direction::North});
  o.schedule = s;

  const DegradationReport r = DegradationCampaign(o).run();

  ASSERT_EQ(r.events.size(), 5u);
  EXPECT_EQ(r.initial_usable, 64u);
  EXPECT_LE(r.final_usable, 59u);

  // Zero deadlocks: every transaction in flight at any of the five bursts
  // completed or was accounted lost, and nothing is stuck in the fabric.
  EXPECT_TRUE(r.drained);
  const noc::NocStats& st = r.noc_stats;
  EXPECT_EQ(st.issued, st.completed + st.lost);
  EXPECT_EQ(st.timeouts, st.retries + st.lost);
  EXPECT_EQ(st.replans, 5u);
  EXPECT_GT(st.issued, 0u);
  // The burst struck live traffic and the fabric recovered it.
  EXPECT_GT(st.timeouts, 0u);
  EXPECT_GE(st.retries, 1u);
  EXPECT_LT(static_cast<double>(st.lost),
            0.02 * static_cast<double>(st.issued));

  // >= 98 % of surviving ordered pairs stay routable (here: all of them,
  // since an 8x8 grid minus five scattered tiles stays fully connected).
  EXPECT_GE(r.pair_reachability_pct, 98.0);
  EXPECT_TRUE(r.single_system_image);

  // Each event resolved its in-flight cohort.
  for (const EventOutcome& e : r.events) {
    EXPECT_TRUE(e.recovered);
    EXPECT_EQ(e.notice.kind, RuntimeFaultKind::TileDeath);
  }

  // The usable-tile trajectory never rises.
  for (std::size_t i = 1; i < r.trajectory.size(); ++i)
    EXPECT_LE(r.trajectory[i].usable_tiles, r.trajectory[i - 1].usable_tiles);

  // Post-burst re-bring-up reaches every surviving tile.
  ASSERT_TRUE(r.rebringup.has_value());
  EXPECT_EQ(r.rebringup->usable_tiles, r.final_usable);
  EXPECT_TRUE(r.rebringup->single_system_image);
}

TEST(DegradationCampaign, MonteCarloSummaryAggregates) {
  CampaignOptions o = small_campaign(5);
  o.run_cycles = 600;
  o.fault_horizon = 400;
  const std::vector<DegradationReport> reports =
      DegradationCampaign(o).run_trials(3);
  ASSERT_EQ(reports.size(), 3u);
  const CampaignSummary s = summarize(reports);
  EXPECT_EQ(s.trials, 3);
  EXPECT_GT(s.mean_final_usable_fraction, 0.0);
  EXPECT_LE(s.mean_final_usable_fraction, 1.0);
  EXPECT_GE(s.mean_pair_reachability_pct, 0.0);
  EXPECT_LE(s.mean_pair_reachability_pct, 100.0);
  EXPECT_GE(s.fully_drained, 0);
  EXPECT_LE(s.fully_drained, 3);
}

TEST(DegradationCampaign, BerMapSurvivesClockReselectionOrdering) {
  // Ordering regression: the voltage-aware BER map (plus the layered
  // scheduled degradations) must be re-applied after clock re-selection
  // and apply_fault_state — not just after the PDN re-solve.  A link's
  // eye collapses at cycle 200; a distant tile dies at cycle 230, which
  // runs the re-latch wave and pushes fresh fault state into the meshes.
  // The degraded link has seen almost no traffic by then, so its eventual
  // retirement can only happen if the rebuilt map still carries the
  // degradation after the tile-death event settles.
  CampaignOptions o;
  o.config = SystemConfig::reduced(6, 6);
  o.seed = 9;
  o.run_cycles = 4000;
  o.injection_rate = 0.04;
  o.drain_cycles = 100000;
  o.noc.mesh.integrity.enabled = true;
  FaultSchedule s;
  FaultEvent ber;
  ber.cycle = 200;
  ber.kind = RuntimeFaultKind::LinkBerDegradation;
  ber.tile = {2, 3};
  ber.link = Direction::East;
  ber.magnitude = 8e-3;
  s.add(ber);
  s.add({230, RuntimeFaultKind::TileDeath, {5, 5}, Direction::North});
  o.schedule = s;

  const DegradationCampaign campaign(o);
  const DegradationReport r = campaign.run();
  ASSERT_EQ(r.events.size(), 2u);
  // The degraded link still accumulated errors and was retired — and the
  // retirement postdates the tile death, so the map survived the rebind.
  ASSERT_FALSE(r.retirements.empty());
  EXPECT_EQ(r.retirements[0].tile, (TileCoord{2, 3}));
  EXPECT_EQ(r.retirements[0].dir, Direction::East);
  EXPECT_GT(r.retirements[0].cycle, 230u);
  EXPECT_TRUE(r.drained);

  // And the whole mixed schedule stays bit-identical across runs (the
  // per-trial scratch map reuse must not leak state between runs).
  const DegradationReport r2 = campaign.run();
  ckpt::Writer wa, wb;
  save_report(wa, r);
  save_report(wb, r2);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(DegradationCampaign, CoupledEpochResolveIsDeterministicAndDiverges) {
  // Coupled trials (cosim_epoch_cycles > 0) re-solve the planes from
  // measured NoC activity every epoch.  Heavier per-tile power makes the
  // coupling visible on a 6x6 wafer within a short run.
  CampaignOptions o = small_campaign(11);
  o.config.tile_peak_power_w *= 6.0;
  o.injection_rate = 0.04;
  o.noc.mesh.integrity.enabled = true;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.01;
  // Put the BER knee just above this wafer's regulated band (~1.14-1.15 V
  // at line_regulation 0.1) so the line-regulation residue of any supply
  // difference shows up on the wire instead of clamping to the floor on a
  // small, lightly-drooped wafer.
  o.ber.nominal_v = 1.16;
  o.pdn.pdn.ldo.line_regulation = 0.1;
  o.cosim_epoch_cycles = 64;

  const DegradationCampaign coupled(o);
  const DegradationReport a = coupled.run();
  const DegradationReport b = coupled.run();
  expect_identical(a, b);
  ckpt::Writer wa, wb;
  save_report(wa, a);
  save_report(wb, b);
  EXPECT_EQ(wa.bytes(), wb.bytes());
  EXPECT_TRUE(a.drained);

  // The coupling is a real behavioural change: the same seed without the
  // epoch re-solve produces a different report...
  CampaignOptions so = o;
  so.cosim_epoch_cycles = 0;
  const DegradationCampaign standalone(so);
  const DegradationReport c = standalone.run();
  ckpt::Writer wc;
  save_report(wc, c);
  EXPECT_NE(wa.bytes(), wc.bytes());
  // ...and a different campaign identity, so a coupled checkpoint can
  // never silently resume a static campaign (or vice versa).
  EXPECT_NE(coupled.options_fingerprint(), standalone.options_fingerprint());
}

// ------------------------------------------------- golden report digests

/// CRC-32 over the saved reports, in order.
std::uint32_t report_crc(const std::vector<DegradationReport>& reports) {
  ckpt::Writer w;
  for (const DegradationReport& r : reports) save_report(w, r);
  return ckpt::crc32(w.bytes().data(), w.bytes().size());
}

TEST(DegradationCampaign, GoldenReportDigestsPinCensusAndRebringup) {
  // Pins every saved report byte — the post-burst pair census, the
  // single-system-image verdicts and the re-bring-up summary (JTAG
  // screening TCKs included) — for a small fixed campaign, so any rework
  // of the census or bring-up machinery must reproduce them exactly.
  CampaignOptions o = small_campaign(23);
  o.config = SystemConfig::reduced(16, 16);
  o.run_cycles = 400;
  o.fault_horizon = 300;
  o.mix.tile_deaths = 6;
  o.mix.link_failures = 4;
  o.mix.ldo_brownouts = 0;
  o.mix.packet_corruptions = 0;
  const std::vector<DegradationReport> random =
      DegradationCampaign(o).run_trials(2);

  // Scripted faults: (4,4)<->(10,10) loses both corner tiles, so that
  // pair set needs a relay; corner (0,0) loses both outgoing links, so it
  // is cut off from every other tile and the image splits.
  FaultSchedule s;
  s.add({100, RuntimeFaultKind::TileDeath, {10, 4}, Direction::North});
  s.add({150, RuntimeFaultKind::TileDeath, {4, 10}, Direction::North});
  s.add({200, RuntimeFaultKind::LinkFailure, {0, 0}, Direction::East});
  s.add({250, RuntimeFaultKind::LinkFailure, {0, 0}, Direction::North});
  o.schedule = s;
  const std::vector<DegradationReport> scripted =
      DegradationCampaign(o).run_trials(2);
  ASSERT_EQ(random.size(), 2u);
  ASSERT_EQ(scripted.size(), 2u);
  for (const DegradationReport& r : random) {
    EXPECT_EQ(r.events.size(), 10u);
    EXPECT_TRUE(r.single_system_image);
    ASSERT_TRUE(r.rebringup.has_value());
  }
  for (const DegradationReport& r : scripted) {
    EXPECT_FALSE(r.single_system_image);
    EXPECT_LT(r.pair_reachability_pct, 100.0);
    ASSERT_TRUE(r.rebringup.has_value());
  }

  EXPECT_EQ(report_crc(random), 0x27bc00adu);
  EXPECT_EQ(report_crc(scripted), 0xbc6a4586u);

  // Non-uniform synthetic traffic under every fault class, with
  // assembly-time faults, link integrity and coupled PDN epochs: pins the
  // trial RNG's hand-over to the traffic generator after the schedule
  // draws, and the generator tracking each mid-run tile loss.
  CampaignOptions h;
  h.config = SystemConfig::reduced(16, 16);
  h.seed = 5;
  h.run_cycles = 1200;
  h.fault_horizon = 800;
  h.injection_rate = 0.03;
  h.pattern = noc::TrafficPattern::Hotspot;
  h.initial_fault_probability = 0.03;
  h.mix.tile_deaths = 4;
  h.mix.link_failures = 2;
  h.mix.ldo_brownouts = 1;
  h.mix.packet_corruptions = 3;
  h.mix.clock_gen_losses = 1;
  h.mix.link_ber_degradations = 2;
  h.noc.mesh.integrity.enabled = true;
  h.cosim_epoch_cycles = 64;
  const std::vector<DegradationReport> hotspot =
      DegradationCampaign(h).run_trials(3);
  ASSERT_EQ(hotspot.size(), 3u);
  EXPECT_EQ(report_crc(hotspot), 0xf91af372u);
}

/// A 16x16 campaign whose slotted planes sag to ~1.2 V at the centre, so
/// three brownouts there push their neighbours out of regulation.  The
/// BER curve starts to climb inside the regulated band, so every
/// re-derived BER map shows on the wire when link integrity is on.
CampaignOptions brownout_campaign(bool integrity, int epoch_cycles) {
  CampaignOptions o = small_campaign(31);
  o.config = SystemConfig::reduced(16, 16);
  o.run_cycles = 600;
  o.injection_rate = 0.03;
  o.pdn.pdn.plane_slotting_factor = 15.0;
  o.pdn.brownout_load_factor = 3.0;
  o.pdn.pdn.ldo.line_regulation = 0.1;
  o.noc.mesh.integrity.enabled = integrity;
  o.ber.floor_ber = 1e-9;
  o.ber.volts_per_decade = 0.02;
  o.cosim_epoch_cycles = epoch_cycles;
  FaultSchedule s;
  s.add({100, RuntimeFaultKind::LdoBrownout, {7, 7}, Direction::North});
  s.add({150, RuntimeFaultKind::TileDeath, {3, 12}, Direction::North});
  s.add({200, RuntimeFaultKind::LdoBrownout, {8, 8}, Direction::North});
  s.add({250, RuntimeFaultKind::LinkFailure, {10, 5}, Direction::East});
  s.add({300, RuntimeFaultKind::LdoBrownout, {6, 9}, Direction::North});
  s.add({350, RuntimeFaultKind::PacketCorruption, {4, 4}, Direction::North});
  o.schedule = s;
  return o;
}

TEST(DegradationCampaign, BrownoutResolveDigestsArePinned) {
  // Every brownout re-solves the planes at peak draw with the struck
  // loads raised.  Pins every saved report byte on each path that reaches
  // that re-solve: integrity off (no BER map, so nothing else needs a PDN
  // model), integrity on without epoch coupling (each degraded solve sets
  // the base BER map) and the coupled loop (the epoch re-solves follow).
  const auto run = [](bool integrity, int epoch_cycles) {
    const std::vector<DegradationReport> reports =
        DegradationCampaign(brownout_campaign(integrity, epoch_cycles))
            .run_trials(2);
    for (const DegradationReport& r : reports) {
      int undervolted = 0;
      for (const EventOutcome& e : r.events) undervolted += e.pdn_undervolted;
      EXPECT_GT(undervolted, 0) << "no brownout reached a neighbour";
    }
    return report_crc(reports);
  };
  EXPECT_EQ(run(false, 0), 0xf9e34c45u);
  EXPECT_EQ(run(true, 0), 0x669a9795u);
  EXPECT_EQ(run(true, 64), 0x9c320ff7u);
}

TEST(DegradationCampaign, RecoveryCyclesFollowTheInFlightSetAtEachEvent) {
  // An event recovers once every transaction in flight when it landed has
  // completed or been declared lost.  A later event's in-flight set holds
  // every still-live id of an earlier one, so recoveries close in event
  // order; with no traffic there is nothing to wait for and the event
  // settles at the end of its own cycle.  The 20-cycle drain leaves some
  // events unrecovered on purpose.
  std::size_t events = 0;
  std::size_t unrecovered = 0;
  for (const int side : {8, 16}) {
    for (const double rate : {0.0, 0.02, 0.1}) {
      CampaignOptions o;
      o.config = SystemConfig::reduced(side, side);
      o.seed = 7;
      o.run_cycles = 600;
      o.fault_horizon = 500;
      o.injection_rate = rate;
      o.drain_cycles = 20;
      o.noc.mesh.integrity.enabled = true;
      for (const DegradationReport& r : DegradationCampaign(o).run_trials(12)) {
        std::uint64_t last_settle = 0;
        bool seen_unrecovered = false;
        for (const EventOutcome& e : r.events) {
          ++events;
          if (rate == 0.0) {
            EXPECT_TRUE(e.recovered);
            EXPECT_EQ(e.recovery_cycles, 1u);
          }
          if (!e.recovered) {
            ++unrecovered;
            seen_unrecovered = true;
            continue;
          }
          EXPECT_FALSE(seen_unrecovered)
              << side << "x" << side << " rate " << rate;
          const std::uint64_t settle = e.applied_cycle + e.recovery_cycles;
          EXPECT_GE(settle, last_settle)
              << side << "x" << side << " rate " << rate;
          last_settle = settle;
        }
      }
    }
  }
  EXPECT_EQ(events, 6u * 12u * ScheduleMix{}.total());
  EXPECT_GT(unrecovered, 0u);
  EXPECT_LT(unrecovered, events);
}

}  // namespace
}  // namespace wsp::resilience

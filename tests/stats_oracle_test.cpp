// Statistical oracles for the simulator's random streams: the BER channel
// of each link and the injection processes of the stochastic traffic
// generators.  Each test compares simulated counts against the law the
// stream is documented to follow (binomial per link, Bernoulli per tile
// and cycle, geometric inter-arrival gaps), using only the closed forms in
// stat_oracles.hpp.  Seeds and the two-sided 1e-6 thresholds are fixed, so
// any stream that follows the law passes and a stream change never needs a
// re-pin here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "stat_oracles.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

using oracle::binomial_consistent;
using oracle::chi_square_consistent;

// --------------------------------------------------------- link channel

/// BER of the directed link leaving (x, y) towards `d`: four levels, zero
/// included, spread over the wafer so every level covers many links.
double staged_ber(int x, int y, int d) {
  constexpr double kLevels[4] = {0.0, 5e-4, 1e-3, 2e-3};
  return kLevels[(x + 2 * y + d) % 4];
}

TEST(LinkErrorOracle, DetectedErrorsPerLinkAreBinomialInTheStagedBer) {
  const TileGrid grid(8, 8);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);
  noc::LinkBerMap ber(grid);
  grid.for_each([&](TileCoord c) {
    for (int d = 0; d < 4; ++d)
      ber.set_ber(c, static_cast<Direction>(d), staged_ber(c.x, c.y, d));
  });
  noc.set_link_ber(ber);

  Rng traffic(29);
  std::vector<noc::CompletedTransaction> done;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    grid.for_each([&](TileCoord src) {
      if (!traffic.bernoulli(0.04)) return;
      const TileCoord dst = grid.coord_of(traffic.below(grid.tile_count()));
      if (!(dst == src)) noc.issue(src, dst, noc::PacketType::ReadRequest);
    });
    noc.step(done);
  }
  ASSERT_TRUE(noc.drain(done));

  // A hop fails when any of the 100 wire bits flips; the CRC-8 then misses
  // one corruption in 256, which arrives as an escape, not a detection.
  // Each link is checked alone, then the links of each BER level pooled
  // (a sum of binomials with one p), which resolves a shift of a few
  // percent in p.
  std::map<double, std::pair<std::uint64_t, std::uint64_t>> pooled;
  for (const noc::NetworkKind kind :
       {noc::NetworkKind::XY, noc::NetworkKind::YX}) {
    const noc::MeshNetwork& mesh = noc.network(kind);
    grid.for_each([&](TileCoord c) {
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<Direction>(d);
        if (!grid.neighbor(c, dir)) continue;
        const std::uint64_t n = mesh.link_traversal_count(c, dir);
        const std::uint64_t k = mesh.link_error_count(c, dir);
        const double bit = staged_ber(c.x, c.y, d);
        const double p =
            (1.0 - std::pow(1.0 - bit, 100.0)) * (1.0 - 1.0 / 256.0);
        EXPECT_TRUE(binomial_consistent(n, p, k))
            << "link (" << c.x << "," << c.y << ") dir " << d << " of "
            << noc::to_string(kind) << ": " << k << " errors in " << n
            << " traversals at p = " << p;
        pooled[p].first += n;
        pooled[p].second += k;
      }
    });
  }
  ASSERT_EQ(pooled.size(), 4u);
  for (const auto& [p, counts] : pooled) {
    const auto [n, k] = counts;
    EXPECT_GT(n, 10000u) << "too little traffic at p = " << p;
    EXPECT_TRUE(binomial_consistent(n, p, k))
        << k << " errors in " << n << " pooled traversals at p = " << p;
  }
}

// ------------------------------------------------- generator injections

constexpr double kRate = 0.03;
constexpr int kCycles = 4000;

/// The Fig. 7-style wafer the generator oracles run on: 16x16 with twelve
/// seeded dead tiles.
FaultMap oracle_faults() {
  Rng rng(5);
  return FaultMap::random_with_count(TileGrid(16, 16), 12, rng);
}

std::unique_ptr<workloads::TrafficGenerator> synthetic(const FaultMap& f) {
  noc::TrafficConfig cfg;
  cfg.injection_rate = kRate;
  return workloads::make_synthetic(cfg, f, Rng(101));
}

/// SpikingBurst with avalanches off: background firing only.
std::unique_ptr<workloads::TrafficGenerator> spiking(const FaultMap& f) {
  workloads::WorkloadSpec spec;
  spec.cls = workloads::WorkloadClass::SpikingBurst;
  spec.seed = 202;
  spec.spiking.background_rate = kRate;
  spec.spiking.burst_rate = 0.0;
  spec.spiking.burst_interval = 0;
  return workloads::make_generator(spec, SystemConfig::reduced(16, 16), f);
}

/// Probability that a spike fired at `src` is emitted: it draws a uniform
/// offset in [-2, 2]^2 up to 16 times and is dropped if none lands on a
/// healthy in-grid tile other than `src`.
double spike_emit_prob(const FaultMap& f, TileCoord src) {
  int valid = 0;
  for (int dy = -2; dy <= 2; ++dy)
    for (int dx = -2; dx <= 2; ++dx) {
      const TileCoord d{src.x + dx, src.y + dy};
      if (f.grid().contains(d) && f.is_healthy(d) && !(d == src)) ++valid;
    }
  return 1.0 - std::pow(1.0 - valid / 25.0, 16.0);
}

/// Cycles at which each tile injected, over `cycles` emits.
std::map<std::size_t, std::vector<int>> injection_cycles(
    workloads::TrafficGenerator& gen, const TileGrid& grid, int cycles) {
  std::map<std::size_t, std::vector<int>> at;
  std::vector<workloads::Injection> out;
  for (int c = 0; c < cycles; ++c) {
    out.clear();
    gen.emit(out);
    for (const workloads::Injection& inj : out)
      at[grid.index_of(inj.src)].push_back(c);
  }
  return at;
}

/// Pearson statistic of the per-tile injection counts against a per-tile
/// Bernoulli(rate(tile)) process over kCycles, df = healthy tiles; and the
/// total count against its normal law (mean and variance summed per tile),
/// which resolves a rate off by a few percent.
void expect_counts_match(workloads::TrafficGenerator& gen, const FaultMap& f,
                         auto rate_of) {
  const TileGrid& grid = f.grid();
  const auto at = injection_cycles(gen, grid, kCycles);
  double stat = 0.0, total = 0.0, total_mean = 0.0, total_var = 0.0;
  std::size_t df = 0;
  grid.for_each([&](TileCoord c) {
    const auto it = at.find(grid.index_of(c));
    const double k = it == at.end() ? 0.0 : it->second.size();
    if (f.is_faulty(c)) {
      EXPECT_EQ(k, 0.0) << "dead tile (" << c.x << "," << c.y << ") fired";
      return;
    }
    const double p = rate_of(c);
    const double mean = kCycles * p;
    stat += (k - mean) * (k - mean) / (mean * (1.0 - p));
    ++df;
    total += k;
    total_mean += mean;
    total_var += mean * (1.0 - p);
  });
  EXPECT_TRUE(chi_square_consistent(stat, static_cast<double>(df)))
      << gen.name() << ": chi-square " << stat << " on " << df << " df";
  EXPECT_LE(std::abs(total - total_mean) / std::sqrt(total_var),
            oracle::kZTail)
      << gen.name() << ": " << total << " injections, expected "
      << total_mean;
}

TEST(InjectionOracle, SyntheticPerTileCountsMatchTheRate) {
  const FaultMap f = oracle_faults();
  const auto gen = synthetic(f);
  expect_counts_match(*gen, f, [](TileCoord) { return kRate; });
}

TEST(InjectionOracle, SpikingBackgroundPerTileCountsMatchTheRate) {
  const FaultMap f = oracle_faults();
  const auto gen = spiking(f);
  expect_counts_match(*gen, f, [&](TileCoord c) {
    return kRate * spike_emit_prob(f, c);
  });
}

/// Per-tile gaps between successive injections must be Geometric(rate) on
/// {1, 2, ...}.  Over 2 * kCycles emits, every injection before kCycles
/// contributes its gap to the next one; a gap not closed by the end is at
/// least kCycles long and falls in the open last bin.  The bins split the
/// law into 16 near-equal quantiles.  Only tiles with `rate_exact` apply.
void expect_gaps_geometric(workloads::TrafficGenerator& gen, const FaultMap& f,
                           auto rate_exact) {
  constexpr int kBins = 16;
  const double q = 1.0 - kRate;
  std::vector<std::uint64_t> upper;  // inclusive upper gap of bins 0..14
  for (int j = 1; j < kBins; ++j)
    upper.push_back(static_cast<std::uint64_t>(
        std::ceil(std::log(1.0 - static_cast<double>(j) / kBins) /
                  std::log(q))));
  ASSERT_LT(upper.back(), static_cast<std::uint64_t>(kCycles));

  std::vector<double> observed(kBins, 0.0);
  double gaps = 0.0;
  const TileGrid& grid = f.grid();
  for (const auto& [tile, cycles] : injection_cycles(gen, grid, 2 * kCycles)) {
    if (!rate_exact(grid.coord_of(tile))) continue;
    for (std::size_t i = 0; i < cycles.size() && cycles[i] < kCycles; ++i) {
      const std::uint64_t gap =
          i + 1 < cycles.size()
              ? static_cast<std::uint64_t>(cycles[i + 1] - cycles[i])
              : static_cast<std::uint64_t>(2 * kCycles);
      std::size_t b = 0;
      while (b < upper.size() && gap > upper[b]) ++b;
      observed[b] += 1.0;
      gaps += 1.0;
    }
  }
  ASSERT_GT(gaps, 5000.0);
  double stat = 0.0;
  std::uint64_t lo = 1;
  for (int b = 0; b < kBins; ++b) {
    // P(lo <= G <= hi) = q^(lo-1) - q^hi; the last bin is P(G >= lo).
    const double p_bin =
        std::pow(q, static_cast<double>(lo - 1)) -
        (b + 1 < kBins ? std::pow(q, static_cast<double>(upper[b])) : 0.0);
    const double expected = gaps * p_bin;
    stat += (observed[b] - expected) * (observed[b] - expected) / expected;
    if (b + 1 < kBins) lo = upper[b] + 1;
  }
  EXPECT_TRUE(chi_square_consistent(stat, kBins - 1))
      << gen.name() << ": chi-square " << stat << " on " << kBins - 1
      << " df over " << gaps << " gaps";
}

TEST(GapOracle, SyntheticInterArrivalGapsAreGeometric) {
  const FaultMap f = oracle_faults();
  const auto gen = synthetic(f);
  expect_gaps_geometric(*gen, f, [](TileCoord) { return true; });
}

TEST(GapOracle, SpikingBackgroundInterArrivalGapsAreGeometric) {
  // Only tiles whose 5x5 fan-out holds 24 healthy targets: there a spike is
  // dropped with probability 25^-16, so the gaps follow Geometric(rate).
  const FaultMap f = oracle_faults();
  const auto gen = spiking(f);
  expect_gaps_geometric(*gen, f, [&](TileCoord c) {
    return spike_emit_prob(f, c) == 1.0;
  });
}

}  // namespace
}  // namespace wsp

#include "wsp/noc/link_health.hpp"

#include <algorithm>
#include <bit>

#include "wsp/noc/noc_system.hpp"

namespace wsp::noc {

namespace {
constexpr std::uint64_t kHalfMax = 0xFFFFu;
}  // namespace

std::uint32_t pack_scrub_word(std::uint64_t errors, std::uint64_t traversals) {
  // One shared shift: saturating each half on its own would pin the
  // traversals while the errors kept climbing, inflating the rate.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(traversals)) - 16);
  const auto e =
      static_cast<std::uint32_t>(std::min(errors >> shift, kHalfMax));
  const auto t = static_cast<std::uint32_t>(traversals >> shift);
  return (e << 16) | t;
}

std::array<std::uint32_t, 4> pack_scrub_words(const NocSystem& noc,
                                              TileCoord tile) {
  std::array<std::uint32_t, 4> words{};
  for (std::size_t i = 0; i < kAllDirections.size(); ++i)
    words[i] = pack_scrub_word(
        noc.link_error_count(tile, kAllDirections[i]),
        noc.link_traversal_count(tile, kAllDirections[i]));
  return words;
}

LinkHealthMonitor::LinkHealthMonitor(const TileGrid& grid)
    : grid_(grid), flagged_(grid.tile_count()) {}

std::vector<RetiredLink> LinkHealthMonitor::ingest(
    TileCoord tile, const std::array<std::uint32_t, 4>& words,
    std::uint64_t cycle) {
  std::vector<RetiredLink> due;
  if (!grid_.contains(tile)) return due;
  const std::size_t index = grid_.index_of(tile);
  for (std::size_t i = 0; i < kAllDirections.size(); ++i) {
    if (flagged_[index][i]) continue;
    const std::uint64_t errors = words[i] >> 16;
    const std::uint64_t traversals = words[i] & kHalfMax;
    if (traversals < kMinTraversals || errors < kMinErrors) continue;
    if (static_cast<double>(errors) <
        kRetireErrorRate * static_cast<double>(traversals))
      continue;
    flagged_[index][i] = true;
    const RetiredLink r{tile, kAllDirections[i], cycle, errors, traversals};
    retired_.push_back(r);
    due.push_back(r);
  }
  return due;
}

std::vector<RetiredLink> LinkHealthMonitor::scrub(const NocSystem& noc) {
  std::vector<RetiredLink> due;
  grid_.for_each([&](TileCoord tile) {
    const auto links = ingest(tile, pack_scrub_words(noc, tile), noc.now());
    due.insert(due.end(), links.begin(), links.end());
  });
  return due;
}

bool LinkHealthMonitor::is_retired(TileCoord tile, Direction d) const {
  if (!grid_.contains(tile)) return false;
  return flagged_[grid_.index_of(tile)][static_cast<std::size_t>(d)];
}

}  // namespace wsp::noc

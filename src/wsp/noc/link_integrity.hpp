// Link-level data integrity: the voltage-aware BER channel and the CRC-8
// hop protection carved out of the 100-bit packet budget.
//
// The paper assumes the fine-pitch Si-IF links (Secs. IV/VI) are
// error-free.  Real waferscale links are not: the eye margin of a
// source-synchronous link collapses as the local supply sags, so a tile
// whose LDO is merely *marginal* — still regulating, but low in the band —
// becomes error-prone long before it fails hard.  This header models that
// coupling:
//
//   * `ber_from_voltage` maps the weaker endpoint's regulated supply to a
//     bit-error rate on a log-linear curve (the standard eye-margin model:
//     every `volts_per_decade` of lost margin costs one decade of BER).
//   * `LinkBerMap` holds the per-directed-link BER derived from a PDN
//     solve; it is re-derived whenever the plane is re-solved, so a
//     brownout raises BER *before* the degradation layer kills tiles.
//   * CRC-8 (poly 0x07) over the packet image gives hop-level detection.
//     The 100-bit budget pays for it by narrowing the request address
//     field: 8 CRC bits + a 4-bit link sequence number (see packet.hpp).
//     A corrupted packet escapes the check with probability ~2^-8; the
//     simulator models detection probabilistically (equivalent in
//     distribution to flipping wire bits and re-running the polynomial,
//     at a fraction of the cost) and counts the escapes it knows about.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wsp/common/geometry.hpp"
#include "wsp/noc/packet.hpp"

namespace wsp::noc {

/// Voltage -> BER curve of one Si-IF link endpoint (eye-margin model).
struct BerParams {
  double nominal_v = 1.1;          ///< LDO target output: BER floor here
  double floor_ber = 1e-12;        ///< BER at or above nominal supply
  double volts_per_decade = 0.025; ///< margin lost per decade of BER
  double max_ber = 0.05;           ///< channel is unusable past this
};

auto fields(Of<BerParams> auto& p) {
  return std::tie(p.nominal_v, p.floor_ber, p.volts_per_decade, p.max_ber);
}

/// BER for a link whose weaker endpoint sees regulated supply `v`.
double ber_from_voltage(double v, const BerParams& params = {});

/// Probability that a `kPacketWireBits`-bit packet takes at least one bit
/// error crossing a link with bit-error rate `ber`.
double packet_error_probability(double ber);

/// Probability a corrupted packet slips past the CRC-8 check (the
/// fraction of random error patterns that alias to a valid codeword).
inline constexpr double kCrcEscapeProbability = 1.0 / 256.0;

/// CRC-8, polynomial x^8+x^2+x+1 (0x07), init 0, MSB first.  Check value
/// over "123456789" is 0xF4.
std::uint8_t crc8(const std::uint8_t* data, std::size_t size);

/// CRC-8 over the packet's wire image (coordinates, type, payload) — the
/// field a router verifies at every hop.
std::uint8_t packet_crc(const Packet& packet);

/// Per-directed-link bit-error rate, keyed like LinkFaultSet by
/// (source tile, outgoing direction).  Links leaving the array carry no
/// BER.  Default-constructed maps (and maps fresh from a grid) are
/// error-free: the channel model is pay-for-what-you-use.
class LinkBerMap {
 public:
  LinkBerMap() : LinkBerMap(TileGrid(1, 1)) {}
  explicit LinkBerMap(const TileGrid& grid)
      : grid_(grid),
        ber_(grid.tile_count() * 4, 0.0),
        pkt_p_(grid.tile_count() * 4, 0.0) {}

  /// Every in-array link at the same BER (benchmark sweeps).
  static LinkBerMap uniform(const TileGrid& grid, double ber);

  /// Derives each link's BER from the *weaker* endpoint's regulated
  /// voltage (`v_out` indexed by TileGrid::index_of): the low-supply side
  /// limits both its transmit swing and its receive sensing margin.
  /// Every voltage must be finite (throws wsp::Error otherwise).
  static LinkBerMap from_tile_voltages(const TileGrid& grid,
                                       const std::vector<double>& v_out,
                                       const BerParams& params = {});

  const TileGrid& grid() const { return grid_; }

  double ber(TileCoord from, Direction d) const {
    if (ber_.empty() || !grid_.contains(from)) return 0.0;
    return ber_[index_of(from, d)];
  }
  /// ber() by flat tile index and direction; 0 for links leaving the array.
  double ber_at(std::size_t tile, std::size_t dir) const {
    return ber_.empty() ? 0.0 : ber_[tile * 4 + dir];
  }

  /// Per-traversal packet corruption probability (precomputed).
  double packet_error_prob(TileCoord from, Direction d) const {
    if (pkt_p_.empty() || !grid_.contains(from)) return 0.0;
    return pkt_p_[index_of(from, d)];
  }
  double packet_error_prob_at(std::size_t tile, std::size_t dir) const {
    return pkt_p_.empty() ? 0.0 : pkt_p_[tile * 4 + dir];
  }

  /// Raises/sets one link's BER (marginal-link fault injection).  Links
  /// that leave the array are ignored.
  void set_ber(TileCoord from, Direction d, double ber);

  /// Every link's BER, tile-major with 4 directions per tile (0 for links
  /// leaving the array): the checkpoint encoding.
  const std::vector<double>& bers() const { return ber_; }
  /// The map whose bers() is `bers` (one entry per link of `grid`), built
  /// through set_ber.
  static LinkBerMap from_bers(const TileGrid& grid,
                              const std::vector<double>& bers);

  /// True when every link is error-free — lets the mesh skip channel
  /// sampling entirely.
  bool error_free() const { return !any_; }

 private:
  TileGrid grid_;
  std::vector<double> ber_;    ///< tile-major, 4 directions per tile
  std::vector<double> pkt_p_;  ///< 1-(1-ber)^kPacketWireBits, same keying
  bool any_ = false;

  std::size_t index_of(TileCoord c, Direction d) const {
    return grid_.index_of(c) * 4 + static_cast<std::size_t>(d);
  }
};

/// Knobs of the hop-level integrity protocol (shared by both meshes).  The
/// meshes sample the BER map set by NocSystem::set_link_ber
/// (error-free until one is set); each caller that sets one derives it
/// from its own BerParams.
struct LinkIntegrityOptions {
  /// Master switch: BER channel sampling + CRC check at every hop.  Off
  /// reproduces the pre-integrity simulator bit for bit.
  bool enabled = false;
  /// Hop-level NACK/retransmit.  When false, a detected CRC error drops
  /// the packet at the receiving hop and recovery falls back to the
  /// end-to-end timeout — the ablation arm of the BER sweep.
  bool retransmit = true;
  /// Seed of the counter-based channel draws (independent of traffic).
  std::uint64_t seed = 0xB17E5;
};

auto fields(Of<LinkIntegrityOptions> auto& o) {
  return std::tie(o.enabled, o.retransmit, o.seed);
}

}  // namespace wsp::noc

#include "wsp/noc/link_integrity.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/common/error.hpp"

namespace wsp::noc {

double ber_from_voltage(double v, const BerParams& params) {
  // Log-linear eye-margin model: each volts_per_decade of supply lost
  // below nominal costs one decade of BER, clamped to the usable range.
  const double decades = (params.nominal_v - v) / params.volts_per_decade;
  if (decades <= 0.0) return params.floor_ber;
  const double ber = params.floor_ber * std::pow(10.0, decades);
  return std::min(ber, params.max_ber);
}

double packet_error_probability(double ber) {
  if (ber <= 0.0) return 0.0;
  if (ber >= 1.0) return 1.0;
  // 1 - (1-ber)^bits, computed in log space so tiny BERs don't underflow.
  return -std::expm1(static_cast<double>(kPacketWireBits) *
                     std::log1p(-ber));
}

std::uint8_t crc8(const std::uint8_t* data, std::size_t size) {
  std::uint8_t crc = 0;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 0x80u) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07u)
                          : static_cast<std::uint8_t>(crc << 1);
  }
  return crc;
}

std::uint8_t packet_crc(const Packet& packet) {
  // Byte-aligned wire image: coordinates, type, then the 64-bit payload
  // little-endian.  The simulator's bookkeeping fields (ids, timestamps)
  // are not wire bits and stay outside the polynomial.
  std::uint8_t image[13];
  image[0] = static_cast<std::uint8_t>(packet.src.x);
  image[1] = static_cast<std::uint8_t>(packet.src.y);
  image[2] = static_cast<std::uint8_t>(packet.dst.x);
  image[3] = static_cast<std::uint8_t>(packet.dst.y);
  image[4] = static_cast<std::uint8_t>(packet.type);
  for (int b = 0; b < 8; ++b)
    image[5 + b] = static_cast<std::uint8_t>(packet.payload >> (8 * b));
  return crc8(image, sizeof image);
}

LinkBerMap LinkBerMap::uniform(const TileGrid& grid, double ber) {
  LinkBerMap map(grid);
  grid.for_each([&](TileCoord c) {
    for (const Direction d : kAllDirections) map.set_ber(c, d, ber);
  });
  return map;
}

LinkBerMap LinkBerMap::from_tile_voltages(const TileGrid& grid,
                                          const std::vector<double>& v_out,
                                          const BerParams& params) {
  require(v_out.size() == grid.tile_count(),
          "from_tile_voltages: one voltage per tile required");
  // The curve is evaluated once per tile; each link copies the pair of
  // the endpoint std::min(v_a, v_b) would pick, so the map is bit-identical
  // to evaluating the curve per link at the weaker endpoint's voltage.
  std::vector<double> tile_ber(v_out.size());
  std::vector<double> tile_pkt(v_out.size());
  for (std::size_t t = 0; t < v_out.size(); ++t) {
    // A NaN BER fails every sampling comparison: the link would never err.
    require(std::isfinite(v_out[t]), "from_tile_voltages: non-finite voltage");
    tile_ber[t] = std::clamp(ber_from_voltage(v_out[t], params), 0.0, 1.0);
    tile_pkt[t] = packet_error_probability(tile_ber[t]);
  }
  LinkBerMap map(grid);
  for (int y = 0; y < grid.height(); ++y)
    for (int x = 0; x < grid.width(); ++x) {
      const TileCoord c{x, y};
      const std::size_t a = grid.index_of(c);
      for (const Direction d : kAllDirections) {
        const TileCoord n = step(c, d);
        if (!grid.contains(n)) continue;
        const std::size_t b = grid.index_of(n);
        const std::size_t weak = v_out[b] < v_out[a] ? b : a;
        const std::size_t i = map.index_of(c, d);
        map.ber_[i] = tile_ber[weak];
        map.pkt_p_[i] = tile_pkt[weak];
        map.any_ = map.any_ || tile_pkt[weak] > 0.0;
      }
    }
  return map;
}

LinkBerMap LinkBerMap::from_bers(const TileGrid& grid,
                                 const std::vector<double>& bers) {
  require(bers.size() == grid.tile_count() * 4,
          "from_bers: one BER per tile and direction required");
  LinkBerMap map(grid);
  for (std::size_t i = 0; i < bers.size(); ++i)
    if (bers[i] != 0.0)
      map.set_ber(grid.coord_of(i / 4), static_cast<Direction>(i % 4),
                  bers[i]);
  return map;
}

void LinkBerMap::set_ber(TileCoord from, Direction d, double ber) {
  if (ber_.empty() || !grid_.contains(from) || !grid_.neighbor(from, d))
    return;
  const std::size_t i = index_of(from, d);
  ber_[i] = std::clamp(ber, 0.0, 1.0);
  pkt_p_[i] = packet_error_probability(ber_[i]);
  if (pkt_p_[i] > 0.0) any_ = true;
}

}  // namespace wsp::noc

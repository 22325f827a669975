// Network packet (Sec. VI).
//
// The inter-tile links are 400 bits wide per tile side, divided into four
// parallel buses: ingress + egress for each of the two DoR networks.  A
// whole packet is 100 bits, exactly one bus width, so a packet moves one
// hop per cycle — there is no flit segmentation in this design, which keeps
// the router trivial (a key "keep it simple enough for 3-4 grad students"
// decision of the paper).
//
// Link-integrity budget (wsp/noc/link_integrity.hpp): 12 of the 100 bits
// are an integrity field — a CRC-8 checked at every hop plus a 4-bit
// per-link sequence number for the NACK/retransmit protocol — paid for by
// narrowing the request address field (the per-tile address window shrinks
// accordingly; responses lose spare payload bits).  The simulator keeps
// its bookkeeping fields full width and models the integrity field's
// *effect* (hop detection, per-link ordering, bounded retransmission)
// rather than its bit packing.
#pragma once

#include <cstdint>

#include "wsp/common/geometry.hpp"

namespace wsp::noc {

/// Which DoR network a packet travels on.
enum class NetworkKind : std::uint8_t {
  XY = 0,  ///< route X first, then Y
  YX = 1,  ///< route Y first, then X
};
constexpr NetworkKind enum_max(NetworkKind) { return NetworkKind::YX; }

constexpr NetworkKind complementary(NetworkKind k) {
  return k == NetworkKind::XY ? NetworkKind::YX : NetworkKind::XY;
}

const char* to_string(NetworkKind k);

/// Wire width of one packet — one full bus, one hop per cycle.
inline constexpr int kPacketWireBits = 100;

/// Memory-style transaction types carried by the mesh.  Requests and their
/// responses always travel on complementary networks (baked into the router
/// hardware) so a request/response pair traverses the same physical tiles
/// and deadlock between the two message classes is impossible.
enum class PacketType : std::uint8_t {
  ReadRequest = 0,
  WriteRequest = 1,
  ReadResponse = 2,
  WriteAck = 3,
};
constexpr PacketType enum_max(PacketType) { return PacketType::WriteAck; }

constexpr bool is_request(PacketType t) {
  return t == PacketType::ReadRequest || t == PacketType::WriteRequest;
}

/// One 100-bit packet.  The simulator carries bookkeeping fields (ids,
/// timestamps) that the hardware wouldn't, purely for measurement.
struct Packet {
  TileCoord src;
  TileCoord dst;
  PacketType type = PacketType::ReadRequest;
  NetworkKind network = NetworkKind::XY;
  std::uint64_t payload = 0;   ///< 64-bit data payload
  std::uint32_t address = 0;   ///< target address (bank/offset encoding)

  // --- simulator bookkeeping (not part of the 100 wire bits) ---
  std::uint64_t id = 0;            ///< unique per injected packet
  std::uint64_t request_id = 0;    ///< for responses: id of the request
  std::uint64_t injected_cycle = 0;
  std::uint64_t delivered_cycle = 0;
  std::uint32_t attempt = 0;       ///< retry generation (0 = first send)
};

auto fields(Of<Packet> auto& p) {
  return std::tie(p.src, p.dst, p.type, p.network, p.payload, p.address, p.id,
                  p.request_id, p.injected_cycle, p.delivered_cycle,
                  p.attempt);
}

}  // namespace wsp::noc

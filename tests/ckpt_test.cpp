// wsp::ckpt core: the framed container format and its strictness contract.
//
// Everything the checkpoint layer promises at the byte level is asserted
// here: CRC-32 against the published test vector, Writer/Reader
// round-trips for every primitive, the seal/open frame (magic, container
// version, payload kind, state version, size, CRC), and — the robustness
// half — that every malformed input path throws a *typed* ckpt::Error
// (Truncated / BadMagic / BadCrc / VersionMismatch / SchemaMismatch /
// TopologyMismatch / Io) instead of crashing or reading out of bounds.
// Atomic file emission (write-temp-then-rename) and the wsp_common
// plain-data serialisers (FaultMap, LinkFaultSet) round-trip here too, and
// so does every public state record through save_fields/load_fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <concepts>
#include <functional>
#include <string>
#include <vector>

#include "field_walk.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/noc/link_health.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/resilience/fault_schedule.hpp"

namespace wsp {
namespace {

using ckpt::ErrorKind;

ckpt::ErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ckpt::Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected ckpt::Error, nothing thrown";
  return ErrorKind::Io;
}

std::vector<std::uint8_t> sample_frame() {
  ckpt::Writer w;
  w.tag(ckpt::fourcc("SMPL"));
  w.u64(0xDEADBEEFCAFEF00Dull);
  w.str("payload");
  return ckpt::seal(ckpt::fourcc("TEST"), 3, w);
}

TEST(Crc32, KnownVectors) {
  const char* check = "123456789";
  EXPECT_EQ(ckpt::crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
  const std::uint8_t zero = 0;
  EXPECT_EQ(ckpt::crc32(&zero, 1), 0xD202EF8Du);
}

TEST(Crc32, ChunkedUpdateEqualsOneShot) {
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  // Every split point of the check vector, including empty chunks.
  for (std::size_t cut = 0; cut <= 9; ++cut) {
    std::uint32_t crc = ckpt::crc32_update(0, check, cut);
    crc = ckpt::crc32_update(crc, check + cut, 9 - cut);
    EXPECT_EQ(crc, 0xCBF43926u) << "cut=" << cut;
  }
  std::uint32_t bytewise = 0;
  for (std::size_t i = 0; i < 9; ++i)
    bytewise = ckpt::crc32_update(bytewise, check + i, 1);
  EXPECT_EQ(bytewise, 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32_update(0, nullptr, 0), 0u);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320, init and xorout all ones)
/// with no table: the definition the table-driven crc32 must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(1100 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  // Lengths 0..1100 from each of 8 start offsets: every tail length and
  // every alignment of the 8-byte blocks.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 1100; ++len)
      ASSERT_EQ(ckpt::crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
  // Streaming over random split points equals the one-shot reference.
  const std::uint32_t whole = crc32_bitwise(buf.data(), buf.size());
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t crc = 0;
    std::size_t at = 0;
    while (at < buf.size()) {
      const std::size_t n = std::min<std::size_t>(
          buf.size() - at, rng.below(trial % 2 == 0 ? 24 : 400));
      crc = ckpt::crc32_update(crc, buf.data() + at, n);
      at += n;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(WriterReader, EveryPrimitiveRoundTrips) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x01234567u);
  w.u64(0x89ABCDEF01234567ull);
  w.i32(-42);
  w.i64(-1234567890123456789ll);
  w.f64(-2.5e-308);
  w.b(true);
  w.b(false);
  w.str(std::string("wafer\0scale", 11));  // length-prefixed, NUL-safe
  const std::uint8_t blob[4] = {1, 2, 3, 4};
  w.raw(blob, sizeof blob);
  w.tag(ckpt::fourcc("DONE"));

  ckpt::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0x01234567u);
  EXPECT_EQ(r.u64(), 0x89ABCDEF01234567ull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123456789ll);
  EXPECT_EQ(r.f64(), -2.5e-308);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.str(), std::string("wafer\0scale", 11));
  std::uint8_t out[4] = {};
  r.raw(out, sizeof out);
  EXPECT_EQ(std::memcmp(out, blob, sizeof blob), 0);
  r.expect_tag(ckpt::fourcc("DONE"), "trailer");
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WriterReader, LittleEndianByteOrder) {
  ckpt::Writer w;
  w.u32(0x04030201u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 1);
  EXPECT_EQ(w.bytes()[1], 2);
  EXPECT_EQ(w.bytes()[2], 3);
  EXPECT_EQ(w.bytes()[3], 4);
}

TEST(WriterReader, SpecialDoublesRoundTrip) {
  ckpt::Writer w;
  w.f64(0.0);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  ckpt::Reader r(w.bytes());
  EXPECT_EQ(r.f64(), 0.0);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
}

TEST(Reader, ReadPastEndIsTypedTruncation) {
  ckpt::Writer w;
  w.u32(7);
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              r.u64();  // only 4 bytes available
            }),
            ErrorKind::Truncated);
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              r.u32();
              r.u8();  // exactly at the end
            }),
            ErrorKind::Truncated);
}

TEST(Reader, WrongTagIsSchemaMismatch) {
  ckpt::Writer w;
  w.tag(ckpt::fourcc("AAAA"));
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              r.expect_tag(ckpt::fourcc("BBBB"), "section");
            }),
            ErrorKind::SchemaMismatch);
}

TEST(Reader, HostileLengthCannotDriveAllocation) {
  // A corrupt element count far beyond the remaining bytes must be
  // rejected before any allocation is sized from it.
  ckpt::Writer w;
  w.u64(~0ull);  // claims 2^64-1 elements
  w.u32(0);
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              r.length(8);
            }),
            ErrorKind::Truncated);
  // A count that fits is returned unchanged.
  ckpt::Writer ok;
  ok.u64(3);
  ok.u32(0);
  ok.u32(0);
  ok.u32(0);
  ckpt::Reader r(ok.bytes());
  EXPECT_EQ(r.length(4), 3u);
}

TEST(Frame, SealOpenRoundTrip) {
  ckpt::Writer w;
  w.u64(11);
  w.str("state");
  const std::vector<std::uint8_t> frame =
      ckpt::seal(ckpt::fourcc("TEST"), 7, w);
  ASSERT_EQ(frame.size(), ckpt::kFrameOverhead + w.size());

  const ckpt::Frame f = ckpt::open(frame);
  EXPECT_EQ(f.payload_kind, ckpt::fourcc("TEST"));
  EXPECT_EQ(f.state_version, 7u);
  EXPECT_TRUE(std::ranges::equal(f.payload(), w.bytes()));

  ckpt::Reader r(f.payload());
  EXPECT_EQ(r.u64(), 11u);
  EXPECT_EQ(r.str(), "state");
}

TEST(Frame, EmptyPayloadIsValid) {
  const ckpt::Writer w;
  const ckpt::Frame f = ckpt::open(ckpt::seal(ckpt::fourcc("NULP"), 1, w));
  EXPECT_TRUE(f.payload().empty());
}

TEST(Frame, TruncationAtEveryLengthIsTyped) {
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(kind_of([&] { ckpt::open(frame.data(), n); }),
              ErrorKind::Truncated)
        << "prefix length " << n;
  }
}

TEST(Frame, BadMagic) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame[0] ^= 0x01;
  EXPECT_EQ(kind_of([&] { ckpt::open(frame); }), ErrorKind::BadMagic);
}

TEST(Frame, UnknownContainerVersion) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame[8] = ckpt::kContainerVersion + 1;  // container version u32 LE @ 8
  EXPECT_EQ(kind_of([&] { ckpt::open(frame); }), ErrorKind::VersionMismatch);
}

TEST(Frame, PayloadBitFlipIsBadCrc) {
  std::vector<std::uint8_t> frame = sample_frame();
  // Flip one bit in every payload byte in turn; each must be caught.
  for (std::size_t i = ckpt::kHeaderSize; i + 4 < frame.size(); ++i) {
    std::vector<std::uint8_t> hit = frame;
    hit[i] ^= 0x40;
    EXPECT_EQ(kind_of([&] { ckpt::open(hit); }), ErrorKind::BadCrc)
        << "payload byte " << (i - ckpt::kHeaderSize);
  }
}

TEST(Frame, CrcFieldBitFlipIsBadCrc) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame.back() ^= 0x80;
  EXPECT_EQ(kind_of([&] { ckpt::open(frame); }), ErrorKind::BadCrc);
}

TEST(Frame, TrailingBytesAreSchemaMismatch) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame.push_back(0);
  EXPECT_EQ(kind_of([&] { ckpt::open(frame); }), ErrorKind::SchemaMismatch);
}

TEST(Frame, OpenExpectRejectsForeignKind) {
  const std::vector<std::uint8_t> frame = sample_frame();
  EXPECT_EQ(ckpt::open_expect(frame, ckpt::fourcc("TEST")).state_version, 3u);
  EXPECT_EQ(
      kind_of([&] { ckpt::open_expect(frame, ckpt::fourcc("NOCS")); }),
      ErrorKind::SchemaMismatch);
}

TEST(Frame, ErrorKindNamesAreStable) {
  EXPECT_STREQ(ckpt::to_string(ErrorKind::BadCrc), "bad crc");
  const ckpt::Error e(ErrorKind::TopologyMismatch, "8x8 vs 16x16");
  EXPECT_NE(std::string(e.what()).find("8x8 vs 16x16"), std::string::npos);
}

// --- atomic file emission ---------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(AtomicWrite, FileRoundTripsAndLeavesNoTemp) {
  const TempFile tmp("CKPT_atomic_test.bin");
  const std::vector<std::uint8_t> frame = sample_frame();
  ckpt::atomic_write_file(tmp.path(), frame.data(), frame.size());
  EXPECT_EQ(ckpt::read_file(tmp.path()), frame);
  std::FILE* leftover = std::fopen((tmp.path() + ".tmp").c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "temp file must be renamed away";
  if (leftover) std::fclose(leftover);

  // Overwrite in place: the new content fully replaces the old.
  const std::uint8_t small[3] = {9, 9, 9};
  ckpt::atomic_write_file(tmp.path(), small, sizeof small);
  EXPECT_EQ(ckpt::read_file(tmp.path()).size(), 3u);
}

TEST(AtomicWrite, UnwritableDirectoryIsTypedIo) {
  const std::uint8_t byte = 1;
  EXPECT_EQ(kind_of([&] {
              ckpt::atomic_write_file("no_such_dir/x.bin", &byte, 1);
            }),
            ErrorKind::Io);
  EXPECT_FALSE(ckpt::atomic_write_text("no_such_dir/x.json", "{}"));
}

TEST(AtomicWrite, TextHelperWrites) {
  const TempFile tmp("CKPT_atomic_test.json");
  ASSERT_TRUE(ckpt::atomic_write_text(tmp.path(), "{\"ok\":true}\n"));
  const std::vector<std::uint8_t> bytes = ckpt::read_file(tmp.path());
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "{\"ok\":true}\n");
}

TEST(AtomicWrite, ReadMissingFileIsTypedIo) {
  EXPECT_EQ(kind_of([] { ckpt::read_file("CKPT_no_such_file.bin"); }),
            ErrorKind::Io);
}

TEST(FrameFile, SaveLoadRoundTrip) {
  const TempFile tmp("CKPT_frame_test.wsp");
  ckpt::Writer w;
  w.u64(123);
  ckpt::save_frame_file(tmp.path(), ckpt::fourcc("TEST"), 2, w);
  const ckpt::Frame f = ckpt::load_frame_file(tmp.path(), ckpt::fourcc("TEST"));
  EXPECT_EQ(f.state_version, 2u);
  EXPECT_TRUE(std::ranges::equal(f.payload(), w.bytes()));
  EXPECT_EQ(ckpt::read_file(tmp.path()),
            ckpt::seal(ckpt::fourcc("TEST"), 2, w));
  EXPECT_EQ(kind_of([&] {
              ckpt::load_frame_file(tmp.path(), ckpt::fourcc("CAMP"));
            }),
            ErrorKind::SchemaMismatch);
  EXPECT_EQ(kind_of([] {
              ckpt::load_frame_file("CKPT_no_such.wsp", ckpt::fourcc("TEST"));
            }),
            ErrorKind::Io);
}

// --- wsp_common plain-data serialisers --------------------------------------

TEST(FaultMapCkpt, RoundTrip) {
  const TileGrid grid(6, 4);
  FaultMap map(grid);
  map.set_faulty({1, 2}, true);
  map.set_faulty({5, 0}, true);
  map.set_faulty({0, 3}, true);

  ckpt::Writer w;
  ckpt::save_fault_map(w, map);
  ckpt::Reader r(w.bytes());
  const FaultMap loaded = ckpt::load_fault_map(r, &grid);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded, map);
}

TEST(FaultMapCkpt, ForeignGridIsTopologyMismatch) {
  const TileGrid grid(6, 4);
  ckpt::Writer w;
  ckpt::save_fault_map(w, FaultMap(grid));
  const TileGrid other(4, 6);
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              ckpt::load_fault_map(r, &other);
            }),
            ErrorKind::TopologyMismatch);
  // nullptr expected-grid accepts any topology.
  ckpt::Reader r(w.bytes());
  const FaultMap any = ckpt::load_fault_map(r, nullptr);
  EXPECT_EQ(any.grid().width(), 6);
  EXPECT_EQ(any.grid().height(), 4);
}

TEST(LinkFaultsCkpt, RoundTrip) {
  const TileGrid grid(5, 5);
  LinkFaultSet links(grid);
  links.set_failed({2, 2}, Direction::East);
  links.set_failed({0, 4}, Direction::South);

  ckpt::Writer w;
  ckpt::save_link_faults(w, links);
  ckpt::Reader r(w.bytes());
  const LinkFaultSet loaded = ckpt::load_link_faults(r, &grid);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded, links);
  EXPECT_EQ(loaded.failed_count(), 2u);

  const TileGrid other(5, 6);
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader again(w.bytes());
              ckpt::load_link_faults(again, &other);
            }),
            ErrorKind::TopologyMismatch);
}

// The per-element guards Reader::length applies, derived from the types;
// these are the sizes the hand-kept literals used to spell out.
static_assert(ckpt::min_encoded_size<noc::Packet> == 66);
static_assert(ckpt::min_encoded_size<resilience::FaultEvent> == 26);
static_assert(ckpt::min_encoded_size<resilience::EventOutcome> == 71);
static_assert(ckpt::min_encoded_size<noc::RetiredLink> == 33);
static_assert(ckpt::min_encoded_size<cosim::EpochReport> == 92);
static_assert(ckpt::min_encoded_size<noc::TileActivity> == 24);
static_assert(ckpt::min_encoded_size<std::vector<noc::Packet>> == 8);

// Perturbs every leaf of `base` in turn (tests/field_walk.hpp) and requires
// load_fields to rebuild exactly the value save_fields wrote: equal by
// operator== where the record has one, and equal re-encoded bytes always.
template <class T>
void expect_leafwise_round_trip(const T& base) {
  const std::size_t leaves =
      for_each_perturbed_leaf(base, [](const T& x, std::size_t leaf) {
        ckpt::Writer w;
        ckpt::save_fields(w, x);
        EXPECT_GE(w.size(), ckpt::min_encoded_size<T>);
        T back{};
        ckpt::Reader r(w.bytes());
        ckpt::load_fields(r, back);
        EXPECT_TRUE(r.done()) << "leaf " << leaf;
        if constexpr (std::equality_comparable<T>) {
          EXPECT_TRUE(back == x) << "leaf " << leaf;
        }
        ckpt::Writer again;
        ckpt::save_fields(again, back);
        EXPECT_EQ(again.bytes(), w.bytes()) << "leaf " << leaf;
      });
  EXPECT_GT(leaves, 0u);
}

TEST(Fields, EveryStateRecordRoundTripsLeafByLeaf) {
  expect_leafwise_round_trip(noc::Packet{});
  expect_leafwise_round_trip(noc::TileActivity{});
  expect_leafwise_round_trip(noc::RoutePlan{});
  expect_leafwise_round_trip(noc::NocStats{});
  expect_leafwise_round_trip(noc::RetiredLink{});
  expect_leafwise_round_trip(resilience::FaultEvent{});
  expect_leafwise_round_trip(FaultNotice{});
  expect_leafwise_round_trip(resilience::EventOutcome{});
  expect_leafwise_round_trip(resilience::TrajectoryPoint{});
  expect_leafwise_round_trip(resilience::RebringupSummary{});
  expect_leafwise_round_trip(cosim::EpochReport{});
  expect_leafwise_round_trip(ckpt::Heartbeat{});
}

TEST(Fields, EnumPastItsBoundIsSchemaMismatch) {
  ckpt::Writer w;
  w.u8(static_cast<std::uint8_t>(enum_max(Direction{})) + 1);
  Direction d{};
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              ckpt::load_fields(r, d);
            }),
            ErrorKind::SchemaMismatch);
}

TEST(Fields, SpanRungWritesThePerElementBytes) {
  // Contiguous arrays of integers, doubles, std::arrays of them and packed
  // records go out as one block; the bytes must be the per-element ones.
  static_assert(ckpt::detail::span_range<std::vector<noc::TileActivity>>);
  static_assert(!ckpt::detail::span_range<std::vector<noc::Packet>>);
  static_assert(!ckpt::detail::span_range<std::vector<bool>>);
  const std::vector<std::uint16_t> u16s = {1, 0xBEEF};
  const std::vector<std::int32_t> i32s = {-1, 7};
  const std::vector<double> f64s = {-0.0, 1.5, std::nan("")};
  const std::vector<std::array<std::uint64_t, 2>> pairs = {{1, 2}, {3, 4}};
  const std::vector<noc::TileActivity> acts = {{1, 2, 3}, {4, 5, 6}};
  ckpt::Writer span;
  ckpt::save_fields(span, std::tie(u16s, i32s, f64s, pairs, acts));
  ckpt::Writer each;
  each.u64(2);
  for (const auto v : u16s) each.u16(v);
  each.u64(2);
  for (const auto v : i32s) each.i32(v);
  each.u64(3);
  for (const auto v : f64s) each.f64(v);
  each.u64(2);
  for (const auto& a : pairs) {
    each.u64(a[0]);
    each.u64(a[1]);
  }
  each.u64(2);
  for (const auto& a : acts) {
    each.u64(a.injections);
    each.u64(a.traversals);
    each.u64(a.retransmits);
  }
  EXPECT_EQ(span.bytes(), each.bytes());

  std::vector<std::uint16_t> u16s2;
  std::vector<std::int32_t> i32s2;
  std::vector<double> f64s2;
  std::vector<std::array<std::uint64_t, 2>> pairs2;
  std::vector<noc::TileActivity> acts2;
  ckpt::Reader r(span.bytes());
  ckpt::load_fields(r, std::tie(u16s2, i32s2, f64s2, pairs2, acts2));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(u16s2, u16s);
  EXPECT_EQ(i32s2, i32s);
  EXPECT_EQ(pairs2, pairs);
  ckpt::Writer again;
  ckpt::save_fields(again, std::tie(u16s2, i32s2, f64s2, pairs2, acts2));
  EXPECT_EQ(again.bytes(), span.bytes());
}

TEST(Fields, HostileVectorCountIsTruncated) {
  ckpt::Writer w;
  w.u64(3);  // three packets promised, two bytes follow
  w.u16(0);
  std::vector<noc::Packet> packets;
  EXPECT_EQ(kind_of([&] {
              ckpt::Reader r(w.bytes());
              ckpt::load_fields(r, packets);
            }),
            ErrorKind::Truncated);
}

}  // namespace
}  // namespace wsp

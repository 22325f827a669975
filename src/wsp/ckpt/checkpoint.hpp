// Deterministic checkpoint/replay: the versioned binary snapshot format.
//
// Long-horizon experiments (Monte Carlo degradation campaigns, rare-event
// BER sweeps) die with the process unless their state can leave it.  This
// module is the seam: every stateful subsystem exposes
// `save_state(ckpt::Writer&)` / `load_state(ckpt::Reader&)` hooks that
// serialise its complete simulation state — packet pools, per-link rings,
// RNG streams, solver voltages, metric counters — into a framed container:
//
//   offset  size  field
//   0       8     magic "WSPCKPT\0"
//   8       4     container version (u32 LE, currently 1)
//   12      4     payload kind (fourcc: which subsystem wrote it)
//   16      4     payload state version (per-subsystem schema revision)
//   20      8     payload size in bytes (u64 LE)
//   28      n     payload
//   28+n    4     CRC-32 (IEEE 802.3) of the payload
//
// Every multi-byte field is little-endian by construction (byte shifts,
// never memcpy-of-struct), so snapshots are portable across hosts.  The one
// bulk path, the span rung of save_fields/save_each, copies a contiguous
// array of integers, doubles, std::arrays of them, or records proven at
// compile time to be packed in fields() order as one block of bytes, and
// only on a little-endian host, where those bytes are exactly what the
// per-element shifts would write; elsewhere the elements are shifted out
// one by one.
//
// Strictness contract: loading never exhibits UB.  Truncation, corruption,
// a wrong magic, a wrong container/payload version, or a snapshot taken on
// a different topology all throw `ckpt::Error` with a typed `ErrorKind` —
// the Reader bounds-checks every read and the frame CRC is verified before
// any payload byte is interpreted.
//
// Emission contract: `atomic_write_file` writes to `<path>.tmp` and
// renames, so a crash mid-write never leaves a truncated snapshot under
// the real name.  `atomic_write_text` is the same discipline for the JSON
// artifact emitters (RunReport, BENCH_*.json).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/fields.hpp"

namespace wsp::ckpt {

/// What went wrong while loading (or emitting) a snapshot.
enum class ErrorKind : std::uint8_t {
  Io,                ///< file missing / unreadable / unwritable
  Truncated,         ///< fewer bytes than the format promises
  BadMagic,          ///< not a wsp::ckpt container at all
  BadCrc,            ///< payload bytes fail the CRC-32 check
  VersionMismatch,   ///< container or payload schema revision unknown
  SchemaMismatch,    ///< wrong payload kind, options, or internal shape
  TopologyMismatch,  ///< snapshot taken on a different grid/topology
};

const char* to_string(ErrorKind kind);

/// Typed load/emit failure.  Everything the loader can reject throws this
/// (never a raw wsp::Error, never UB), so callers can branch on kind().
class Error : public wsp::Error {
 public:
  Error(ErrorKind kind, const std::string& what)
      : wsp::Error(std::string("ckpt: ") + to_string(kind) + ": " + what),
        kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the frame
/// integrity check.  crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Streaming form: extends the finished CRC `crc` of some prefix by the
/// next `size` bytes (start from 0).  Folding a byte string in any chunking
/// gives crc32() of the whole string.
std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size);

/// Four-character payload-kind tag, e.g. fourcc("NOCS").
constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// Append-only little-endian byte sink.  All save_state hooks write
/// through this, so the payload encoding is uniform across subsystems.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void raw(const void* data, std::size_t size);

  /// Section marker: a fourcc the matching Reader::expect_tag verifies, so
  /// a schema drift fails loudly at the section boundary instead of
  /// silently misinterpreting downstream bytes.
  void tag(std::uint32_t t) { u32(t); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  /// Empties the sink, keeping its capacity for reuse.
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian byte source.  Every read validates the
/// remaining length first and throws Error{Truncated} on shortfall, so a
/// malformed payload can never read out of bounds.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(std::span<const std::uint8_t> bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool b();
  std::string str();
  void raw(void* out, std::size_t size);

  /// Verifies the next u32 equals `t`; throws Error{SchemaMismatch} naming
  /// `what` otherwise.
  void expect_tag(std::uint32_t t, const char* what);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  /// Reads a u64 element count and validates it against the remaining
  /// bytes (each element occupying at least `min_element_size` bytes), so
  /// a corrupt length can never drive a multi-gigabyte allocation.
  std::size_t length(std::size_t min_element_size = 1);

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n)
      throw Error(ErrorKind::Truncated, "payload ends mid-field");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint32_t kContainerVersion = 1;
inline constexpr std::size_t kHeaderSize = 28;  ///< magic..payload_size
inline constexpr std::size_t kFrameOverhead = kHeaderSize + 4;  ///< + CRC

/// An opened container: kind + schema revision + the whole verified frame,
/// whose payload is read in place.
struct Frame {
  std::uint32_t payload_kind = 0;
  std::uint32_t state_version = 0;
  std::vector<std::uint8_t> bytes;  ///< header, payload and CRC trailer

  /// The payload, a view into `bytes` (empty for a frame open() did not
  /// fill).
  std::span<const std::uint8_t> payload() const {
    if (bytes.size() < kFrameOverhead) return {};
    return std::span(bytes).subspan(kHeaderSize, bytes.size() - kFrameOverhead);
  }
};

/// Wraps a payload in the magic/version/CRC-32 frame.
std::vector<std::uint8_t> seal(std::uint32_t payload_kind,
                               std::uint32_t state_version,
                               const Writer& payload);

/// Validates a frame and keeps its bytes.  Throws Error with kind
/// Truncated / BadMagic / VersionMismatch / SchemaMismatch (trailing bytes)
/// / BadCrc.
Frame open(std::vector<std::uint8_t> bytes);
inline Frame open(const std::uint8_t* data, std::size_t size) {
  return open(std::vector<std::uint8_t>(data, data + size));
}

/// Like open(), but additionally requires the payload kind to match —
/// loading a NoC snapshot into a campaign resume is a SchemaMismatch, not
/// a crash three fields later.
Frame open_expect(std::vector<std::uint8_t> bytes,
                  std::uint32_t expected_kind);

// --- file emission / ingestion ---------------------------------------------

/// Writes `size` bytes to `<path>.tmp`, flushes, fsyncs, and renames over
/// `path`, then fsyncs the parent directory.  An interrupted run — process
/// kill *or* power loss — leaves either the old file or the new one, never
/// a truncated hybrid: the data is on stable storage before the name is.
/// Throws Error{Io} on failure (the temp is removed).
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);

/// atomic_write_file for text artifacts (RunReport / BENCH_*.json share
/// this helper).  Returns false instead of throwing — the JSON emitters
/// report I/O failure by return value.
bool atomic_write_text(const std::string& path,
                       const std::string& text) noexcept;

/// Whole file as bytes; throws Error{Io} when missing or unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

/// The bytes of seal(), written as atomic_write_file does, straight from
/// the payload (no sealed copy is built).
void save_frame_file(const std::string& path, std::uint32_t payload_kind,
                     std::uint32_t state_version, const Writer& payload);

/// read_file() + open_expect() in one call.
Frame load_frame_file(const std::string& path, std::uint32_t expected_kind);

// --- worker heartbeat frames ------------------------------------------------

/// Liveness beacon a fleet worker atomically rewrites at every checkpoint
/// (a tiny "HBEA" frame).  The dispatcher reads it each supervision tick to
/// distinguish a slow-but-alive worker (sequence advancing) from a hung or
/// SIGSTOPped one (payload frozen).  atomic_write_file gives every bump a
/// fresh mtime *and* a torn-read-proof payload — the dispatcher never sees
/// half a heartbeat.
struct Heartbeat {
  std::uint32_t shard = 0;      ///< shard index in the fleet plan
  std::uint32_t attempt = 0;    ///< dispatch attempt this worker is (1-based)
  std::uint64_t completed = 0;  ///< trials completed so far within the shard
  std::uint64_t sequence = 0;   ///< strictly increasing per write
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

auto fields(Of<Heartbeat> auto& hb) {
  return std::tie(hb.shard, hb.attempt, hb.completed, hb.sequence);
}

void save_heartbeat(const std::string& path, const Heartbeat& hb);
/// Throws Error{Io} when the file is missing (worker not yet started), plus
/// the usual typed frame errors on truncation/corruption.
Heartbeat load_heartbeat(const std::string& path);

// --- serialisation of wsp_common plain-data types ---------------------------
// These live here (not in wsp_common) because wsp_ckpt depends on
// wsp_common, never the reverse.  Reconstructed through the public API, so
// the types themselves stay serialisation-agnostic.

void save_fault_map(Writer& w, const FaultMap& map);
/// Throws Error{TopologyMismatch} when the serialised grid differs from
/// `expected` (pass nullptr to accept any grid).
FaultMap load_fault_map(Reader& r, const TileGrid* expected = nullptr);

void save_link_faults(Writer& w, const LinkFaultSet& links);
LinkFaultSet load_link_faults(Reader& r, const TileGrid* expected = nullptr);

// --- records, encoded from their fields() list ------------------------------
//
// save_fields / load_fields / min_encoded_size walk one type ladder:
//   bool             -> b
//   enum             -> u8; load range-checks against enum_max(E), which
//                       every loaded enum declares beside itself
//   integer          -> u8/u16/u32/u64 by width (signed ones two's complement)
//   double           -> f64
//   std::array       -> its elements
//   other range      -> u64 count, then its elements (vector, deque; a map
//                       saves as its key/value pairs)
//   (a contiguous range of span elements, see span_element below, writes
//   and reads its elements as one block on a little-endian host)
//   optional         -> presence flag, then the value
//   tuple            -> its elements (what fields() and std::tie return)
//   pointer          -> the pointee
//   state()/set_state() (Rng) -> the state value
//   save_state/load_state hooks -> the hooks
//   fields()         -> every listed member, in order

template <class T>
void save_fields(Writer& w, const T& v);
template <class T>
void load_fields(Reader& r, T& v);
template <class... Ts>
void load_fields(Reader& r, std::tuple<Ts&...> refs);

namespace detail {
template <class T>
constexpr std::size_t min_size();

template <class Tuple, std::size_t... I>
constexpr std::size_t tuple_min_size(std::index_sequence<I...>) {
  return (std::size_t{0} + ... +
          min_size<std::remove_cvref_t<std::tuple_element_t<I, Tuple>>>());
}

template <class T>
constexpr std::size_t min_size() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::ranges::range<T>) {
    if constexpr (requires { std::tuple_size<T>::value; })
      return std::tuple_size_v<T> * min_size<std::ranges::range_value_t<T>>();
    else
      return 8;
  } else if constexpr (requires(const T& v) { v.has_value(); }) {
    return 1;
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    return tuple_min_size<T>(std::make_index_sequence<std::tuple_size_v<T>>{});
  } else if constexpr (std::is_pointer_v<T>) {
    return min_size<std::remove_cv_t<std::remove_pointer_t<T>>>();
  } else if constexpr (requires(T& v) { v.set_state(v.state()); }) {
    return min_size<decltype(std::declval<T&>().state())>();
  } else if constexpr (requires(const T& v, Writer& w) { v.save_state(w); }) {
    return 1;
  } else {
    return min_size<decltype(fields(std::declval<T&>()))>();
  }
}

template <class T>
constexpr void check_member_count(const T& v) {
  static_assert(std::tuple_size_v<decltype(fields(v))> == member_count<T>,
                "fields() must list every data member");
}

static_assert(std::numeric_limits<double>::is_iec559,
              "f64 is the IEEE-754 binary64 bit pattern");

template <class T>
inline constexpr bool is_std_array = false;
template <class T, std::size_t N>
inline constexpr bool is_std_array<std::array<T, N>> = true;

/// Integers and doubles; not bool or enums, whose loads are checked.
template <class T>
inline constexpr bool span_scalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

/// Sets field i of a T to i + 1 and reads T's bytes back as words of the
/// first field's type: they are 1, 2, ..., n only when the fields are T's
/// only bytes, in fields() order (a padding byte, or a field of another
/// width or kind, cannot read back so).  Needs a constexpr fields().
template <class T, std::size_t... I>
constexpr bool packed_in_field_order(std::index_sequence<I...>) {
  T t{};
  auto f = fields(t);
  using Word = std::remove_reference_t<decltype(std::get<0>(f))>;
  ((std::get<I>(f) = static_cast<Word>(I + 1)), ...);
  const auto words = std::bit_cast<std::array<Word, sizeof...(I)>>(t);
  return ((words[I] == static_cast<Word>(I + 1)) && ...);
}

/// A record whose save_fields bytes are its object bytes on a
/// little-endian host, proven by packed_in_field_order.
template <class T>
constexpr bool packed_record() {
  if constexpr (std::is_trivially_copyable_v<T> && requires(T& v) {
                  requires std::tuple_size_v<decltype(fields(v))> > 0;
                }) {
    using Tie = decltype(fields(std::declval<T&>()));
    using Word = std::remove_reference_t<std::tuple_element_t<0, Tie>>;
    constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tie>>{};
    if constexpr (span_scalar<Word> && sizeof(T) == seq.size() * sizeof(Word))
      return requires {
        typename std::bool_constant<packed_in_field_order<T>(seq)>;
      } && packed_in_field_order<T>(seq);
  }
  return false;
}

/// Element types a contiguous range saves as one block of bytes: span
/// scalars, std::arrays of span elements, and packed records.
template <class T>
constexpr bool span_element() {
  if constexpr (is_std_array<T>)
    return span_element<typename T::value_type>();
  else
    return span_scalar<T> || packed_record<T>();
}

template <class R>
inline constexpr bool span_range =
    std::endian::native == std::endian::little &&
    std::ranges::contiguous_range<R> &&
    span_element<std::ranges::range_value_t<R>>();

/// The elements of a range, without a count: one block for a span range.
template <class R>
void save_elements(Writer& w, const R& range) {
  if constexpr (span_range<R>) {
    w.raw(std::ranges::data(range),
          std::ranges::size(range) * sizeof(std::ranges::range_value_t<R>));
  } else {
    for (const auto& e : range) save_fields(w, e);
  }
}
template <class R>
void load_elements(Reader& r, R& range) {
  if constexpr (span_range<R>) {
    r.raw(std::ranges::data(range),
          std::ranges::size(range) * sizeof(std::ranges::range_value_t<R>));
  } else {
    for (auto& e : range) load_fields(r, e);
  }
}
}  // namespace detail

/// Fewest bytes save_fields can write for a T: the per-element guard a
/// vector count is checked against (Reader::length) before allocating.
template <class T>
inline constexpr std::size_t min_encoded_size = detail::min_size<T>();

/// Writes `v` little-endian through the ladder above.
template <class T>
void save_fields(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.b(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    w.u16(static_cast<std::uint16_t>(v));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    w.u32(static_cast<std::uint32_t>(v));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    w.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::ranges::range<T>) {
    if constexpr (!requires { std::tuple_size<T>::value; }) w.u64(v.size());
    detail::save_elements(w, v);
  } else if constexpr (requires { v.has_value(); }) {
    w.b(v.has_value());
    if (v) save_fields(w, *v);
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    std::apply([&w](const auto&... f) { (save_fields(w, f), ...); }, v);
  } else if constexpr (std::is_pointer_v<T>) {
    save_fields(w, *v);
  } else if constexpr (requires(T& m) { m.set_state(m.state()); }) {
    save_fields(w, v.state());
  } else if constexpr (requires { v.save_state(w); }) {
    v.save_state(w);
  } else {
    detail::check_member_count(v);
    save_fields(w, fields(v));
  }
}

/// The exact inverse of save_fields.  Throws Error{Truncated} when the
/// payload ends early (or a count exceeds what is left of it) and
/// Error{SchemaMismatch} for an enum past enum_max or a bool that is
/// neither 0 nor 1.  Only what the type itself rules out is checked here;
/// grid bounds, capacities and cross-references stay with the caller.
template <class T>
void load_fields(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.b();
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(requires { enum_max(T{}); },
                  "declare `constexpr E enum_max(E)` beside the enum");
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(enum_max(T{})))
      throw Error(ErrorKind::SchemaMismatch, "enum value out of range");
    v = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    v = static_cast<T>(r.u8());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    v = static_cast<T>(r.u16());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    v = static_cast<T>(r.u32());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    v = static_cast<T>(r.u64());
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::ranges::range<T>) {
    if constexpr (!requires { std::tuple_size<T>::value; })
      v.resize(r.length(min_encoded_size<std::ranges::range_value_t<T>>));
    detail::load_elements(r, v);
  } else if constexpr (requires { v.has_value(); }) {
    if (r.b()) {
      load_fields(r, v.emplace());
    } else {
      v.reset();
    }
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    std::apply([&r](auto&... f) { (load_fields(r, f), ...); }, v);
  } else if constexpr (std::is_pointer_v<T>) {
    load_fields(r, *v);
  } else if constexpr (requires { v.set_state(v.state()); }) {
    auto s = v.state();
    load_fields(r, s);
    v.set_state(s);
  } else if constexpr (requires { v.load_state(r); }) {
    v.load_state(r);
  } else {
    detail::check_member_count(v);
    load_fields(r, fields(v));
  }
}

/// Loads through a tuple of references, e.g. the one fields() returns.
template <class... Ts>
void load_fields(Reader& r, std::tuple<Ts&...> refs) {
  std::apply([&r](auto&... f) { (load_fields(r, f), ...); }, refs);
}

/// The elements of ranges whose lengths both sides already know (sized by
/// the grid or the options), with no count in front.
template <class... Ranges>
void save_each(Writer& w, const Ranges&... ranges) {
  (detail::save_elements(w, ranges), ...);
}
template <class... Ranges>
void load_each(Reader& r, Ranges&... ranges) {
  (detail::load_elements(r, ranges), ...);
}

/// Reads the next save_fields encoding of `live`'s type and throws
/// Error{SchemaMismatch} naming `what` unless it equals `live`'s own.  The
/// encoding is self-delimiting, so comparing as many bytes as `live`
/// encodes to is exact.
template <class T>
void expect_fields(Reader& r, const T& live, const char* what) {
  Writer w;
  save_fields(w, live);
  std::vector<std::uint8_t> saved(w.size());
  r.raw(saved.data(), saved.size());
  if (saved != w.bytes())
    throw Error(ErrorKind::SchemaMismatch,
                std::string(what) + " differ from the snapshot");
}

}  // namespace wsp::ckpt

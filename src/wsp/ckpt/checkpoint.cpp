#include "wsp/ckpt/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace wsp::ckpt {
namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'W', 'S', 'P', 'C',
                                                'K', 'P', 'T', '\0'};

// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial, built once
// on first use.  Row 0 is the classic byte table; row k advances a byte
// through k further zero bytes, so one step folds 8 input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
  }();
  return tables;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

/// The frame up to its payload: magic, container version, kind, state
/// version, payload size.
Writer frame_header(std::uint32_t payload_kind, std::uint32_t state_version,
                    std::uint64_t payload_size) {
  Writer w;
  w.raw(kMagic.data(), kMagic.size());
  w.u32(kContainerVersion);
  w.u32(payload_kind);
  w.u32(state_version);
  w.u64(payload_size);
  return w;
}

using Bytes = std::span<const std::uint8_t>;

/// atomic_write_file over the concatenation of `chunks`.
void write_atomically(const std::string& path,
                      std::initializer_list<Bytes> chunks) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw Error(ErrorKind::Io, "cannot open " + tmp + " for writing");
  bool ok = true;
  for (const Bytes c : chunks)
    ok = ok && (c.empty() || std::fwrite(c.data(), 1, c.size(), f) == c.size());
  ok = (std::fflush(f) == 0) && ok;
  // Durability guarantee, not just atomicity: fsync the temp file *before*
  // the rename so its bytes reach stable storage before the new name does.
  // Rename alone only orders the metadata — after a power loss a journaled
  // filesystem may replay the rename but not the data, leaving the real
  // name pointing at a hole.  With the fsync-then-rename ordering (plus the
  // parent-directory fsync below, which persists the rename itself), a
  // snapshot that survives kill -9 also survives power loss: at any
  // interruption point `path` holds either the complete old contents or
  // the complete new contents.
  ok = (::fsync(fileno(f)) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw Error(ErrorKind::Io, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(ErrorKind::Io, "cannot rename " + tmp + " to " + path);
  }
  // Persist the rename: fsync the parent directory.  Best-effort — some
  // filesystems reject directory fsync (EINVAL), and by this point the
  // data itself is durable; the worst a lost rename can cost is falling
  // back to the previous complete snapshot.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Io: return "io error";
    case ErrorKind::Truncated: return "truncated";
    case ErrorKind::BadMagic: return "bad magic";
    case ErrorKind::BadCrc: return "bad crc";
    case ErrorKind::VersionMismatch: return "version mismatch";
    case ErrorKind::SchemaMismatch: return "schema mismatch";
    case ErrorKind::TopologyMismatch: return "topology mismatch";
  }
  return "unknown";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0, data, size);
}

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, data += 8) {
    const std::uint32_t lo = c ^ get_u32(data);
    const std::uint32_t hi = get_u32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++data) c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void Writer::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) { put_u32(bytes_, v); }

void Writer::u64(std::uint64_t v) {
  put_u32(bytes_, static_cast<std::uint32_t>(v));
  put_u32(bytes_, static_cast<std::uint32_t>(v >> 32));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void Writer::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = get_u64(data_ + pos_);
  pos_ += 8;
  return v;
}

double Reader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::b() {
  std::uint8_t v = u8();
  if (v > 1)
    throw Error(ErrorKind::SchemaMismatch, "bool field is neither 0 nor 1");
  return v != 0;
}

std::string Reader::str() {
  std::size_t n = length(1);
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::raw(void* out, std::size_t size) {
  need(size);
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

void Reader::expect_tag(std::uint32_t t, const char* what) {
  std::uint32_t got = u32();
  if (got != t)
    throw Error(ErrorKind::SchemaMismatch,
                std::string("section tag mismatch at ") + what);
}

std::size_t Reader::length(std::size_t min_element_size) {
  std::uint64_t n = u64();
  if (min_element_size == 0) min_element_size = 1;
  if (n > remaining() / min_element_size)
    throw Error(ErrorKind::Truncated,
                "declared element count exceeds remaining payload");
  return static_cast<std::size_t>(n);
}

std::vector<std::uint8_t> seal(std::uint32_t payload_kind,
                               std::uint32_t state_version,
                               const Writer& payload) {
  Writer frame = frame_header(payload_kind, state_version, payload.size());
  frame.raw(payload.bytes().data(), payload.size());
  frame.u32(crc32(payload.bytes().data(), payload.size()));
  return frame.bytes();
}

Frame open(std::vector<std::uint8_t> bytes) {
  const std::uint8_t* data = bytes.data();
  const std::size_t size = bytes.size();
  if (size < kFrameOverhead)
    throw Error(ErrorKind::Truncated, "file smaller than frame header");
  if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0)
    throw Error(ErrorKind::BadMagic, "not a wsp::ckpt container");
  std::uint32_t container = get_u32(data + 8);
  if (container != kContainerVersion)
    throw Error(ErrorKind::VersionMismatch,
                "container version " + std::to_string(container) +
                    " (expected " + std::to_string(kContainerVersion) + ")");
  Frame frame;
  frame.payload_kind = get_u32(data + 12);
  frame.state_version = get_u32(data + 16);
  std::uint64_t payload_size = get_u64(data + 20);
  if (payload_size > size - kFrameOverhead)
    throw Error(ErrorKind::Truncated, "payload shorter than declared size");
  if (payload_size < size - kFrameOverhead)
    throw Error(ErrorKind::SchemaMismatch, "trailing bytes after frame");
  const std::uint8_t* payload = data + kHeaderSize;
  std::uint32_t declared_crc =
      get_u32(payload + static_cast<std::size_t>(payload_size));
  if (crc32(payload, static_cast<std::size_t>(payload_size)) != declared_crc)
    throw Error(ErrorKind::BadCrc, "payload checksum failure");
  frame.bytes = std::move(bytes);
  return frame;
}

Frame open_expect(std::vector<std::uint8_t> bytes,
                  std::uint32_t expected_kind) {
  Frame frame = open(std::move(bytes));
  if (frame.payload_kind != expected_kind)
    throw Error(ErrorKind::SchemaMismatch,
                "payload kind mismatch (snapshot is from a different "
                "subsystem)");
  return frame;
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  write_atomically(path, {{static_cast<const std::uint8_t*>(data), size}});
}

bool atomic_write_text(const std::string& path,
                       const std::string& text) noexcept {
  try {
    atomic_write_file(path, text.data(), text.size());
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error(ErrorKind::Io, "cannot open " + path);
  // Sized once from the file length, then filled by one read.
  const long size = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::max(size, 0L)));
  const bool ok =
      size >= 0 && std::fseek(f, 0, SEEK_SET) == 0 &&
      (bytes.empty() ||
       std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  if (!ok) throw Error(ErrorKind::Io, "read failure on " + path);
  return bytes;
}

void save_frame_file(const std::string& path, std::uint32_t payload_kind,
                     std::uint32_t state_version, const Writer& payload) {
  const Writer header =
      frame_header(payload_kind, state_version, payload.size());
  Writer crc;
  crc.u32(crc32(payload.bytes().data(), payload.size()));
  write_atomically(path, {header.bytes(), payload.bytes(), crc.bytes()});
}

Frame load_frame_file(const std::string& path, std::uint32_t expected_kind) {
  return open_expect(read_file(path), expected_kind);
}

namespace {
constexpr std::uint32_t kHeartbeatKind = fourcc("HBEA");
constexpr std::uint32_t kHeartbeatVersion = 1;
}  // namespace

void save_heartbeat(const std::string& path, const Heartbeat& hb) {
  Writer w;
  save_fields(w, hb);
  save_frame_file(path, kHeartbeatKind, kHeartbeatVersion, w);
}

Heartbeat load_heartbeat(const std::string& path) {
  const Frame frame = load_frame_file(path, kHeartbeatKind);
  if (frame.state_version != kHeartbeatVersion)
    throw Error(ErrorKind::VersionMismatch,
                "heartbeat schema revision unknown");
  Reader r(frame.payload());
  Heartbeat hb;
  load_fields(r, hb);
  if (!r.done())
    throw Error(ErrorKind::SchemaMismatch, "trailing bytes after heartbeat");
  return hb;
}

void save_fault_map(Writer& w, const FaultMap& map) {
  w.tag(fourcc("FMAP"));
  w.i32(map.grid().width());
  w.i32(map.grid().height());
  map.grid().for_each(
      [&](TileCoord c) { w.b(map.is_faulty(c)); });
}

FaultMap load_fault_map(Reader& r, const TileGrid* expected) {
  r.expect_tag(fourcc("FMAP"), "FaultMap");
  int w = r.i32();
  int h = r.i32();
  if (w < 1 || h < 1 ||
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h) >
          r.remaining())
    throw Error(ErrorKind::SchemaMismatch, "implausible FaultMap grid");
  TileGrid grid(w, h);
  if (expected && (w != expected->width() || h != expected->height()))
    throw Error(ErrorKind::TopologyMismatch,
                "FaultMap grid " + std::to_string(w) + "x" +
                    std::to_string(h) + " does not match live topology");
  FaultMap map(grid);
  grid.for_each([&](TileCoord c) { map.set_faulty(c, r.b()); });
  return map;
}

void save_link_faults(Writer& w, const LinkFaultSet& links) {
  w.tag(fourcc("LFLT"));
  w.i32(links.grid().width());
  w.i32(links.grid().height());
  links.grid().for_each([&](TileCoord c) {
    for (int d = 0; d < 4; ++d)
      w.b(links.is_failed(c, static_cast<Direction>(d)));
  });
}

LinkFaultSet load_link_faults(Reader& r, const TileGrid* expected) {
  r.expect_tag(fourcc("LFLT"), "LinkFaultSet");
  int w = r.i32();
  int h = r.i32();
  if (w < 1 || h < 1 ||
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h) >
          r.remaining() / 4)
    throw Error(ErrorKind::SchemaMismatch, "implausible LinkFaultSet grid");
  TileGrid grid(w, h);
  if (expected && (w != expected->width() || h != expected->height()))
    throw Error(ErrorKind::TopologyMismatch,
                "LinkFaultSet grid " + std::to_string(w) + "x" +
                    std::to_string(h) + " does not match live topology");
  LinkFaultSet links(grid);
  grid.for_each([&](TileCoord c) {
    for (int d = 0; d < 4; ++d)
      links.set_failed(c, static_cast<Direction>(d), r.b());
  });
  return links;
}

}  // namespace wsp::ckpt

#pragma once
// Versioned binary snapshot I/O — the `cpx-ckpt-v1` format
// (docs/checkpoint.md).
//
// A snapshot is a header followed by named sections. Every multi-byte
// value is encoded explicitly little-endian, byte by byte, so the layout
// is independent of host endianness, of `CPX_THREADS`, and of how the
// state was produced — the foundation of the byte-identical restart
// contract. Each section carries a CRC32 over its payload; the Reader
// verifies it before handing out a single byte, so a flipped bit anywhere
// in a section is rejected with CheckError instead of silently restoring
// corrupt state.
//
// Layout:
//   magic   "CPXCKPT\0"           (8 bytes)
//   version u32                   (1)
//   count   u32                   (number of sections)
//   section*:
//     name_len u32, name bytes
//     payload_len u64, payload bytes
//     crc u32                     (CRC32 of the payload)
//
// The Writer owns a staging buffer that is reused across snapshots
// (clear() keeps capacity), so the checkpoint hot path performs zero heap
// allocations once warm — proven by tests/ckpt_test.cpp with the
// operator-new hook.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cpx::ckpt {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr char kMagic[8] = {'C', 'P', 'X', 'C', 'K', 'P', 'T', '\0'};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.
std::uint32_t crc32(std::span<const std::byte> data);

/// Serialises state into the cpx-ckpt-v1 byte stream. Sections must be
/// opened and closed strictly in sequence:
///   w.begin(); w.begin_section("x"); ...typed writes...; w.end_section();
///   ...; w.finish();
class Writer {
 public:
  /// Starts a fresh snapshot, reusing the staging buffer.
  void begin();

  void begin_section(std::string_view name);
  void end_section();

  /// Patches the header section count; the buffer is complete after this.
  void finish();

  // --- Typed little-endian writes (only valid inside a section) ---
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);  ///< IEEE-754 bits, little-endian
  void put_str(std::string_view s);
  void put_f64_span(std::span<const double> v);
  void put_i64_span(std::span<const std::int64_t> v);

  /// The finished snapshot bytes (valid until the next begin()).
  std::span<const std::byte> bytes() const { return buf_; }

  /// Writes bytes() to `path` atomically (stage file + rename), so an
  /// interrupted write never clobbers the previous snapshot.
  void write_file(const std::string& path) const;

 private:
  void put_raw_u32_append(std::uint32_t v);
  void raw_u32_at(std::size_t offset, std::uint32_t v);

  std::vector<std::byte> buf_;
  std::size_t section_payload_begin_ = 0;  ///< 0 = no section open
  std::size_t section_len_offset_ = 0;
  std::uint32_t section_count_ = 0;
  bool open_ = false;
};

/// Parses and validates a cpx-ckpt-v1 byte stream. The constructor checks
/// magic and version (CheckError on mismatch); open_section() checks the
/// section's CRC32 before any read. Every typed read bounds-checks, so a
/// truncated payload throws instead of reading past the end or silently
/// yielding zeros.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes);

  std::uint32_t num_sections() const { return count_; }
  bool has_section(std::string_view name) const;

  /// Positions the cursor at the payload of `name` after verifying its
  /// CRC. Sections may be opened in any order.
  void open_section(std::string_view name);
  /// Asserts the open section was fully consumed (catches layout drift).
  void end_section();

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  std::string get_str();
  /// Reads a length-prefixed f64 vector (resizes `out`).
  void get_f64_vec(std::vector<double>& out);
  void get_i64_vec(std::vector<std::int64_t>& out);
  /// Allocator-generic variant: the aligned SoA arrays
  /// (support/aligned.hpp) restore through the same length-prefixed
  /// layout, so checkpoints are byte-identical either way.
  template <typename Alloc>
  void get_f64_vec(std::vector<double, Alloc>& out) {
    const std::uint64_t n = get_u64();
    need(static_cast<std::size_t>(n) * 8);
    out.resize(static_cast<std::size_t>(n));
    for (double& x : out) {
      x = get_f64();
    }
  }

 private:
  struct Section {
    std::string name;
    std::size_t payload_begin = 0;
    std::size_t payload_len = 0;
    std::uint32_t crc = 0;
  };

  void need(std::size_t n) const;  ///< bounds check within the open section

  std::span<const std::byte> bytes_;
  std::uint32_t count_ = 0;
  std::vector<Section> sections_;
  std::size_t cursor_ = 0;
  std::size_t section_end_ = 0;
  bool section_open_ = false;
};

/// Reads a whole file into `out` (CheckError if unreadable). The returned
/// buffer backs a Reader.
void read_file(const std::string& path, std::vector<std::byte>& out);

}  // namespace cpx::ckpt

#include "ckpt/snapshot.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/check.hpp"

namespace cpx::ckpt {
namespace {

/// CRC-32 lookup table for the reflected IEEE polynomial 0xEDB88320,
/// generated once at static-init time.
struct Crc32Table {
  std::array<std::uint32_t, 256> entries{};
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& crc_table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  const auto& table = crc_table().entries;
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::byte b : data) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

// --- Writer ---

void Writer::begin() {
  buf_.clear();  // keeps capacity: the warm path stages without allocating
  section_payload_begin_ = 0;
  section_len_offset_ = 0;
  section_count_ = 0;
  open_ = true;
  for (const char c : kMagic) {
    buf_.push_back(static_cast<std::byte>(c));
  }
  put_raw_u32_append(kFormatVersion);
  put_raw_u32_append(0);  // section count, patched by finish()
}

void Writer::put_raw_u32_append(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
  }
}

void Writer::raw_u32_at(std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFFU);
  }
}

void Writer::begin_section(std::string_view name) {
  CPX_REQUIRE(open_ && section_payload_begin_ == 0,
              "Writer: begin_section outside begin()/finish() or with a "
              "section already open");
  put_raw_u32_append(static_cast<std::uint32_t>(name.size()));
  for (const char c : name) {
    buf_.push_back(static_cast<std::byte>(c));
  }
  // Payload length placeholder (u64), patched by end_section().
  section_len_offset_ = buf_.size();
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(std::byte{0});
  }
  section_payload_begin_ = buf_.size();
}

void Writer::end_section() {
  CPX_REQUIRE(section_payload_begin_ != 0,
              "Writer: end_section with no section open");
  const std::size_t len = buf_.size() - section_payload_begin_;
  for (int i = 0; i < 8; ++i) {
    buf_[section_len_offset_ + static_cast<std::size_t>(i)] =
        static_cast<std::byte>(
            (static_cast<std::uint64_t>(len) >> (8 * i)) & 0xFFU);
  }
  const std::uint32_t crc = crc32(
      std::span<const std::byte>(buf_).subspan(section_payload_begin_, len));
  put_raw_u32_append(crc);
  section_payload_begin_ = 0;
  ++section_count_;
}

void Writer::finish() {
  CPX_REQUIRE(open_ && section_payload_begin_ == 0,
              "Writer: finish with a section still open or no begin()");
  raw_u32_at(sizeof(kMagic) + 4, section_count_);
  open_ = false;
}

void Writer::put_u8(std::uint8_t v) {
  CPX_DCHECK(section_payload_begin_ != 0);
  buf_.push_back(static_cast<std::byte>(v));
}

void Writer::put_u32(std::uint32_t v) {
  CPX_DCHECK(section_payload_begin_ != 0);
  put_raw_u32_append(v);
}

void Writer::put_u64(std::uint64_t v) {
  CPX_DCHECK(section_payload_begin_ != 0);
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
  }
}

void Writer::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_str(std::string_view s) {
  put_u64(s.size());
  for (const char c : s) {
    buf_.push_back(static_cast<std::byte>(c));
  }
}

void Writer::put_f64_span(std::span<const double> v) {
  put_u64(v.size());
  for (const double x : v) {
    put_f64(x);
  }
}

void Writer::put_i64_span(std::span<const std::int64_t> v) {
  put_u64(v.size());
  for (const std::int64_t x : v) {
    put_i64(x);
  }
}

void Writer::write_file(const std::string& path) const {
  CPX_REQUIRE(!open_, "Writer: write_file before finish()");
  const std::string stage = path + ".tmp";
  {
    std::ofstream out(stage, std::ios::binary | std::ios::trunc);
    CPX_REQUIRE(out.good(), "Writer: cannot open " << stage);
    out.write(reinterpret_cast<const char*>(buf_.data()),
              static_cast<std::streamsize>(buf_.size()));
    CPX_REQUIRE(out.good(), "Writer: short write to " << stage);
  }
  CPX_REQUIRE(std::rename(stage.c_str(), path.c_str()) == 0,
              "Writer: cannot rename " << stage << " to " << path);
}

// --- Reader ---

Reader::Reader(std::span<const std::byte> bytes) : bytes_(bytes) {
  CPX_REQUIRE(bytes.size() >= sizeof(kMagic) + 8,
              "ckpt: snapshot shorter than the header");
  CPX_REQUIRE(
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0,
      "ckpt: bad magic — not a cpx-ckpt snapshot");
  std::size_t pos = sizeof(kMagic);
  const auto raw_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[at + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t version = raw_u32(pos);
  CPX_REQUIRE(version == kFormatVersion,
              "ckpt: snapshot version " << version << ", expected "
                                        << kFormatVersion);
  pos += 4;
  count_ = raw_u32(pos);
  pos += 4;

  sections_.reserve(count_);
  for (std::uint32_t s = 0; s < count_; ++s) {
    CPX_REQUIRE(pos + 4 <= bytes_.size(), "ckpt: truncated section header");
    const std::uint32_t name_len = raw_u32(pos);
    pos += 4;
    CPX_REQUIRE(pos + name_len + 8 <= bytes_.size(),
                "ckpt: truncated section name/length");
    Section sec;
    sec.name.assign(reinterpret_cast<const char*>(bytes_.data() + pos),
                    name_len);
    pos += name_len;
    std::uint64_t payload_len = 0;
    for (int i = 0; i < 8; ++i) {
      payload_len |=
          static_cast<std::uint64_t>(
              bytes_[pos + static_cast<std::size_t>(i)])
          << (8 * i);
    }
    pos += 8;
    CPX_REQUIRE(pos + payload_len + 4 <= bytes_.size(),
                "ckpt: section '" << sec.name << "' payload truncated");
    sec.payload_begin = pos;
    sec.payload_len = static_cast<std::size_t>(payload_len);
    pos += sec.payload_len;
    sec.crc = raw_u32(pos);
    pos += 4;
    sections_.push_back(std::move(sec));
  }
  CPX_REQUIRE(pos == bytes_.size(),
              "ckpt: " << bytes_.size() - pos
                       << " trailing bytes after the last section");
}

bool Reader::has_section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return true;
    }
  }
  return false;
}

void Reader::open_section(std::string_view name) {
  CPX_REQUIRE(!section_open_,
              "Reader: open_section with a section already open");
  for (const Section& s : sections_) {
    if (s.name != name) {
      continue;
    }
    const std::uint32_t crc =
        crc32(bytes_.subspan(s.payload_begin, s.payload_len));
    CPX_REQUIRE(crc == s.crc, "ckpt: CRC mismatch in section '"
                                  << name << "' — snapshot is corrupted");
    cursor_ = s.payload_begin;
    section_end_ = s.payload_begin + s.payload_len;
    section_open_ = true;
    return;
  }
  CPX_REQUIRE(false, "ckpt: snapshot has no section '" << name << "'");
}

void Reader::end_section() {
  CPX_REQUIRE(section_open_, "Reader: end_section with no section open");
  CPX_REQUIRE(cursor_ == section_end_,
              "ckpt: " << section_end_ - cursor_
                       << " unread bytes at end of section");
  section_open_ = false;
}

void Reader::need(std::size_t n) const {
  CPX_REQUIRE(section_open_, "Reader: typed read outside a section");
  CPX_REQUIRE(cursor_ + n <= section_end_,
              "ckpt: short read — section ends " << section_end_ - cursor_
                                                 << " bytes early");
}

std::uint8_t Reader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[cursor_++]);
}

std::uint32_t Reader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[cursor_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[cursor_++]) << (8 * i);
  }
  return v;
}

std::int64_t Reader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string Reader::get_str() {
  const std::uint64_t len = get_u64();
  need(static_cast<std::size_t>(len));
  std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_),
                static_cast<std::size_t>(len));
  cursor_ += static_cast<std::size_t>(len);
  return s;
}

void Reader::get_f64_vec(std::vector<double>& out) {
  const std::uint64_t n = get_u64();
  need(static_cast<std::size_t>(n) * 8);
  out.resize(static_cast<std::size_t>(n));
  for (double& x : out) {
    x = get_f64();
  }
}

void Reader::get_i64_vec(std::vector<std::int64_t>& out) {
  const std::uint64_t n = get_u64();
  need(static_cast<std::size_t>(n) * 8);
  out.resize(static_cast<std::size_t>(n));
  for (std::int64_t& x : out) {
    x = get_i64();
  }
}

void read_file(const std::string& path, std::vector<std::byte>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CPX_REQUIRE(in.good(), "ckpt: cannot open " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out.data()), size);
  CPX_REQUIRE(in.gcount() == size, "ckpt: short read from " << path);
}

}  // namespace cpx::ckpt

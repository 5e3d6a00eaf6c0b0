// Byte-oriented serialization.
//
// Intermediate key/value runs, shuffle messages and DFS blocks all travel as
// flat byte buffers; ByteWriter/ByteReader provide varint and
// length-prefixed-string framing on top of a std::vector<std::uint8_t>.
#pragma once

#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace gw::util {

using Bytes = std::vector<std::uint8_t>;

// Longest LEB128 varint of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Writes `v` as a LEB128 varint through the output iterator `out`;
// returns `out` advanced past it.
template <typename Out>
inline Out write_varint(Out out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

// write_varint at `out` (room for kMaxVarintBytes); returns the byte count.
inline std::size_t encode_varint(std::uint8_t* out, std::uint64_t v) {
  return static_cast<std::size_t>(write_varint(out, v) - out);
}

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes* out) : external_(out) {}

  Bytes& buffer() { return external_ ? *external_ : owned_; }
  const Bytes& buffer() const { return external_ ? *external_ : owned_; }

  // Moves the owned buffer out; only valid when not writing to an external
  // buffer.
  Bytes take() {
    GW_CHECK(external_ == nullptr);
    return std::move(owned_);
  }

  void put_u8(std::uint8_t v) { buffer().push_back(v); }

  void put_u32(std::uint32_t v) { put_fixed(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_fixed(&v, sizeof(v)); }
  void put_f32(float v) { put_fixed(&v, sizeof(v)); }
  void put_f64(double v) { put_fixed(&v, sizeof(v)); }

  void put_varint(std::uint64_t v) {
    write_varint(std::back_inserter(buffer()), v);
  }

  void put_bytes(const void* data, std::size_t len) {
    auto& buf = buffer();
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + len);
  }

  // Length-prefixed string/blob.
  void put_str(std::string_view s) {
    put_varint(s.size());
    put_bytes(s.data(), s.size());
  }

  std::size_t size() const { return buffer().size(); }

 private:
  void put_fixed(const void* data, std::size_t len) { put_bytes(data, len); }

  Bytes owned_;
  Bytes* external_ = nullptr;
};

class ByteReader {
 public:
  ByteReader(const void* data, std::size_t len)
      : data_(static_cast<const std::uint8_t*>(data)), len_(len) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool done() const { return pos_ >= len_; }
  std::size_t remaining() const { return len_ - pos_; }
  std::size_t position() const { return pos_; }

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    std::uint32_t v;
    get_fixed(&v, sizeof(v));
    return v;
  }
  std::uint64_t get_u64() {
    std::uint64_t v;
    get_fixed(&v, sizeof(v));
    return v;
  }
  float get_f32() {
    float v;
    get_fixed(&v, sizeof(v));
    return v;
  }
  double get_f64() {
    double v;
    get_fixed(&v, sizeof(v));
    return v;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      require(1);
      const std::uint8_t byte = data_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) break;
      shift += 7;
      GW_CHECK_MSG(shift < 64, "varint too long");
    }
    return v;
  }

  // Returns a view into the underlying buffer; valid while the buffer lives.
  std::string_view get_str() { return get_bytes(get_varint()); }

  // The next `n` bytes, as a view like get_str().
  std::string_view get_bytes(std::size_t n) {
    require(n);
    std::string_view out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) {
    if (pos_ + n > len_) throw_error("ByteReader: truncated buffer");
  }
  void get_fixed(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace gw::util

// Shared helpers for the five evaluation applications (paper §IV: "To
// fairly represent the wide spectrum of MapReduce applications we
// implemented and analyzed five applications with diverse properties").
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "core/api.h"
#include "util/bytes.h"

namespace gw::apps {

// Fixed-width big-endian integer keys sort correctly under the framework's
// lexicographic byte comparison.
inline void store_be32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v >> 24);
  out[1] = static_cast<char>(v >> 16);
  out[2] = static_cast<char>(v >> 8);
  out[3] = static_cast<char>(v);
}

inline void put_be32(std::string& out, std::uint32_t v) {
  char buf[4];
  store_be32(buf, v);
  out.append(buf, sizeof(buf));
}

inline std::uint32_t get_be32(std::string_view s) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3]));
}

inline void put_be64(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>(v >> shift));
  }
}

inline std::uint64_t get_be64(std::string_view s) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(s[static_cast<std::size_t>(i)]);
  }
  return v;
}

// Decimal counters (WordCount/PageviewCount values).
inline std::uint64_t parse_u64(std::string_view v) {
  std::uint64_t n = 0;
  for (char c : v) n = n * 10 + static_cast<std::uint64_t>(c - '0');
  return n;
}

inline float read_f32(const char* p) {
  float f;
  std::memcpy(&f, p, sizeof(f));
  return f;
}

inline void append_f32(std::string& out, float f) {
  char buf[sizeof(float)];
  std::memcpy(buf, &f, sizeof(f));
  out.append(buf, sizeof(buf));
}

// An application bundled with its per-device launch tuning (the paper's
// per-compute-device optimization knobs, §I).
struct AppSpec {
  core::AppKernels kernels;
  cl::LaunchConfig cpu_launch;
  cl::LaunchConfig gpu_launch;
};

}  // namespace gw::apps

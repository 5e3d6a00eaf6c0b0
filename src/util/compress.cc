#include "util/compress.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "util/error.h"

namespace gw::util {

namespace {

// Format: varint uncompressed_size, then a token stream.
//   token = varint literal_len, literal bytes,
//           varint match_len (0 terminates after literals),
//           varint match_distance (present iff match_len > 0).
// Minimum match length 4; greedy matcher over a 64Ki-entry hash of 4-byte
// prefixes with a 64KB window.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 64 * 1024;
constexpr std::size_t kHashBits = 16;
constexpr std::uint32_t kMaxTag = std::numeric_limits<std::uint32_t>::max();

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// One match table per thread, reused across calls: filling 256 KiB per call
// would dwarf the work on a 500-byte run. A call stores base + pos; base
// then advances past the call's positions, so every entry below the current
// base was written by an earlier call and reads as empty. The table is
// refilled only when base would wrap.
struct MatchTable {
  std::vector<std::uint32_t> slots =
      std::vector<std::uint32_t>(std::size_t{1} << kHashBits, 0);
  std::uint32_t base = 1;

  // Claims the tags [base, base + len] for one call; returns its base.
  std::uint32_t claim(std::size_t len) {
    if (len + 1 > kMaxTag - base) {
      std::fill(slots.begin(), slots.end(), 0);
      base = 1;
    }
    const std::uint32_t b = base;
    base += static_cast<std::uint32_t>(len + 1);
    return b;
  }
};

}  // namespace

Bytes lz_compress(const void* input, std::size_t len) {
  Bytes out;
  lz_compress_into(input, len, out);
  return out;
}

void lz_compress_into(const void* input, std::size_t len, Bytes& buf) {
  const auto* src = static_cast<const std::uint8_t*>(input);
  buf.clear();
  ByteWriter out(&buf);
  out.put_varint(len);
  if (len == 0) return;

  // base + pos must fit a 32-bit tag, with room for the advance.
  GW_CHECK(len < kMaxTag - 1);
  thread_local MatchTable match_table;
  std::vector<std::uint32_t>& table = match_table.slots;
  const std::uint32_t base = match_table.claim(len);

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto flush = [&](std::size_t match_len, std::size_t distance) {
    out.put_varint(pos - literal_start);
    out.put_bytes(src + literal_start, pos - literal_start);
    out.put_varint(match_len);
    if (match_len > 0) out.put_varint(distance);
  };

  while (pos + kMinMatch <= len) {
    const std::uint32_t h = hash4(src + pos);
    const std::uint32_t tag = table[h];
    table[h] = base + static_cast<std::uint32_t>(pos);

    std::size_t match_len = 0;
    const std::size_t cand = tag - base;  // meaningful only if tag >= base
    if (tag >= base && pos - cand <= kWindow &&
        std::memcmp(src + cand, src + pos, kMinMatch) == 0) {
      match_len = kMinMatch;
      const std::size_t limit = len - pos;
      while (match_len < limit && src[cand + match_len] == src[pos + match_len]) {
        ++match_len;
      }
    }

    if (match_len >= kMinMatch) {
      flush(match_len, pos - cand);
      // Index a few positions inside the match so later data can refer back.
      const std::size_t end = pos + match_len;
      for (std::size_t i = pos + 1; i + kMinMatch <= end && i + 4 <= len; i += 3) {
        table[hash4(src + i)] = base + static_cast<std::uint32_t>(i);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = len;
  if (literal_start < pos || len == 0) {
    flush(0, 0);
  } else {
    // Ended exactly on a match boundary: emit empty terminator token.
    out.put_varint(0);
    out.put_varint(0);
  }
}

Bytes lz_decompress(const void* input, std::size_t len) {
  Bytes out;
  lz_decompress_into(input, len, out);
  return out;
}

void lz_decompress_into(const void* input, std::size_t len, Bytes& out) {
  ByteReader in(input, len);
  const std::uint64_t total = in.get_varint();
  out.clear();
  // Reserving the full output up front keeps out.data() stable below, so
  // match copies can read and write through raw pointers.
  out.reserve(total);
  const auto* src = static_cast<const std::uint8_t*>(input);
  while (out.size() < total) {
    const std::uint64_t lit = in.get_varint();
    if (lit > 0) {
      if (in.remaining() < lit) throw_error("lz: truncated literal run");
      const std::size_t off = out.size();
      out.resize(off + lit);
      std::memcpy(out.data() + off, src + in.position(), lit);
      in.skip(lit);
    }
    const std::uint64_t match = in.get_varint();
    if (match == 0) {
      if (out.size() < total && in.done())
        throw_error("lz: stream ended early");
      continue;
    }
    const std::uint64_t dist = in.get_varint();
    if (dist == 0 || dist > out.size()) throw_error("lz: bad match distance");
    if (out.size() + match > total) throw_error("lz: match overruns output");
    const std::size_t off = out.size();
    out.resize(off + match);
    const std::uint8_t* from = out.data() + off - dist;
    std::uint8_t* to = out.data() + off;
    if (dist >= match) {
      std::memcpy(to, from, match);
    } else {
      // Overlapping match (RLE-style): must copy byte-by-byte forward.
      for (std::uint64_t i = 0; i < match; ++i) to[i] = from[i];
    }
  }
  if (out.size() != total) throw_error("lz: size mismatch");
}

}  // namespace gw::util

// Block compression for intermediate data.
//
// The paper (§III-B) stores all cached and spilled intermediate Partitions
// "in a serialized and compressed form". We implement a small LZ77-family
// byte compressor (greedy hash-chain matcher, varint-framed literals/copies)
// rather than linking an external codec: fast, dependency-free, and its
// measured input/output sizes feed the disk and network cost models.
#pragma once

#include <cstddef>

#include "util/bytes.h"

namespace gw::util {

// Compresses `input`; output is self-framing (decompress needs no size).
Bytes lz_compress(const void* input, std::size_t len);
inline Bytes lz_compress(const Bytes& in) {
  return lz_compress(in.data(), in.size());
}

// Compresses into `out` (cleared first, capacity retained), so callers can
// reuse one output buffer across calls.
void lz_compress_into(const void* input, std::size_t len, Bytes& out);

// Inverse of lz_compress. Throws util::Error on malformed input.
Bytes lz_decompress(const void* input, std::size_t len);
inline Bytes lz_decompress(const Bytes& in) {
  return lz_decompress(in.data(), in.size());
}

// Decompresses into `out` (cleared first, capacity retained), so callers can
// recycle scratch buffers across runs instead of allocating per call.
void lz_decompress_into(const void* input, std::size_t len, Bytes& out);

}  // namespace gw::util

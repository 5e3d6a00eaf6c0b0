// Key/value data structures for intermediate data.
//
// Intermediate data flows through the system as *runs*: sorted, serialized,
// optionally compressed sequences of key/value pairs (the paper stores all
// cached and spilled Partitions "in a serialized and compressed form",
// §III-B). PairList is the uncompressed staging form used inside the map
// pipeline before partitioning.
//
// The pair framing (varint klen, varint vlen, key bytes, value bytes) is
// IDENTICAL in PairList blobs and Run payloads, so the hot host paths move
// pairs between stages by copying the framed span verbatim instead of
// decoding and re-encoding (PairList::pair_view / RunBuilder::add_encoded).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/compress.h"

namespace gw::core {

struct KV {
  std::string_view key;
  std::string_view value;
};

inline bool kv_key_less(const KV& a, const KV& b) { return a.key < b.key; }

// Big-endian load of the first min(8, len) key bytes, zero-padded. Where
// two prefixes differ, their unsigned comparison equals the lexicographic
// byte comparison of the keys; equal prefixes fall back to a byte compare.
inline std::uint64_t key_prefix(const void* p, std::size_t len) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, len < 8 ? len : 8);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

struct Run;

// Flat append-only pair storage: one blob plus per-pair offsets, avoiding
// per-pair heap allocations. Keys/values are copied in on add().
class PairList {
 public:
  void add(std::string_view key, std::string_view value);

  std::size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }
  std::uint64_t blob_bytes() const { return blob_.size(); }

  KV get(std::size_t i) const;

  // Decoded pair plus its framed byte span (valid until the list mutates).
  struct PairView {
    KV kv;
    std::string_view encoded;  // varint lengths + key + value, as framed
  };
  PairView pair_view(std::size_t i) const;

  // The framed bytes of pair i. A key-sorted PairList's run payload is the
  // concatenation of these spans, so builders copy pairs without
  // re-encoding.
  std::string_view encoded_pair(std::size_t i) const {
    return pair_view(i).encoded;
  }

  // Copies a framed pair verbatim from another list (zero re-encode).
  void add_encoded(const PairView& p);

  // Sorts pair indices by key (stable, preserving emit order of equal
  // keys). Internally builds a one-shot sidecar of 8-byte big-endian key
  // prefixes so the comparator is a uint64 compare with a memcmp fallback,
  // instead of re-decoding two varints per comparison.
  void sort_by_key();

  // The run a PairList holding just the pairs `indices` (ascending) would
  // give after sort_by_key: those pairs' framed bytes, stably sorted by
  // key, copied verbatim into one run. Thread-safe for concurrent calls on
  // one list; the partition step builds every partition's run this way.
  Run sorted_run(std::span<const std::uint32_t> indices,
                 bool compress) const;

  // Appends all pairs of `other` (used to gather per-thread collectors).
  void append(const PairList& other);

  void clear();

  // Total serialized payload bytes (keys+values, without framing).
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  util::Bytes blob_;
  std::vector<std::uint64_t> offsets_;
  std::uint64_t payload_bytes_ = 0;
};

// A sorted, serialized, optionally compressed sequence of pairs.
struct Run {
  Run() = default;
  Run(util::Bytes data_in, bool compressed_in, std::uint64_t raw_bytes_in,
      std::uint64_t pairs_in)
      : data(std::move(data_in)),
        compressed(compressed_in),
        raw_bytes(raw_bytes_in),
        pairs(pairs_in) {}

  util::Bytes data;
  bool compressed = false;
  std::uint64_t raw_bytes = 0;  // serialized size before compression
  std::uint64_t pairs = 0;

  // Branch-free accessor on the hot accounting paths.
  std::uint64_t stored_bytes() const { return data.size(); }
  bool empty() const { return pairs == 0; }

  // Wire format: u8 compressed flag, varint raw_bytes, varint pairs,
  // varint payload length, payload.
  void serialize(util::ByteWriter& w) const;
  static Run deserialize(util::ByteReader& r);

  // A u32 `prefix`, then what serialize() writes, built in the run's own
  // buffer: the header goes in front of the payload in place, so the
  // payload is not copied when the buffer has room (RunBuilder::finish(true)
  // leaves it); otherwise the buffer is regrown to exactly the frame.
  util::Bytes take_serialized(std::uint32_t prefix) &&;
  // Inverse of take_serialized: adopts `frame` as the run, dropping its
  // first `skip` bytes and the header in place.
  static Run adopt_serialized(util::Bytes frame, std::size_t skip);
};

// Builds a run from key-sorted add() calls.
class RunBuilder {
 public:
  void add(std::string_view key, std::string_view value);

  // Appends already-framed pair bytes verbatim (`pair_count` pairs). Used
  // by the merge and partition paths to move pairs without re-encoding.
  void add_encoded(std::string_view framed, std::uint64_t pair_count = 1);

  // Pre-sizes the payload for `bytes` more framed bytes.
  void reserve(std::size_t bytes) {
    writer_.buffer().reserve(writer_.size() + bytes);
  }

  std::uint64_t pairs() const { return pairs_; }
  std::uint64_t raw_bytes() const { return writer_.size(); }

  // Finalizes; optionally compresses the payload.
  Run finish(bool compress);

 private:
  util::ByteWriter writer_;
  std::uint64_t pairs_ = 0;
};

// Sequential reader over a run's pairs. Decompresses up front if needed
// (into a pooled scratch buffer, returned to the pool on destruction);
// returned views point into the reader's storage.
class RunReader {
 public:
  explicit RunReader(const Run& run);
  ~RunReader();

  RunReader(RunReader&& other) noexcept;
  RunReader& operator=(RunReader&& other) noexcept;
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  // Returns false at end of run.
  bool next(KV* kv);

  std::uint64_t remaining_pairs() const { return remaining_; }

 private:
  // Move-safe payload access: when compressed, the payload lives in our own
  // storage_ (heap buffer survives moves); otherwise it aliases the source
  // run's data, which must outlive the reader. Never cache &storage_ — the
  // member address changes when the reader is moved.
  const util::Bytes& payload() const {
    return external_ != nullptr ? *external_ : storage_;
  }

  util::Bytes storage_;                  // decompressed payload (if compressed)
  const util::Bytes* external_ = nullptr;  // uncompressed source run's data
  std::size_t pos_ = 0;
  std::uint64_t remaining_ = 0;
};

// Merges key-sorted runs into one key-sorted run (k-way; duplicate keys are
// preserved, ordered by input run index). Used by the background merger
// threads and the reduce input reader.
//
// Implementation: streaming cursors copying framed pair spans verbatim,
// ordered by a cache-friendly loser tree with cached 8-byte key prefixes;
// dedicated 1-way (bulk copy) and 2-way fast paths. Output is
// byte-identical to reference::merge_runs (see kv_reference.h).
Run merge_runs(const std::vector<const Run*>& inputs, bool compress);

// Convenience overload.
Run merge_runs(const std::vector<Run>& inputs, bool compress);

}  // namespace gw::core

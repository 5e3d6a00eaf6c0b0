#include "core/kv.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"

namespace gw::core {

namespace {

// --- raw-pointer varint helpers for the hot paths. Pair framing is
// produced in-process by RunBuilder/PairList, so decoding trusts it; the
// bounds-checked ByteReader stays on the wire-facing paths. ---

inline const std::uint8_t* decode_varint(const std::uint8_t* p,
                                         std::uint64_t& v) {
  std::uint64_t b = *p++;
  if ((b & 0x80) == 0) {
    v = b;
    return p;
  }
  v = b & 0x7f;
  int shift = 7;
  do {
    b = *p++;
    v |= (b & 0x7f) << shift;
    shift += 7;
  } while (b & 0x80);
  return p;
}

// Geometric growth so per-pair appends stay amortized O(1) (an exact
// reserve per add would degrade to quadratic copying).
template <typename Vec>
inline void grow_for(Vec& buf, std::size_t extra) {
  const std::size_t need = buf.size() + extra;
  if (need > buf.capacity()) buf.reserve(std::max(need, buf.capacity() * 2));
}

// Pair framing: varint klen, varint vlen, key bytes, value bytes.
void write_pair(util::Bytes& buf, std::string_view key,
                std::string_view value) {
  std::uint8_t hdr[2 * util::kMaxVarintBytes];
  std::size_t h = util::encode_varint(hdr, key.size());
  h += util::encode_varint(hdr + h, value.size());
  grow_for(buf, h + key.size() + value.size());
  const std::size_t old = buf.size();
  buf.resize(old + h + key.size() + value.size());
  std::uint8_t* p = buf.data() + old;
  std::memcpy(p, hdr, h);
  if (!key.empty()) std::memcpy(p + h, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(p + h + key.size(), value.data(), value.size());
  }
}

// --- pooled scratch buffers for run decompression. Runs are decompressed
// whole before reading; recycling the buffers avoids an allocate/free per
// run in the continuous-merge loops. Thread-local: merges run on sim
// coroutines, readers also appear on kernel threads. ---

thread_local std::vector<util::Bytes> t_scratch_pool;

util::Bytes acquire_scratch() {
  if (!t_scratch_pool.empty()) {
    util::Bytes b = std::move(t_scratch_pool.back());
    t_scratch_pool.pop_back();
    b.clear();
    return b;
  }
  return {};
}

void release_scratch(util::Bytes&& b) {
  if (b.capacity() > 0 && t_scratch_pool.size() < 16) {
    t_scratch_pool.push_back(std::move(b));
  }
}

}  // namespace

void PairList::add(std::string_view key, std::string_view value) {
  offsets_.push_back(blob_.size());
  write_pair(blob_, key, value);
  payload_bytes_ += key.size() + value.size();
}

KV PairList::get(std::size_t i) const {
  const std::uint8_t* p = blob_.data() + offsets_[i];
  std::uint64_t klen, vlen;
  p = decode_varint(p, klen);
  p = decode_varint(p, vlen);
  const char* base = reinterpret_cast<const char*>(p);
  return KV{std::string_view(base, klen), std::string_view(base + klen, vlen)};
}

PairList::PairView PairList::pair_view(std::size_t i) const {
  const std::uint8_t* start = blob_.data() + offsets_[i];
  const std::uint8_t* p = start;
  std::uint64_t klen, vlen;
  p = decode_varint(p, klen);
  p = decode_varint(p, vlen);
  const char* base = reinterpret_cast<const char*>(p);
  PairView out;
  out.kv = KV{std::string_view(base, klen), std::string_view(base + klen, vlen)};
  out.encoded = std::string_view(
      reinterpret_cast<const char*>(start),
      static_cast<std::size_t>(p - start) + klen + vlen);
  return out;
}

void PairList::add_encoded(const PairView& p) {
  offsets_.push_back(blob_.size());
  grow_for(blob_, p.encoded.size());
  blob_.insert(blob_.end(), p.encoded.begin(), p.encoded.end());
  payload_bytes_ += p.kv.key.size() + p.kv.value.size();
}

namespace {

// Sort sidecar entry: cached key prefix + key location per pair, built with
// a single sequential decode pass, so the comparator never touches the
// varint framing.
struct SortEntry {
  std::uint64_t prefix;   // big-endian first 8 key bytes, zero-padded
  std::uint64_t key_off;  // absolute offset of the key bytes in the blob
  std::uint32_t key_len;
  std::uint32_t index;    // original position: stability tie-break
};

// Decodes the pair framed at blob + off; returns its framed length.
inline std::size_t fill_entry(SortEntry& e, const std::uint8_t* blob,
                              std::uint64_t off, std::uint32_t index) {
  const std::uint8_t* p = blob + off;
  std::uint64_t klen, vlen;
  p = decode_varint(p, klen);
  p = decode_varint(p, vlen);
  e.prefix = key_prefix(p, klen);
  e.key_off = static_cast<std::uint64_t>(p - blob);
  e.key_len = static_cast<std::uint32_t>(klen);
  e.index = index;
  return static_cast<std::size_t>(e.key_off - off + klen + vlen);
}

// std::sort with the index tie-break reproduces stable_sort-by-key order.
void sort_entries(std::vector<SortEntry>& entries, const std::uint8_t* blob) {
  std::sort(entries.begin(), entries.end(),
            [blob](const SortEntry& a, const SortEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const std::uint32_t common = std::min(a.key_len, b.key_len);
              if (common > 8) {
                const int c = std::memcmp(blob + a.key_off + 8,
                                          blob + b.key_off + 8, common - 8);
                if (c != 0) return c < 0;
              }
              if (a.key_len != b.key_len) return a.key_len < b.key_len;
              return a.index < b.index;
            });
}

}  // namespace

void PairList::sort_by_key() {
  const std::size_t n = offsets_.size();
  if (n < 2) return;
  std::vector<SortEntry> entries(n);
  const std::uint8_t* blob = blob_.data();
  for (std::size_t i = 0; i < n; ++i) {
    fill_entry(entries[i], blob, offsets_[i], static_cast<std::uint32_t>(i));
  }
  sort_entries(entries, blob);
  std::vector<std::uint64_t> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = offsets_[entries[i].index];
  offsets_ = std::move(sorted);
}

Run PairList::sorted_run(std::span<const std::uint32_t> indices,
                         bool compress) const {
  thread_local std::vector<SortEntry> entries;  // reused per thread
  entries.resize(indices.size());
  const std::uint8_t* blob = blob_.data();
  std::size_t bytes = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    bytes += fill_entry(entries[k], blob, offsets_[indices[k]],
                        static_cast<std::uint32_t>(k));
  }
  sort_entries(entries, blob);
  RunBuilder rb;
  rb.reserve(bytes);
  for (const SortEntry& e : entries) {
    rb.add_encoded(encoded_pair(indices[e.index]));
  }
  return rb.finish(compress);
}

void PairList::append(const PairList& other) {
  const std::uint64_t base = blob_.size();
  grow_for(blob_, other.blob_.size());
  blob_.insert(blob_.end(), other.blob_.begin(), other.blob_.end());
  grow_for(offsets_, other.offsets_.size());
  for (std::uint64_t off : other.offsets_) offsets_.push_back(base + off);
  payload_bytes_ += other.payload_bytes_;
}

void PairList::clear() {
  blob_.clear();
  offsets_.clear();
  payload_bytes_ = 0;
}

namespace {

// A serialized run's header: u8 compressed flag, varint raw bytes, varint
// pairs, varint payload length. The payload follows it.
constexpr std::size_t kMaxRunHeaderBytes = 1 + 3 * util::kMaxVarintBytes;

// Spare capacity RunBuilder::finish(true) leaves in a run's buffer, so
// take_serialized can put a u32 prefix and the header in front in place.
constexpr std::size_t kRunFrameHeadroom =
    sizeof(std::uint32_t) + kMaxRunHeaderBytes;

std::size_t encode_run_header(const Run& run, std::uint8_t* out) {
  std::size_t h = 0;
  out[h++] = run.compressed ? 1 : 0;
  h += util::encode_varint(out + h, run.raw_bytes);
  h += util::encode_varint(out + h, run.pairs);
  h += util::encode_varint(out + h, run.data.size());
  return h;
}

// Reads a header into `run`'s fields; returns the payload length.
std::uint64_t decode_run_header(util::ByteReader& r, Run& run) {
  run.compressed = r.get_u8() != 0;
  run.raw_bytes = r.get_varint();
  run.pairs = r.get_varint();
  return r.get_varint();
}

}  // namespace

void Run::serialize(util::ByteWriter& w) const {
  std::uint8_t header[kMaxRunHeaderBytes];
  w.put_bytes(header, encode_run_header(*this, header));
  w.put_bytes(data.data(), data.size());
}

Run Run::deserialize(util::ByteReader& r) {
  Run run;
  // Single copy from the wire buffer straight into the run's byte vector.
  const std::string_view payload = r.get_bytes(decode_run_header(r, run));
  const auto* p = reinterpret_cast<const std::uint8_t*>(payload.data());
  run.data.assign(p, p + payload.size());
  return run;
}

util::Bytes Run::take_serialized(std::uint32_t prefix) && {
  std::uint8_t header[kRunFrameHeadroom];
  std::memcpy(header, &prefix, sizeof(prefix));
  const std::size_t h =
      sizeof(prefix) + encode_run_header(*this, header + sizeof(prefix));
  util::Bytes frame = std::move(data);
  frame.reserve(frame.size() + h);
  frame.insert(frame.begin(), header, header + h);
  return frame;
}

Run Run::adopt_serialized(util::Bytes frame, std::size_t skip) {
  GW_CHECK(skip <= frame.size());
  util::ByteReader r(frame.data() + skip, frame.size() - skip);
  Run run;
  const std::uint64_t len = decode_run_header(r, run);
  GW_CHECK_MSG(len == r.remaining(), "serialized run: payload length mismatch");
  frame.erase(frame.begin(),
              frame.begin() + static_cast<std::ptrdiff_t>(skip + r.position()));
  run.data = std::move(frame);
  return run;
}

void RunBuilder::add(std::string_view key, std::string_view value) {
  write_pair(writer_.buffer(), key, value);
  ++pairs_;
}

void RunBuilder::add_encoded(std::string_view framed,
                             std::uint64_t pair_count) {
  writer_.put_bytes(framed.data(), framed.size());
  pairs_ += pair_count;
}

Run RunBuilder::finish(bool compress) {
  util::Bytes raw = writer_.take();
  const std::uint64_t raw_size = raw.size();
  if (!compress) return Run(std::move(raw), false, raw_size, pairs_);
  // Compress into per-thread scratch, then copy into an exactly sized
  // buffer with room for a shuffle frame header: a run costs its stored
  // size in memory, and send_run frames it without reallocating.
  constexpr std::size_t kScratchKeep = 4 << 20;
  thread_local util::Bytes t_packed;
  util::lz_compress_into(raw.data(), raw.size(), t_packed);
  util::Bytes packed;
  packed.reserve(t_packed.size() + kRunFrameHeadroom);
  packed.assign(t_packed.begin(), t_packed.end());
  if (t_packed.capacity() > kScratchKeep) util::Bytes().swap(t_packed);
  return Run(std::move(packed), true, raw_size, pairs_);
}

RunReader::RunReader(const Run& run) : remaining_(run.pairs) {
  if (run.compressed) {
    storage_ = acquire_scratch();
    util::lz_decompress_into(run.data.data(), run.data.size(), storage_);
  } else {
    external_ = &run.data;
  }
}

RunReader::~RunReader() {
  if (storage_.capacity() > 0) release_scratch(std::move(storage_));
}

RunReader::RunReader(RunReader&& other) noexcept
    : storage_(std::move(other.storage_)),
      external_(other.external_),
      pos_(other.pos_),
      remaining_(other.remaining_) {
  other.external_ = nullptr;
  other.pos_ = 0;
  other.remaining_ = 0;
}

RunReader& RunReader::operator=(RunReader&& other) noexcept {
  if (this != &other) {
    if (storage_.capacity() > 0) release_scratch(std::move(storage_));
    storage_ = std::move(other.storage_);
    external_ = other.external_;
    pos_ = other.pos_;
    remaining_ = other.remaining_;
    other.external_ = nullptr;
    other.pos_ = 0;
    other.remaining_ = 0;
  }
  return *this;
}

bool RunReader::next(KV* kv) {
  if (remaining_ == 0) return false;
  const util::Bytes& buf = payload();
  const std::uint8_t* p = buf.data() + pos_;
  std::uint64_t klen, vlen;
  p = decode_varint(p, klen);
  p = decode_varint(p, vlen);
  const char* base = reinterpret_cast<const char*>(p);
  kv->key = std::string_view(base, klen);
  kv->value = std::string_view(base + klen, vlen);
  pos_ = static_cast<std::size_t>(p - buf.data()) + klen + vlen;
  --remaining_;
  return true;
}

namespace {

// Streaming cursor over one input run's framed payload: parses only the
// varint lengths of the current pair, caches an 8-byte key prefix for the
// comparator, and exposes the framed span for verbatim copying.
struct MergeCursor {
  const std::uint8_t* base = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;  // start of the next unparsed pair
  std::uint64_t remaining = 0;

  // Current pair.
  std::uint64_t prefix = 0;
  const std::uint8_t* key = nullptr;
  std::uint32_t key_len = 0;
  std::size_t pair_begin = 0;
  std::size_t pair_end = 0;

  std::uint32_t index = 0;  // input run index: duplicate-key tie-break
  util::Bytes scratch;      // pooled storage for decompressed payload

  bool advance() {
    if (remaining == 0) return false;
    --remaining;
    pair_begin = pos;
    const std::uint8_t* p = base + pos;
    std::uint64_t klen, vlen;
    p = decode_varint(p, klen);
    p = decode_varint(p, vlen);
    key = p;
    key_len = static_cast<std::uint32_t>(klen);
    prefix = key_prefix(p, klen);
    pair_end = static_cast<std::size_t>(p - base) + klen + vlen;
    pos = pair_end;
    return true;
  }
};

inline std::string_view cursor_pair(const MergeCursor& c) {
  return std::string_view(reinterpret_cast<const char*>(c.base) + c.pair_begin,
                          c.pair_end - c.pair_begin);
}

// All remaining framed bytes of the cursor, current pair included.
inline std::string_view cursor_rest(const MergeCursor& c) {
  return std::string_view(reinterpret_cast<const char*>(c.base) + c.pair_begin,
                          c.size - c.pair_begin);
}

// Orders by (key, input index): prefix compare, memcmp past the prefix only
// when needed, stable across equal keys (earlier runs first).
inline bool cursor_less(const MergeCursor& a, const MergeCursor& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  const std::uint32_t common = a.key_len < b.key_len ? a.key_len : b.key_len;
  if (common > 8) {
    const int c = std::memcmp(a.key + 8, b.key + 8, common - 8);
    if (c != 0) return c < 0;
  }
  if (a.key_len != b.key_len) return a.key_len < b.key_len;
  return a.index < b.index;
}

void init_cursor(MergeCursor& c, const Run& run, std::uint32_t index) {
  c.index = index;
  c.remaining = run.pairs;
  if (run.compressed) {
    c.scratch = acquire_scratch();
    util::lz_decompress_into(run.data.data(), run.data.size(), c.scratch);
    c.base = c.scratch.data();
    c.size = c.scratch.size();
  } else {
    c.base = run.data.data();
    c.size = run.data.size();
  }
  c.advance();
}

}  // namespace

Run merge_runs(const std::vector<const Run*>& inputs, bool compress) {
  RunBuilder builder;

  // 1-way fast path: the output payload IS the (decompressed) input
  // payload; bulk-copy it without touching per-pair framing.
  if (inputs.size() == 1) {
    const Run& only = *inputs[0];
    if (only.compressed) {
      util::Bytes scratch = acquire_scratch();
      util::lz_decompress_into(only.data.data(), only.data.size(), scratch);
      builder.add_encoded(
          std::string_view(reinterpret_cast<const char*>(scratch.data()),
                           scratch.size()),
          only.pairs);
      release_scratch(std::move(scratch));
    } else {
      builder.add_encoded(
          std::string_view(reinterpret_cast<const char*>(only.data.data()),
                           only.data.size()),
          only.pairs);
    }
    return builder.finish(compress);
  }

  std::vector<MergeCursor> cursors;
  cursors.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i]->pairs == 0) continue;
    cursors.emplace_back();
    init_cursor(cursors.back(), *inputs[i], static_cast<std::uint32_t>(i));
  }

  if (cursors.size() == 1) {
    builder.add_encoded(cursor_rest(cursors[0]), cursors[0].remaining + 1);
  } else if (cursors.size() == 2) {
    // 2-way fast path: plain two-cursor merge, bulk tail copy.
    MergeCursor* a = &cursors[0];
    MergeCursor* b = &cursors[1];
    for (;;) {
      MergeCursor* w = cursor_less(*a, *b) ? a : b;
      builder.add_encoded(cursor_pair(*w));
      if (!w->advance()) {
        MergeCursor* rest = (w == a) ? b : a;
        builder.add_encoded(cursor_rest(*rest), rest->remaining + 1);
        break;
      }
    }
  } else if (!cursors.empty()) {
    // k-way loser tree: tree[0] holds the winner, tree[1..k-1] the loser of
    // each internal match. Popping the winner replays one leaf-to-root
    // path (log k comparisons), all within one contiguous index array.
    const std::uint32_t k = static_cast<std::uint32_t>(cursors.size());
    constexpr std::uint32_t kNone = ~0u;  // exhausted: loses every match
    std::vector<std::uint32_t> tree(k);
    {
      std::vector<std::uint32_t> winner(2 * k);
      for (std::uint32_t i = 0; i < k; ++i) winner[k + i] = i;
      for (std::uint32_t j = k - 1; j >= 1; --j) {
        const std::uint32_t a = winner[2 * j];
        const std::uint32_t b = winner[2 * j + 1];
        if (cursor_less(cursors[a], cursors[b])) {
          winner[j] = a;
          tree[j] = b;
        } else {
          winner[j] = b;
          tree[j] = a;
        }
      }
      tree[0] = winner[1];
    }
    std::uint32_t w = tree[0];
    for (;;) {
      MergeCursor& c = cursors[w];
      builder.add_encoded(cursor_pair(c));
      std::uint32_t cur = c.advance() ? w : kNone;
      for (std::uint32_t j = (k + w) >> 1; j >= 1; j >>= 1) {
        std::uint32_t& s = tree[j];
        if (s != kNone &&
            (cur == kNone || cursor_less(cursors[s], cursors[cur]))) {
          std::swap(s, cur);
        }
      }
      if (cur == kNone) break;  // every input exhausted
      tree[0] = w = cur;
    }
  }

  for (auto& c : cursors) {
    if (c.scratch.capacity() > 0) release_scratch(std::move(c.scratch));
  }
  return builder.finish(compress);
}

Run merge_runs(const std::vector<Run>& inputs, bool compress) {
  std::vector<const Run*> ptrs;
  ptrs.reserve(inputs.size());
  for (const auto& r : inputs) ptrs.push_back(&r);
  return merge_runs(ptrs, compress);
}

}  // namespace gw::core

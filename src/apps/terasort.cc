#include "apps/terasort.h"

#include <algorithm>
#include <memory>

#include "util/error.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gw::apps {

namespace {

// Sorted keys searched by rank, for the range partitioners. The binary
// search runs over big-endian 8-byte key prefixes held in one flat array,
// without branches; full keys are compared only where the key's prefix
// ties sample prefixes. Zero padding keeps the prefix order consistent
// with the byte order of the keys, so upper_bound(key) equals
// std::upper_bound over the keys for keys of any length.
class SortedKeys {
 public:
  explicit SortedKeys(std::vector<std::string> sorted)
      : keys_(std::move(sorted)) {
    prefixes_.reserve(keys_.size());
    for (const std::string& k : keys_) prefixes_.push_back(prefix_of(k));
  }

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  // Number of keys <= `key`.
  std::size_t upper_bound(std::string_view key) const {
    if (prefixes_.empty()) return 0;
    const std::uint64_t p = prefix_of(key);
    // First index whose prefix exceeds p.
    const std::uint64_t* base = prefixes_.data();
    std::size_t n = prefixes_.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half] <= p ? base + half : base;
      n -= half;
    }
    std::size_t i =
        static_cast<std::size_t>(base - prefixes_.data()) + (*base <= p);
    // Keys whose prefix ties p sort just before i: step back over those
    // greater than `key`.
    while (i > 0 && prefixes_[i - 1] == p &&
           key < std::string_view(keys_[i - 1])) {
      --i;
    }
    return i;
  }

 private:
  static std::uint64_t prefix_of(std::string_view k) {
    return k.empty() ? 0 : core::key_prefix(k.data(), k.size());
  }

  std::vector<std::string> keys_;
  std::vector<std::uint64_t> prefixes_;
};

void ts_map(std::string_view record, core::MapContext& ctx) {
  // Identity: split the record into key and payload; negligible compute.
  ctx.charge_ops(10);
  ctx.emit(record.substr(0, kTeraKeySize), record.substr(kTeraKeySize));
}

}  // namespace

AppSpec terasort() {
  AppSpec spec;
  spec.kernels.name = "terasort";
  spec.kernels.map = ts_map;
  spec.kernels.fixed_record_size = kTeraRecordSize;
  // No reduce: output is complete when the shuffle's merge finishes.
  return spec;
}

sim::Task<core::PartitionFn> sample_range_partitioner(
    dfs::FileSystem& fs, int node, std::vector<std::string> paths,
    std::size_t samples_per_file) {
  std::vector<std::string> samples;
  for (const auto& path : paths) {
    const std::uint64_t size = fs.file_size(path);
    const std::uint64_t records = size / kTeraRecordSize;
    const std::uint64_t take =
        std::min<std::uint64_t>(samples_per_file, records);
    if (take == 0) continue;
    const std::uint64_t stride = records / take;
    // Strided sampling across the file; reads are charged per sample batch.
    for (std::uint64_t s = 0; s < take; ++s) {
      const std::uint64_t off = s * stride * kTeraRecordSize;
      util::Bytes rec = co_await fs.read(node, path, off, kTeraKeySize);
      samples.emplace_back(rec.begin(), rec.end());
    }
  }
  std::sort(samples.begin(), samples.end());
  co_return quantile_range_partitioner(std::move(samples));
}

core::PartitionFn quantile_range_partitioner(
    std::vector<std::string> sorted_samples) {
  auto keys = std::make_shared<const SortedKeys>(std::move(sorted_samples));
  return [keys](std::string_view key, std::uint32_t total) -> std::uint32_t {
    if (keys->empty()) return 0;
    // Equal-frequency quantiles: rank of key among samples -> bucket.
    const std::uint64_t bucket =
        static_cast<std::uint64_t>(keys->upper_bound(key)) * total /
        (keys->size() + 1);
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bucket, total - 1));
  };
}

util::Bytes encode_splitters(const std::vector<std::string>& splitters) {
  std::string out;
  put_be32(out, static_cast<std::uint32_t>(splitters.size()));
  for (const auto& s : splitters) {
    put_be32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }
  return util::Bytes(out.begin(), out.end());
}

std::vector<std::string> decode_splitters(const util::Bytes& payload) {
  const std::string_view view(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  GW_CHECK(view.size() >= 4);
  const std::uint32_t count = get_be32(view);
  std::vector<std::string> splitters;
  splitters.reserve(count);
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = get_be32(view.substr(off));
    off += 4;
    splitters.emplace_back(view.substr(off, len));
    off += len;
  }
  GW_CHECK(off == view.size());
  return splitters;
}

core::PartitionFn splitter_range_partitioner(
    std::vector<std::string> splitters) {
  auto keys = std::make_shared<const SortedKeys>(std::move(splitters));
  return [keys](std::string_view key, std::uint32_t total) -> std::uint32_t {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        keys->upper_bound(key), total - 1));
  };
}

core::DagResult terasort_dag(core::GlasswingRuntime& runtime,
                             cluster::Platform& platform, dfs::FileSystem& fs,
                             core::DagConfig dag, core::EdgeKind sample_edge,
                             std::uint32_t sample_every) {
  GW_CHECK(sample_every > 0);
  const std::uint32_t total_partitions =
      static_cast<std::uint32_t>(platform.num_nodes()) *
      static_cast<std::uint32_t>(dag.base.partitions_per_node);
  const std::vector<std::string> input_paths = dag.input_paths;

  core::JobDag jd(runtime, platform, fs, std::move(dag));

  core::RoundSpec sample;
  sample.name = "sample";
  sample.edge = sample_edge;
  sample.app = [sample_every](const core::DagRoundState&) {
    AppSpec spec;
    spec.kernels.name = "terasort-sample";
    spec.kernels.fixed_record_size = kTeraRecordSize;
    spec.kernels.map = [sample_every](std::string_view record,
                                      core::MapContext& ctx) {
      ctx.charge_ops(12);
      const std::string_view key = record.substr(0, kTeraKeySize);
      if (util::fnv1a(key.data(), key.size()) % sample_every == 0) {
        ctx.emit(key, {});
      }
    };
    // Everything into one merge-sorted sample partition; no reduce.
    spec.kernels.partition = [](std::string_view, std::uint32_t) {
      return std::uint32_t{0};
    };
    return spec.kernels;
  };
  sample.broadcast = [total_partitions](const core::DagRoundState&,
                                        const core::RoundPairs& pairs) {
    // Equal-frequency quantiles over the merge-sorted samples.
    std::vector<std::string> splitters;
    if (!pairs.empty()) {
      for (std::uint32_t b = 1; b < total_partitions; ++b) {
        const std::size_t rank = static_cast<std::size_t>(
            static_cast<std::uint64_t>(b) * pairs.size() / total_partitions);
        splitters.push_back(pairs[rank].first);
      }
    }
    return encode_splitters(splitters);
  };
  jd.add_round(std::move(sample));

  core::RoundSpec sort;
  sort.name = "sort";
  sort.app = [](const core::DagRoundState& st) {
    AppSpec spec = terasort();
    spec.kernels.partition =
        splitter_range_partitioner(decode_splitters(st.broadcast));
    return spec.kernels;
  };
  // The sort round re-reads the original records, not the sample file.
  sort.inputs = [input_paths](const core::DagRoundState&) {
    return input_paths;
  };
  jd.add_round(std::move(sort));

  return jd.run();
}

util::Bytes generate_terasort(std::uint64_t records, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes data;
  data.reserve(records * kTeraRecordSize);
  for (std::uint64_t r = 0; r < records; ++r) {
    // 10-byte key: printable ASCII like gensort (' '..'~').
    for (std::uint64_t i = 0; i < kTeraKeySize; ++i) {
      data.push_back(static_cast<std::uint8_t>(' ' + rng.below(95)));
    }
    // 90-byte payload: record number + filler.
    std::string payload = std::to_string(r);
    payload.resize(kTeraRecordSize - kTeraKeySize, 'x');
    data.insert(data.end(), payload.begin(), payload.end());
  }
  return data;
}

std::uint64_t terasort_checksum(const util::Bytes& data) {
  GW_CHECK(data.size() % kTeraRecordSize == 0);
  std::uint64_t checksum = 0;
  for (std::size_t off = 0; off < data.size(); off += kTeraRecordSize) {
    checksum ^= util::fnv1a(data.data() + off, kTeraRecordSize);
  }
  return checksum;
}

}  // namespace gw::apps

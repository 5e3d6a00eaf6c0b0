// Map-output collection mechanisms (paper §III-F).
//
// Glasswing offers two collectors for map kernels:
//  * Shared buffer pool — every emit bump-allocates space with one atomic
//    operation; cheap at emit time, but the partitioning stage must decode
//    every key/value occurrence individually.
//  * Hash table — per-key value chains; emits pay hash+probe costs and
//    value-append atomics, but keys are stored once, a combiner can run
//    over each key's values, and the partitioning stage decodes per key.
//
// The cost differences the paper measures in Tables II/III come from REAL
// counters here: probe counts under key skew, per-emit atomics, and the
// actual data volumes that reach the partitioner.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "core/kv.h"
#include "gwcl/device.h"
#include "util/thread_pool.h"

namespace gw::core {

// Harvested output of one map chunk after (optional) combine/compaction.
struct MapChunkOutput {
  MapChunkOutput() = default;

  PairList pairs;
  std::uint64_t distinct_keys = 0;
  // True when pairs of equal key are adjacent (hash-table collector), so
  // the partitioner pays per-key instead of per-pair decode overhead.
  bool grouped = false;
  // Hash-table probe count accumulated while collecting this chunk (0 for
  // the shared-pool collector).
  std::uint64_t hash_probes = 0;
  // Stats of the post-processing (combine/compaction) kernel, if any.
  cl::KernelStats post_stats;
};

class MapOutputCollector {
 public:
  virtual ~MapOutputCollector() = default;

  // Thread-safe across groups: each work-group writes only its own
  // sub-collector. Called from real host threads during kernel execution.
  virtual void emit(std::size_t group, std::string_view key,
                    std::string_view value, cl::KernelCounters& c) = 0;

  // Post-kernel processing on the device (combine or compaction kernel for
  // the hash table; plain gather for the shared pool). Consumes the
  // collector's contents.
  virtual sim::Task<MapChunkOutput> finalize(
      cl::Device& device, const std::optional<CombineFn>& combine,
      cl::LaunchConfig launch) = 0;

  // Number of work-groups this collector was built for.
  std::size_t groups() const { return groups_; }

 protected:
  explicit MapOutputCollector(std::size_t groups) : groups_(groups) {}
  std::size_t groups_;
};

// Factory per JobConfig::output_mode.
std::unique_ptr<MapOutputCollector> make_collector(OutputMode mode,
                                                   std::size_t groups);

// ---- implementations (exposed for unit tests) ----

class SharedPoolCollector : public MapOutputCollector {
 public:
  explicit SharedPoolCollector(std::size_t groups);

  void emit(std::size_t group, std::string_view key, std::string_view value,
            cl::KernelCounters& c) override;
  sim::Task<MapChunkOutput> finalize(cl::Device& device,
                                     const std::optional<CombineFn>& combine,
                                     cl::LaunchConfig launch) override;

 private:
  std::vector<util::CacheAligned<PairList>> per_group_;
};

class HashTableCollector : public MapOutputCollector {
 public:
  explicit HashTableCollector(std::size_t groups);

  void emit(std::size_t group, std::string_view key, std::string_view value,
            cl::KernelCounters& c) override;
  sim::Task<MapChunkOutput> finalize(cl::Device& device,
                                     const std::optional<CombineFn>& combine,
                                     cl::LaunchConfig launch) override;

  // Probe statistics over all groups (exposed for tests).
  std::uint64_t total_probes() const;

 private:
  // Open-addressed table per work-group; string data lives in `blob`.
  struct Table {
    struct Slot {
      std::uint64_t hash = 0;
      std::uint64_t key_off = kEmpty;
      std::uint32_t key_len = 0;
      std::uint32_t head = kNil;     // newest value node
      std::uint32_t num_values = 0;
    };
    struct ValueNode {
      std::uint64_t off;
      std::uint32_t len;
      std::uint32_t next;
    };
    static constexpr std::uint64_t kEmpty = ~0ull;
    static constexpr std::uint32_t kNil = ~0u;
    static constexpr std::size_t kInitialSlots = 1024;

    util::Bytes blob;
    std::vector<Slot> slots;
    std::vector<ValueNode> values;
    std::size_t used = 0;
    std::uint64_t probes = 0;

    Table();
    void insert(std::string_view key, std::string_view value,
                cl::KernelCounters& c);
    void grow();
    std::string_view view(std::uint64_t off, std::uint32_t len) const {
      return std::string_view(reinterpret_cast<const char*>(blob.data()) + off,
                              len);
    }
  };

  // The host side of finalize, run as one offloaded kernel job: gathers the
  // tables into a key index, runs the combine/compaction kernel, fills
  // `out` and resets the tables. Returns the kernel's counters.
  cl::KernelStats finalize_job(const std::optional<CombineFn>& combine,
                               MapChunkOutput& out);

  std::vector<util::CacheAligned<Table>> tables_;
};

}  // namespace gw::core

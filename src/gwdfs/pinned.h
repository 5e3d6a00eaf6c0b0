// Pinned intermediate store: a FileSystem overlay for multi-round DAGs.
//
// Between DAG rounds, a round's reduce output can either be materialized
// to the base filesystem (checkpoint: survives crashes, costs the full
// DFS write/replication path) or stay PINNED in the producing node's
// memory (free to write, free to re-read locally, charged only for the
// wire when a remote node pulls it — and gone if the host dies). The DAG
// driver flips set_pin_writes() per round according to the edge kind.
//
// Independently, set_cache_reads() turns on an input block cache: reads
// of base-fs files are remembered per (node, range), so an iterative job
// re-reading the same splits every round (kmeans) pays the DFS read cost
// once. Cache loss on a crash is harmless — the base copy is authoritative;
// pinned-output loss surfaces as DataLossError and the DAG driver rewinds.
//
// Both uses share one per-node pin budget (DAG default: the store share of
// the job's memory-governor budget). Pinned writes over budget spill
// through to the base fs; cache inserts over budget are skipped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "gwdfs/fs.h"

namespace gw::dfs {

class PinnedFs : public FileSystem {
 public:
  // `node_budget_bytes` caps pinned + cached bytes per node; 0 = unlimited.
  PinnedFs(cluster::Platform& platform, FileSystem& base,
           std::uint64_t node_budget_bytes = 0);
  ~PinnedFs() override;

  FileSystem& base() { return base_; }
  const FileSystem& base() const { return base_; }

  // Routing for subsequent writes: pinned (node-local memory, subject to
  // budget) or pass-through to the base fs (checkpoint). Default: off.
  void set_pin_writes(bool pin) { pin_writes_ = pin; }
  // Input caching for reads of base-fs files. Default: off. With both
  // knobs off the overlay is fully transparent.
  void set_cache_reads(bool on) { cache_reads_ = on; }

  sim::Task<> write(int node, const std::string& path,
                    util::Bytes&& data) override;
  sim::Task<util::Bytes> read(int node, const std::string& path,
                              std::uint64_t offset, std::uint64_t len) override;
  bool exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  std::vector<int> block_locations(const std::string& path,
                                   std::uint64_t index) const override;
  std::uint64_t block_size() const override { return base_.block_size(); }
  const char* name() const override { return "pinned"; }

  // True when `path` lives in pinned memory and its host is still up.
  bool pinned(const std::string& path) const;
  // True when `path` was pinned but its host died: reads would throw.
  bool lost(const std::string& path) const;

  std::uint64_t node_budget_bytes() const { return budget_; }
  std::uint64_t pinned_bytes(int node) const;
  // Max pinned + cached occupancy observed on any node.
  std::uint64_t peak_pinned_bytes() const { return peak_; }
  // Pinned writes diverted to the base fs because the budget was full.
  std::uint64_t pin_spills() const { return pin_spills_; }
  // Bytes served from the input cache instead of the base fs.
  std::uint64_t cache_hit_bytes() const { return cache_hit_bytes_; }
  // Bytes pulled over the wire from a remote pinned host.
  std::uint64_t remote_pin_bytes() const { return remote_pin_bytes_; }
  // Pinned files whose host crashed.
  std::uint64_t lost_files() const { return lost_files_; }

 private:
  struct PinFile {
    util::Bytes data;
    int host = -1;
    bool lost = false;
  };
  // Exact-range input cache key: (reader node, path, offset, len). Rounds
  // re-read identical splits, so exact matching hits every repeat read.
  using CacheKey = std::tuple<int, std::string, std::uint64_t, std::uint64_t>;

  bool fits(int node, std::uint64_t bytes) const;
  void account(int node, std::uint64_t bytes);
  void drop_cached(const std::string& path);
  void on_crash(int node);

  cluster::Platform& platform_;
  FileSystem& base_;
  std::uint64_t budget_ = 0;
  bool pin_writes_ = false;
  bool cache_reads_ = false;
  std::map<std::string, PinFile> files_;
  std::map<CacheKey, util::Bytes> cache_;
  std::vector<std::uint64_t> node_bytes_;
  std::uint64_t peak_ = 0;
  std::uint64_t pin_spills_ = 0;
  std::uint64_t cache_hit_bytes_ = 0;
  std::uint64_t remote_pin_bytes_ = 0;
  std::uint64_t lost_files_ = 0;
  int crash_listener_id_ = -1;
};

}  // namespace gw::dfs

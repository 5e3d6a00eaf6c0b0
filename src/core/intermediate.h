// Intermediate data management (paper §III-B).
//
// Each node runs an IntermediateStore holding the Partitions assigned to it:
// an in-memory cache of runs that is merged and flushed to disk when its
// aggregate size exceeds a configurable threshold, plus on-disk runs that
// background merger threads continuously consolidate with multi-way merges
// so the number of intermediate files stays below a configurable count.
// All runs are serialized and compressed.
//
// Every cached run holds its bytes in the node's MemoryGovernor store pool,
// and every merge holds its i/o buffers in the merge pool. Under a nonzero
// budget (JobConfig::node_memory_bytes) the store is a budgeted external
// sorter: producers block on the store pool before caching a run, every
// merged cache spills to disk, and the on-disk runs are consolidated by a
// multi-level merge tree whose fan-in is computed from the merge-pool
// budget (fan_in = merge_pool / 256 KiB merge i/o buffer - 1, floor 2).
// Each disk run carries its merge level; the deepest level produced is the
// merge_levels metric. Budget 0 makes the pools unbounded: the cache
// threshold and max_disk_runs alone decide flushes and merge width, and a
// drain-time merge stays cached.
//
// The store also measures the paper's *merge delay* metric: the time spent
// finishing merges after the map phase completes and before reduction can
// start (§III-B, Fig 4(b)).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/kv.h"
#include "core/memory.h"
#include "sim/sim.h"

namespace gw::core {

class IntermediateStore {
 public:
  // `node` hosts the store. Partitions are keyed by GLOBAL partition id, so
  // a store can absorb partitions reassigned from a crashed node; in a
  // failure-free job a node only ever sees the P ids it owns. `mem` is the
  // node's governor (budget 0 = unbounded pools).
  IntermediateStore(cluster::Node& node, sim::Simulation& sim,
                    const JobConfig& config, MemoryGovernor& mem);
  ~IntermediateStore();

  int local_partitions() const { return local_partitions_; }

  // Adds a run to global partition `g`; called by the partitioner threads
  // (local data) and the shuffle receiver (remote data). May trigger cache
  // flushes. It blocks on the store pool until the run's bytes fit — the
  // producer-side backpressure of the external sort; with unbounded pools
  // it completes without suspending (merging is asynchronous).
  //
  // `tags` are the dedup tags of the run's producers: one split tag for a
  // map run, the union of its inputs' tags for a hierarchically combined
  // run, none for untagged data. Task re-execution, speculative clones and
  // ledger re-feeds regenerate byte-identical runs under the same tags.
  // Dedup is all-or-nothing: every tag already seen for `g` drops the run
  // as a duplicate, none seen records them all and admits it. A partial
  // overlap would mean two different groupings of the same producer's
  // output reached this store, which the shuffle protocol cannot produce
  // (combined runs travel only on the main shuffle port, whose runs are all
  // stored before any recovery-port re-feed) — it aborts. Tags are
  // remembered for the store's whole lifetime — including across
  // take_partition — so a run consumed by reduce still shadows late
  // duplicates. Pure host-side bookkeeping: no simulated cost either way.
  sim::Task<> add_run(int g, Run run, std::vector<std::uint64_t> tags = {});

  // Runs dropped as duplicates of an already-seen dedup tag.
  std::uint64_t duplicate_runs_dropped() const { return dup_dropped_; }

  // Starts merger workers; they are joined by drain().
  void start_mergers();

  // Called once map+shuffle input is complete: consolidates every partition
  // to at most min(max_disk_runs, fanin_limit()) runs, then stops the
  // merger threads. The elapsed time of this call is the merge delay.
  sim::Task<> drain();

  // Re-arms a drained store for a crash-recovery round: fresh work channel
  // and completion event, quiesced-merger checks, and cache accounting
  // recomputed from the runs actually held (the retry path reuses the store
  // across rounds). Dedup tags and metrics persist.
  void reopen();

  // Hands out a partition's final runs (cache + disk) for the reduce input
  // reader, releasing the store-pool holds on the cached part. `disk_bytes`
  // returns how many stored bytes must be read from disk. Only valid after
  // drain(). Unknown ids yield an empty vector.
  std::vector<Run> take_partition(int g, std::uint64_t* disk_bytes);

  // Merge-pool-derived fan-in cap for disk merges (beyond any run count
  // with unbounded pools).
  std::size_t fanin_limit() const;

  // Metrics.
  std::uint64_t spills() const { return spills_; }
  std::uint64_t merges() const { return merges_; }
  // Total input runs consumed across all merges; merge_fanin_runs()/merges()
  // is the average merge fan-in.
  std::uint64_t merge_fanin_runs() const { return merge_fanin_runs_; }
  std::uint64_t spill_bytes() const { return spill_bytes_; }
  // Deepest merge level produced: spilled runs are level 1, a merge of
  // level-L (max) inputs produces level L+1.
  std::uint64_t merge_levels() const { return merge_levels_; }
  std::uint64_t cache_bytes() const { return cache_bytes_total_; }
  std::uint64_t stored_bytes() const;

 private:
  struct Part {
    std::vector<Run> cache;
    // Store-pool hold per cached run (parallel to `cache`).
    std::vector<sim::Resource::Hold> cache_holds;
    std::vector<Run> disk;
    std::vector<int> disk_levels;  // merge level per disk run (parallel)
    std::uint64_t cache_bytes = 0;
    bool queued = false;
    // Dedup tags seen, as a bitmap indexed by tag: tags are split index + 1,
    // so it needs at most splits / 8 bytes. Never cleared (see add_run).
    std::vector<std::uint64_t> seen_tags;

    bool seen(std::uint64_t tag) const {
      const std::uint64_t w = tag >> 6;
      return w < seen_tags.size() && ((seen_tags[w] >> (tag & 63)) & 1) != 0;
    }
    void mark_seen(std::uint64_t tag) {
      const std::uint64_t w = tag >> 6;
      if (w >= seen_tags.size()) seen_tags.resize(w + 1, 0);
      seen_tags[w] |= std::uint64_t{1} << (tag & 63);
    }
  };

  sim::Task<> merger_loop(trace::TrackRef track);
  sim::Task<> service(int g, trace::TrackRef track);
  void enqueue(int g);
  void maybe_trigger_flushes(bool force);
  bool under_pressure() const;
  std::uint64_t effective_cache_threshold() const;
  std::size_t effective_max_disk_runs() const;
  double host_merge_seconds(std::uint64_t in_bytes, std::uint64_t raw_bytes,
                            std::uint64_t out_raw) const;

  cluster::Node& node_;
  sim::Simulation& sim_;
  const JobConfig& config_;
  MemoryGovernor& mem_;
  int local_partitions_;
  std::map<int, Part> parts_;  // global partition id -> state (ordered)
  std::uint64_t cache_bytes_total_ = 0;
  std::uint64_t dup_dropped_ = 0;

  std::unique_ptr<sim::Channel<int>> work_;
  std::unique_ptr<sim::TaskGroup> mergers_;
  std::size_t jobs_in_flight_ = 0;
  bool draining_ = false;
  std::unique_ptr<sim::Event> drained_;
  std::vector<trace::TrackRef> merger_tracks_;  // reused across rounds

  std::uint64_t spills_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t merge_fanin_runs_ = 0;
  std::uint64_t spill_bytes_ = 0;
  std::uint64_t merge_levels_ = 0;
  std::int32_t merge_name_ = -1;
  std::int32_t spill_name_ = -1;
};

}  // namespace gw::core

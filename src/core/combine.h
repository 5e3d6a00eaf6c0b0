// Hierarchical combining: node-level combiner and rack-level aggregation.
//
// Beyond the per-chunk combiner (which runs inside the hash-table collector
// over one map chunk), two optional tiers consolidate duplicate keys before
// intermediate data pays for the expensive links:
//
//   * Node tier (CombineMode::kNode): a per-node NodeCombiner intercepts
//     every remote-destined partition run the map pipeline produces, across
//     ALL map tasks of the node, merge-combines duplicate keys with the
//     app's combine function under a budgeted staging buffer, and pushes
//     one consolidated run per (flush, partition) instead of one per
//     (chunk, partition).
//
//   * Rack tier (CombineMode::kRack): additionally, each rack designates
//     its lowest-numbered node as aggregator. Members send their
//     extra-rack shuffle streams to the aggregator on a dedicated traffic
//     class (intra-rack wires, never the core switch); the aggregator
//     re-combines per partition and forwards a single deduplicated stream
//     across the core switch, so only post-aggregation bytes pay the
//     bisection-oversubscription toll.
//
// Correctness contract: the app declares AppKernels::combine_associative,
// promising that reducing combined partials is byte-identical to reducing
// the raw values under any grouping. A combined run is ordinary map output
// on the wire — the same u32 g | run frame (send_run) — and carries the
// union of its constituents' dedup tags out-of-band (net::Message::tags),
// so crash recovery's replay of pre-combine provenance (ledger re-feeds,
// split re-execution) deduplicates exactly against what already arrived
// combined (IntermediateStore::add_run).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/api.h"
#include "core/kv.h"
#include "core/pipeline.h"
#include "simnet/transport.h"

namespace gw::core {

// Merges key-sorted runs into one key-sorted run whose equal-key groups
// have been folded through the app combine function (which must emit the
// group's key, keeping the output sorted). Runs entirely on the calling
// (host) thread; simulated cost is charged by the caller.
Run combine_runs(const std::vector<const Run*>& inputs,
                 const CombineFn& combine, bool compress);

// Rack topology derived from NetworkProfile::rack_size: rack r is the node
// range [r*rack_size, (r+1)*rack_size) clipped to the cluster, and its
// aggregator is its lowest-numbered node.
struct RackTopology {
  int rack_size = 0;  // 0 = flat (no racks)
  int num_nodes = 1;

  int rack_of(int n) const { return n / rack_size; }
  int num_racks() const { return (num_nodes + rack_size - 1) / rack_size; }
  int aggregator_of(int rack) const { return rack * rack_size; }
  bool is_aggregator(int n) const {
    return n == aggregator_of(rack_of(n));
  }
  bool same_rack(int a, int b) const { return rack_of(a) == rack_of(b); }
  int members_of(int rack) const {  // member count, aggregator included
    const int lo = rack * rack_size;
    const int hi = std::min(num_nodes, lo + rack_size);
    return hi - lo;
  }
};

struct CombineMetrics {
  std::uint64_t in_bytes = 0;      // stored bytes entering combine passes
  std::uint64_t out_bytes = 0;     // stored bytes leaving combine passes
  std::uint64_t flushes = 0;       // combine passes executed
  std::uint64_t passthrough = 0;   // runs forwarded uncombined (over budget)
  std::uint64_t wire_bytes = 0;    // remote frame bytes sent
};

// One combining stage: buffers runs per global partition, merge-combines
// them on flush, and routes the combined output. Used in two places — the
// map tier (fed by the partition workers) and the rack aggregator (fed by
// the kPortRackAgg receiver).
class NodeCombiner {
 public:
  enum class Tier {
    kMap,      // routes extra-rack output via the rack aggregator (kRack)
    kRackAgg,  // routes straight to the partition owner
  };

  // `topo.rack_size == 0` (node mode) routes everything straight to the
  // owner. Staging draws from the governor's combine pool, and flushes when
  // that pool is full, or past 4 MiB of buffered runs if it is unbounded.
  NodeCombiner(NodeContext ctx, Tier tier, RackTopology topo);

  // Buffers one run for global partition g, tagged with the union of its
  // constituents' dedup tags (a single split tag at the map tier). Flushes
  // when the staging budget is exhausted; a run that cannot be admitted
  // even after flushing passes through uncombined (never blocks against
  // another combiner sharing the pool).
  sim::Task<> add(int g, std::vector<std::uint64_t> tags, Run run);

  // Combines and routes everything still buffered (end of the map phase /
  // all rack EOS received), then waits for the spawned sends to be handed
  // to the network.
  sim::Task<> drain();

  // Drops all staged runs without combining or sending (releases their
  // memory holds). Used when the owning node died mid-stream: its staged
  // data died with it, recovery re-feeds the pre-combine provenance.
  void discard();

  const CombineMetrics& metrics() const { return metrics_; }

 private:
  struct Bucket {
    std::vector<std::uint64_t> tags;
    std::vector<Run> runs;
    std::vector<sim::Resource::Hold> holds;  // combine-pool staging bytes
    std::uint64_t bytes = 0;
  };

  sim::Task<> flush(int g);
  sim::Task<> flush_all();
  // Sends a run (send_run) toward its partition owner; at the map tier,
  // extra-rack output goes via the rack aggregator instead.
  void route(int g, std::vector<std::uint64_t> tags, Run run);

  NodeContext ctx_;
  Tier tier_;
  RackTopology topo_;
  const CombineFn* combine_;
  std::map<int, Bucket> buckets_;  // ordered: deterministic flush order
  std::uint64_t buffered_ = 0;
  sim::TaskGroup sends_;
  trace::TrackRef track_;
  std::int32_t combine_name_ = -1;
  CombineMetrics metrics_;
};

}  // namespace gw::core

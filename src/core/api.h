// Glasswing public API: application kernels and job configuration.
//
// Mirrors the paper's two API groups (§III-F): the Configuration API
// (JobConfig) and the Glasswing OpenCL API (map/reduce/combine functions
// consuming and emitting key/value pairs). User functions here are real C++
// functors standing in for OpenCL kernels; they account their computational
// cost through cl::KernelCounters, which drives the device timing model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gwcl/device.h"
#include "util/bytes.h"

namespace gw::core {

// Emits intermediate pairs from a map work-item. The collector behind it is
// selected by JobConfig::output_mode (shared buffer pool or hash table,
// §III-F) and accounts the emit cost (atomics, hash probes) it really incurs.
class MapEmitter {
 public:
  virtual ~MapEmitter() = default;
  virtual void emit(std::string_view key, std::string_view value) = 0;
};

struct MapContext {
  MapEmitter* out;
  cl::KernelCounters* counters;

  void emit(std::string_view key, std::string_view value) {
    out->emit(key, value);
  }
  void charge_ops(std::uint64_t n) { counters->charge_ops(n); }
};

// One map work-item: processes a single input record.
using MapFn = std::function<void(std::string_view record, MapContext&)>;

class ReduceEmitter {
 public:
  virtual ~ReduceEmitter() = default;
  virtual void emit(std::string_view key, std::string_view value) = 0;
};

struct ReduceContext {
  ReduceEmitter* out;
  cl::KernelCounters* counters;

  void emit(std::string_view key, std::string_view value) {
    out->emit(key, value);
  }
  void charge_ops(std::uint64_t n) { counters->charge_ops(n); }
};

// One reduce work-item: a key with all (or a scratch-buffered slice of) its
// values. When a key's value list exceeds JobConfig::max_values_per_kernel,
// the framework re-invokes reduce with the previous partial output injected
// as the first value (the paper's scratch-buffer mechanism, §III-C); reduce
// functions must therefore be associative in that case.
using ReduceFn = std::function<void(std::string_view key,
                                    const std::vector<std::string_view>& values,
                                    ReduceContext&)>;

// Combiner: local reduce over one map chunk's output (§III-F); only
// supported by the hash-table collector, as in the paper.
using CombineFn = ReduceFn;

// Splits a raw input chunk into records. Returns byte offsets of record
// starts; records run to the next offset (or chunk end). Text apps split on
// newlines; TeraSort uses fixed 100-byte records; matrix/KM inputs use
// binary tile/batch framing.
using RecordSplitFn =
    std::function<std::vector<std::uint64_t>(std::string_view chunk)>;

// Maps a key to a global partition index in [0, total_partitions). The
// default hashes the key (the paper's hash partitioner, overridable e.g. by
// TeraSort's sampled range partitioner).
using PartitionFn =
    std::function<std::uint32_t(std::string_view key, std::uint32_t total)>;

PartitionFn default_hash_partitioner();

// Newline record splitter for text inputs.
std::vector<std::uint64_t> split_lines(std::string_view chunk);

// An application: kernels plus framing hooks.
struct AppKernels {
  std::string name;
  MapFn map;
  std::optional<CombineFn> combine;   // requires hash-table output mode
  std::optional<ReduceFn> reduce;     // absent for TeraSort-style jobs
  RecordSplitFn split_records;        // defaults to split_lines
  PartitionFn partition;              // defaults to hash partitioner
  // Fixed record length in bytes (TeraSort, binary vectors/tiles); 0 means
  // newline-delimited text. Drives split alignment so no record straddles
  // two splits.
  std::uint64_t fixed_record_size = 0;
  // Associativity/commutativity contract for `combine`: true declares that
  // applying the combiner over any grouping/ordering of a key's values
  // (then reducing) yields byte-identical output to reducing the raw
  // values. Required for the hierarchical (node/rack) combining tiers,
  // which re-combine already-combined partials across map tasks and nodes.
  bool combine_associative = false;
};

enum class OutputMode {
  kSharedPool,  // bump-allocated output buffer: one atomic per emit
  kHashTable,   // per-key chains: probes + per-value atomic; enables combiner
};

// Hierarchical combining tiers (beyond the per-chunk combiner):
//   kOff  — legacy push shuffle, byte-identical event order.
//   kNode — a per-node combiner merges duplicate keys across ALL map tasks
//           on the node before runs leave for remote partitions.
//   kRack — node combining plus a rack-level aggregation hop: one
//           designated node per rack re-combines the rack's extra-rack
//           shuffle streams and forwards a single deduplicated stream
//           across the core switch.
// Requires an app combine function declared combine_associative (and no
// speculation); without one the job runs with kOff. A mode the execution
// environment cannot honour (no rack structure, shared governors, a
// preemptable job, nodes dead at job start) is weakened at job setup and
// reported as JobResult::combine_degraded.
enum class CombineMode { kOff = 0, kNode = 1, kRack = 2 };

// Host-side processing rates (bytes/s per thread and fixed per-item costs)
// for pipeline work executed by host threads rather than the compute device.
struct HostCosts {
  double sort_bytes_per_s = 120e6;
  double serialize_bytes_per_s = 450e6;
  double compress_bytes_per_s = 280e6;
  double decompress_bytes_per_s = 550e6;
  double merge_bytes_per_s = 220e6;
  double partition_pair_overhead_s = 40e-9;  // decode one k/v occurrence
  double partition_key_overhead_s = 60e-9;   // decode one key group
};

struct JobConfig {
  // Input/output.
  std::vector<std::string> input_paths;
  std::string output_path;
  std::uint64_t split_size = 4ull << 20;

  // Pipeline shape (§III-D): 1 = single, 2 = double, 3 = triple buffering.
  int buffering = 2;

  // Map output collection (§III-F).
  OutputMode output_mode = OutputMode::kHashTable;
  bool use_combiner = true;

  // Intermediate data management (§III-B, §IV-B3).
  int partitions_per_node = 8;      // P
  int partitioner_threads = 4;      // N
  std::uint64_t cache_threshold_bytes = 24ull << 20;
  int max_disk_runs = 8;

  // --- memory governor / external shuffle-sort ---
  // Per-node memory budget for pipeline buffers, the intermediate-store run
  // cache and merge scratch. Every buffer-holding component acquires its
  // bytes from per-stage pools (core::MemoryGovernor), blocking
  // deterministically under pressure; the store spills sorted runs to disk
  // and consolidates them with a multi-level merge whose fan-in derives
  // from the merge pool budget:
  //   fan_in = max(2, merge_pool_bytes / 256 KiB - 1)
  // (one 256 KiB i/o buffer per input run plus one for the merged output).
  // 0 = unbounded: no acquire blocks, the store spills only past
  // cache_threshold_bytes, and peak occupancy is still measured
  // (JobStats::peak_mem_bytes).
  std::uint64_t node_memory_bytes = 0;
  // Disk bandwidth override for spill writes and spill-merge i/o
  // (bytes/s, applied to both directions); 0 = the node's disk spec.
  double spill_bandwidth_bytes_per_s = 0;

  bool governed() const { return node_memory_bytes > 0; }

  // --- hierarchical combining (node / rack tiers) ---
  // Default off: the push shuffle keeps its legacy byte-identical event
  // order. kNode/kRack require an associative app combiner (and kRack a
  // NetworkProfile rack_size); the runtime normalizes impossible requests
  // down (kRack -> kNode -> kOff) instead of failing.
  CombineMode combine_mode = CombineMode::kOff;

  // Reduce pipeline (§III-C, §IV-B4).
  int concurrent_keys = 4096;
  int keys_per_thread = 8;
  std::uint64_t max_values_per_kernel = 1ull << 20;

  // Device launch tuning (the paper's per-device knobs).
  cl::LaunchConfig map_launch;
  cl::LaunchConfig reduce_launch;

  // Cost model for host-side stages.
  HostCosts host;

  // Replication for job output (TeraSort output uses 1, §IV-A1); 0 keeps
  // the filesystem default.
  int output_replication = 0;

  // Fault injection for exercising task re-execution (§III-E): when
  // `every` = fail_every_nth_map_task > 0, the FIRST attempt of every
  // `every`-th map task — 1-based, i.e. splits with (index + 1) % every ==
  // 0 — fails after its kernel ran; the partial output is discarded and the
  // input split is rescheduled. Retried attempts (attempt > 0) never
  // re-fail, by construction: injection is keyed on attempt == 0.
  // `every` = 1 therefore fails every task exactly once.
  int fail_every_nth_map_task = 0;
  // Reduce-side counterpart with identical semantics: the first attempt of
  // every Nth reduce partition (1-based over global partition ids) fails
  // after its merge work ran and is retried once, with the same retry
  // bookkeeping as the map side.
  int fail_every_nth_reduce_task = 0;

  // --- node-crash fault injection (§III-E) ---
  // Whole-node crash events on the simulated clock, relative to job start.
  // A crashed node loses its intermediate store and unsent map output; the
  // job re-executes its splits on survivors and reassigns its reduce
  // partitions. restart_time < 0 = no restart (a restarted node comes back
  // EMPTY and only serves as DFS placement target). A crash that has not
  // fired when the job's last node finishes is cancelled with its restart:
  // it never fires. A restart whose crash fired still runs after the job.
  // Any crash event arms the job's durable-output ledger.
  struct CrashEvent {
    int node = -1;
    double time = 0;          // seconds after job start
    double restart_time = -1; // seconds after job start; < 0 = none
  };
  std::vector<CrashEvent> crash_events;
  // Straggler speculation: clone the lowest-indexed in-flight split onto an
  // idle node once no fresh work remains; first finisher commits, the
  // loser's duplicate output is dropped by the dedup layer.
  bool speculate = false;
  // Set by core::JobDag (>= 0 = this job is round N of a multi-round DAG):
  // the tracer is not cleared between rounds (the trace covers the whole
  // DAG, with one kRound span per executed job), nodes dead at job start
  // are tolerated, and input data loss is survivable — lost splits are
  // skipped and counted in JobStats::input_splits_lost so the DAG driver
  // can rewind to the last round whose inputs still exist. Single jobs
  // (-1) keep the legacy behavior: data loss is fatal.
  int dag_round = -1;
};

// Per-stage busy times measured by the pipeline instrumentation; the basis
// of Tables II/III and Figures 4/5.
struct StageBreakdown {
  double input = 0;
  double stage = 0;
  double kernel = 0;
  double retrieve = 0;
  double partition = 0;
  double map_elapsed = 0;
  double merge_delay = 0;
  double reduce_input = 0;
  double reduce_stage = 0;
  double reduce_kernel = 0;
  double reduce_retrieve = 0;
  double reduce_output = 0;
  double reduce_elapsed = 0;
};

struct JobStats {
  std::uint64_t map_task_retries = 0;
  std::uint64_t reduce_task_retries = 0;
  // --- node-crash recovery (§III-E) ---
  std::uint64_t tasks_reexecuted = 0;      // lost splits re-run on survivors
  std::uint64_t partitions_reassigned = 0; // reduce partitions moved off dead nodes
  std::uint64_t blocks_rereplicated = 0;   // DFS background copies completed
  std::uint64_t dfs_replicas_lost = 0;     // block replicas dropped at crashes
  std::uint64_t recovery_rounds = 0;       // map-recovery rounds executed
  std::uint64_t duplicate_runs_dropped = 0;  // dedup hits from re-execution
  std::uint64_t speculative_wins = 0;      // clones that committed first
  std::uint64_t speculative_losses = 0;    // clones beaten by the original
  // Input splits whose data vanished mid-job (every replica / pinned host
  // dead). Only possible in DAG rounds (JobConfig::dag_round >= 0), where
  // the driver reacts by rewinding; always 0 for single jobs.
  std::uint64_t input_splits_lost = 0;
  std::uint64_t input_records = 0;
  std::uint64_t intermediate_pairs = 0;
  std::uint64_t intermediate_bytes = 0;   // serialized, pre-compression
  std::uint64_t intermediate_stored = 0;  // after compression
  std::uint64_t output_pairs = 0;
  std::uint64_t shuffle_bytes_remote = 0;
  // Remote network traffic this job put on the wire, split by transport
  // class (net::TrafficClass): intermediate-data shuffle, DFS block
  // traffic (output writes, remote reads, replication), and protocol
  // control frames (EOS markers).
  std::uint64_t net_shuffle_bytes = 0;
  std::uint64_t net_dfs_bytes = 0;
  std::uint64_t net_control_bytes = 0;
  // Intra-rack bytes feeding rack aggregators (TrafficClass::kRackAgg);
  // never crosses the core switch.
  std::uint64_t net_rack_agg_bytes = 0;
  // --- hierarchical combining ---
  std::uint64_t combine_in_bytes = 0;   // stored bytes entering combine passes
  std::uint64_t combine_out_bytes = 0;  // stored bytes leaving combine passes
  std::uint64_t spills = 0;
  std::uint64_t merges = 0;
  // --- memory governor (external shuffle/sort) ---
  std::uint64_t spill_bytes = 0;       // stored bytes written by spills
  std::uint64_t merge_levels = 0;      // deepest multi-level merge tree
  std::uint64_t peak_mem_bytes = 0;    // max governor occupancy on any node
  double mem_stall_seconds = 0;        // time blocked on memory pools (sum)
  // Input runs consumed across all intermediate-store merges; divided by
  // `merges` this gives the average merge fan-in.
  std::uint64_t merge_fanin_runs = 0;
  // Collector hash-table probes during map (0 in shared-pool mode).
  std::uint64_t hash_table_probes = 0;
  cl::KernelStats map_kernel;
  cl::KernelStats reduce_kernel;
};

struct JobResult {
  double elapsed_seconds = 0;
  double map_phase_seconds = 0;
  double merge_delay_seconds = 0;
  double reduce_phase_seconds = 0;
  StageBreakdown stages;  // aggregated across nodes (max busy time per stage)
  JobStats stats;
  std::vector<std::string> output_files;
  // The job asked for combining but the runtime had to weaken or disable it
  // (shared per-node governor, preemptable run, degraded cluster, ...).
  bool combine_degraded = false;
  // The run wound down early at a task boundary after a preemption request;
  // output_files/stats cover only the work done so far and the remainder
  // was captured into the job's PreemptControl::state.
  bool suspended = false;
};

}  // namespace gw::core

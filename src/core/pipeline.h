// The Glasswing 5-stage map and reduce pipelines (paper §III-A, §III-C).
//
// Map:    Input -> Stage -> Kernel -> Retrieve -> Partition
// Reduce: Input(merge) -> Stage -> Kernel -> Retrieve -> Output
//
// Stages are sim coroutines linked by channels. Data buffers come from two
// pools — the input group (Input/Stage/Kernel) and the output group
// (Kernel/Retrieve/Partition|Output) — each sized by the configured
// buffering level, which reproduces the single/double/triple-buffering
// interlocking of §III-D: with one buffer the stages of a group serialize,
// with more they overlap, and the two groups always run concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/collector.h"
#include "core/intermediate.h"
#include "gwcl/device.h"
#include "gwdfs/fs.h"
#include "simnet/transport.h"

namespace gw::core {

struct InputSplit {
  InputSplit() = default;
  InputSplit(std::string path_in, std::uint64_t offset_in, std::uint64_t len_in)
      : path(std::move(path_in)), offset(offset_in), len(len_in) {}

  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::vector<int> locations;  // nodes hosting the first block
  int index = -1;              // job-wide split number
  int attempt = 0;             // re-execution count (fault tolerance)
};

// Locality-aware dynamic split dispenser (the Glasswing job coordinator
// "considers file affinity in its job allocation", §IV-A). Single shared
// instance; nodes pull splits one at a time, preferring local blocks.
//
// For fault tolerance (§III-E) the scheduler also tracks per-split execution
// state: which node is running a split, which node committed its durable
// map output first, and which splits were lost to a node crash and await
// re-execution. Commit is first-finisher-wins, so speculative clones and
// zombie completions never double-count.
class SplitScheduler {
 public:
  explicit SplitScheduler(std::vector<InputSplit> splits);

  std::optional<InputSplit> next_for(int node);

  // Task re-execution (§III-E): a failed task's input is rescheduled. The
  // requeued split is handed out (to any node) before fresh splits.
  void requeue(InputSplit split);

  std::size_t remaining() const { return remaining_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t local_grabs() const { return local_grabs_; }
  std::uint64_t remote_grabs() const { return remote_grabs_; }

  // --- node-crash recovery & straggler speculation (§III-E) ---
  // Records that `node` made split `index`'s map output durable. The first
  // committer wins; returns false for any later finisher (a speculative
  // loser). Zombie completions on crashed nodes must not commit.
  bool commit(int index, int node);
  // A node died: splits it was running or had committed return to the lost
  // pool for re-execution (their durable output died with it). A split
  // whose live speculative clone is still running is promoted, not lost.
  void on_crash(int node);
  bool has_lost() const { return !lost_.empty(); }
  // Recovery-round handout of a lost split, lowest index first (locality is
  // moot for regenerated work). Bumps the attempt counter.
  std::optional<InputSplit> next_lost(int node);
  // Straggler speculation: clones the lowest-indexed in-flight split that
  // has no clone yet and is not running on `node`. Only meaningful once
  // next_for is exhausted (the caller's idle condition).
  std::optional<InputSplit> next_speculative(int node);
  std::uint64_t reexecutions() const { return reexecutions_; }
  std::uint64_t speculative_clones() const { return clones_; }
  std::uint64_t speculative_wins() const { return spec_wins_; }
  std::uint64_t speculative_losses() const { return spec_losses_; }

  // --- checkpoint-based preemption (core::Scheduler) ---
  // Re-applies a commit recorded by a previous (suspended) residency:
  // marks the split taken and durable on `node` so next_for never hands it
  // out again. Split indices are stable across runs (make_splits is
  // deterministic for a given config).
  void restore_commit(int index, int node);
  // All (index, committer) pairs durable so far, index-ascending — the
  // map-side progress a suspending job checkpoints.
  std::vector<std::pair<int, int>> committed_splits() const;

  // Enumerates block-aligned, record-aligned-later splits of the inputs.
  static std::vector<InputSplit> make_splits(const dfs::FileSystem& fs,
                                             const std::vector<std::string>& paths,
                                             std::uint64_t split_size);

 private:
  // Per-split execution record; indices match splits_.
  struct TaskState {
    int runner = -1;        // node of the latest primary handout
    int clone = -1;         // speculative runner, -1 = none
    int committed_by = -1;  // first committer, -1 = not durable yet
    int attempts = 0;       // handouts beyond the first
  };

  std::vector<InputSplit> splits_;
  std::vector<bool> taken_;
  std::vector<InputSplit> requeued_;
  std::vector<TaskState> state_;
  std::vector<int> lost_;  // split indices awaiting re-execution (sorted)
  std::size_t remaining_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t local_grabs_ = 0;
  std::uint64_t remote_grabs_ = 0;
  std::uint64_t reexecutions_ = 0;
  std::uint64_t clones_ = 0;
  std::uint64_t spec_wins_ = 0;
  std::uint64_t spec_losses_ = 0;
};

// Host-side record of the map runs a node made durable: for every produced
// run, a copy keyed by global partition and dedup tag. When a reduce
// partition is reassigned off a crashed node, survivors re-send their
// recorded runs for it from local disk instead of re-running the map tasks
// that produced them; a resumed residency re-feeds it the same way. The
// job arms it only when it can be needed — when a crash can reach the job
// (its own crash_events, or another tenant's via JobEnv::expect_crashes)
// or when the job can be suspended (JobEnv::preempt) — because the copies
// cost host memory on every run.
struct MapOutputLedger {
  std::map<int, std::vector<std::pair<std::uint64_t, Run>>> runs;

  void record(int g, std::uint64_t tag, const Run& run) {
    runs[g].emplace_back(tag, run);
  }
};

// Durable remainder of a suspended (preempted) job, captured at suspension
// and replayed by the next residency. Nothing here is a new persistence
// format: the ledgers are the PR-5 MapOutputLedger (host-side provenance of
// runs whose bytes live on each node's local disk), committed splits are
// stable job-wide split indices (make_splits is deterministic), and reduced
// partitions are implied by their committed output files on the DFS.
struct ResumeState {
  std::map<int, int> committed_splits;    // split index -> node that holds it
  std::vector<MapOutputLedger> ledgers;   // per node; re-fed on resume
  std::vector<std::string> output_files;  // partitions reduced pre-suspension
  JobStats stats;                         // counters accumulated pre-suspension
  double elapsed_s = 0;                   // residency time before suspension
};

// Scheduler<->job preemption handshake. The scheduler sets `requested`; the
// running job observes it at task boundaries (split dispatch, per-partition
// reduce), winds down cleanly, captures its ResumeState and sets
// `suspended`. The scheduler then requeues the job and clears the flags
// before the next residency; `preemptions > 0` marks a resumed run.
struct PreemptControl {
  bool requested = false;
  bool suspended = false;
  int preemptions = 0;  // completed suspensions so far
  ResumeState state;    // valid iff preemptions > 0
};

class NodeCombiner;  // hierarchical combining (combine.h)

// Everything a per-node pipeline needs.
struct NodeContext {
  cluster::Platform* platform = nullptr;
  cluster::Node* node = nullptr;
  dfs::FileSystem* fs = nullptr;
  cl::Device* device = nullptr;
  IntermediateStore* store = nullptr;
  // The node's memory governor; never null in a running job (budget 0 =
  // unbounded pools).
  MemoryGovernor* mem = nullptr;
  const JobConfig* config = nullptr;
  const AppKernels* app = nullptr;
  int node_id = 0;
  int num_nodes = 1;
  int total_partitions = 1;
  // The job's port window and trace-name prefix (JobEnv).
  int port_base = net::kPortJobStride;
  std::string_view trace_scope;
  // Map-tier hierarchical combiner; null = legacy direct push shuffle.
  // Remote-destined partition runs route through it instead of being sent
  // individually (local runs still go straight to the store). Always null
  // during recovery rounds: replayed provenance stays uncombined.
  NodeCombiner* combiner = nullptr;

  // --- multi-tenant slot gates (core::Scheduler) ---
  // Per-node counted slot pools shared by every resident job; node_main
  // acquires one around its map / reduce phase so concurrent jobs time-share
  // the node instead of all running at once. Null = ungated (legacy
  // single-job path: zero extra awaits, byte-identical event order).
  sim::Resource* map_slot = nullptr;
  sim::Resource* reduce_slot = nullptr;
  // Elastic mode: the slot pools above are per-job and scheduler-resized,
  // and they gate individual tasks (one split / one reduce partition per
  // slot) instead of whole phases.
  bool elastic_slots = false;

  // --- checkpoint-based preemption (core::Scheduler) ---
  // Non-null = the job may be asked to suspend; the map pipeline stops
  // dispensing fresh splits and the reduce loop stops at the next partition
  // boundary once `preempt->requested` is set.
  const PreemptControl* preempt = nullptr;
  // Non-null on a resumed residency: this node's durable runs from the
  // previous residency, re-fed into the (fresh) stores before fresh map
  // work completes, exactly like a PR-5 recovery-round ledger replay.
  const MapOutputLedger* resume_ledger = nullptr;

  bool preempt_requested() const {
    return preempt != nullptr && preempt->requested;
  }

  // --- fault tolerance (§III-E) ---
  // Global partition -> owning node; reassigned away from crashed nodes.
  const std::vector<int>* partition_owner = nullptr;
  int shuffle_port = net::kPortJobStride + net::kPortShuffle;
  bool recovery = false;  // map pipeline re-executes lost splits this round
  MapOutputLedger* ledger = nullptr;  // null = ledger not armed
  // Nodes that ever crashed, even if later restarted. A restarted node is
  // alive again for the Simulation/transport but never rejoins the job, so
  // every "should I keep doing job work / may I commit" check must consult
  // this set and not just Simulation::node_alive (which flips back to true
  // at restart and would resurrect zombie pipelines).
  const std::set<int>* failed_nodes = nullptr;

  int owner_of(int g) const {
    return (*partition_owner)[static_cast<std::size_t>(g)];
  }

  // Job-scoped trace name ("map" -> "j3.map" under a scope).
  std::string scoped(std::string_view name) const {
    return std::string(trace_scope).append(name);
  }

  bool self_live() const {
    return sim().node_alive(node_id) && failed_nodes->count(node_id) == 0;
  }

  sim::Simulation& sim() const { return platform->sim(); }
};

// The one shuffle frame: u32 global partition id | serialized run, built
// in the run's own buffer (Run::take_serialized).
// Spawns the frame's transport send to (dst, port) under traffic class
// `tc` into `sends`, and returns the frame's wire bytes. `tags` — the
// dedup tags of the run's producers — ride out-of-band on the delivered
// net::Message, so they cost no wire bytes. The send tolerates a node crash
// racing the transfer (Transport::send_or_drop): recovery regenerates or
// re-sends the data if it mattered. A node the job counts as failed sends
// nothing, even once restarted. Callers that keep the run pass a copy.
std::uint64_t send_run(const NodeContext& ctx, sim::TaskGroup& sends, int dst,
                       int port, net::TrafficClass tc, int g, Run run,
                       std::vector<std::uint64_t> tags);

// Receiving side of send_run: the frame's global partition id, and the
// frame adopted as its run (Run::adopt_serialized).
int shuffle_frame_partition(const util::Bytes& frame);
Run adopt_shuffle_frame(util::Bytes frame);

// The map Partition stage's per-chunk work, split the way the partition
// worker runs it, over storage reused across chunks. assign() runs on the
// event loop and finds what the simulated charge needs: each pair's
// partition, and each partition's pair count and framed bytes.
// build_runs() runs in the offloaded job: it groups the pair indices by
// partition with a counting sort and builds each live partition's run
// (stably key-sorted, compressed) straight from the chunk's pairs, in
// parallel over partitions. reset() readies the scratch for the next chunk
// once build_runs returned.
class PartitionScratch {
 public:
  explicit PartitionScratch(std::uint32_t partitions);

  void assign(const PairList& pairs, const PartitionFn& partition);
  // Partitions with pairs, ascending, and their framed pair bytes.
  const std::vector<std::uint32_t>& live() const { return live_; }
  std::uint64_t bytes(std::uint32_t g) const { return bytes_[g]; }

  // One run per live partition, in live() order.
  std::vector<std::pair<std::uint32_t, Run>> build_runs(const PairList& pairs);
  void reset();

 private:
  std::vector<std::uint32_t> part_of_;  // per pair: its partition
  std::vector<std::uint32_t> count_;    // per partition: pairs this chunk
  std::vector<std::uint64_t> bytes_;    // per partition: framed pair bytes
  std::vector<std::uint32_t> live_;
  // build_runs: live partition j's pairs are order_[begin_[j], begin_[j+1]).
  std::vector<std::uint32_t> next_;  // per partition: counting-sort cursor
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> order_;
};

// Counters only; stage busy times and phase boundaries live in the trace
// (sim.tracer()), reduced via trace::Tracer::occupancy.
struct MapMetrics {
  std::uint64_t task_failures = 0;
  cl::KernelStats kernel_stats;
  std::uint64_t records = 0;
  std::uint64_t pairs = 0;
  std::uint64_t intermediate_raw = 0;
  std::uint64_t intermediate_stored = 0;
  std::uint64_t shuffle_bytes_remote = 0;
  std::uint64_t distinct_keys = 0;
  // Hash-table collector probe count (0 in shared-pool mode).
  std::uint64_t hash_probes = 0;
  // Splits skipped because their data vanished (DAG rounds only).
  std::uint64_t input_splits_lost = 0;
};

// Runs the complete map pipeline on one node, feeding the local store and
// pushing remote partitions over the fabric. Completes when every split
// assigned to this node has been partitioned AND all shuffle sends have
// been handed to the network.
sim::Task<> run_map_phase(NodeContext ctx, SplitScheduler& scheduler,
                          MapMetrics& metrics);

struct ReduceMetrics {
  std::uint64_t task_failures = 0;  // injected reduce-task failures
  cl::KernelStats kernel_stats;
  std::uint64_t output_pairs = 0;
  std::vector<std::string> output_files;
};

// Output file for global partition `g` under the job's output path.
std::string partition_output_path(const JobConfig& config, int g);

// Runs the reduce pipeline over the given global partitions (drained
// store). Jobs without a reduce function (TeraSort) merge and write
// directly. In a failure-free job the list is the node's statically owned
// ids; after a crash it is whatever the (reassigned) owner map says.
sim::Task<> run_reduce_phase(NodeContext ctx, std::vector<int> partitions,
                             ReduceMetrics& metrics);

// Output files are uncompressed Runs wrapped with Run::serialize; helper to
// read one back as pairs (used by tests, benches and examples).
std::vector<std::pair<std::string, std::string>> read_output_file(
    const util::Bytes& file_contents);

// Record splitter framing a serialized reduce-output Run into one record
// per encoded pair, so a round's output files can feed the next round's
// map input directly (DAG data edges). Each record is a complete framed
// pair (varint klen, varint vlen, key, value) decodable with
// decode_pair_record. Only valid when every input file is a single split
// — the Run header sits at offset 0 — so rounds consuming reduce output
// must set split_size >= the largest input file.
RecordSplitFn run_output_record_splitter();
std::pair<std::string_view, std::string_view> decode_pair_record(
    std::string_view record);

// Split input helpers shared with the baseline runtimes (identical record
// framing keeps the comparisons apples-to-apples).
//
// Reads a split aligned to record boundaries: fixed-size records round to
// record multiples; text lines belong to the split containing their first
// byte (standard MapReduce semantics).
sim::Task<util::Bytes> read_aligned_split(dfs::FileSystem& fs, int node,
                                          const AppKernels& app,
                                          const InputSplit& split);

// Record start offsets within an aligned chunk.
std::vector<std::uint64_t> frame_records(const AppKernels& app,
                                         std::string_view chunk);

}  // namespace gw::core

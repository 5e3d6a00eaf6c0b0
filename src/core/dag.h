// Multi-round job DAG runtime.
//
// A JobDag chains map→shuffle→reduce jobs ("rounds") the way the Goodrich
// MRC model chains MapReduce rounds: each round's reduce output feeds the
// next round's map input over a typed edge. A kCheckpoint edge
// materializes the output to the base filesystem (full DFS write cost,
// survives crashes, bounds recovery to the crashed round); a kPinned edge
// keeps it in the producing node's memory through the PinnedFs overlay
// (free round trip, but a host crash loses it and forces the driver to
// rewind to the newest round whose inputs still exist). A small broadcast
// channel carries per-round driver state (centroids, splitters, scan
// offsets) to every node between rounds, charged as control traffic.
//
// Static chains are built with add_round(); fixed-point loops repeat the
// last round with until(pred, max_iterations), evaluating the predicate on
// the driver after each iteration — deterministic, since round outputs and
// broadcast payloads are byte-stable across thread counts and replays.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/job.h"
#include "gwdfs/pinned.h"

namespace gw::core {

enum class EdgeKind {
  kCheckpoint = 0,  // materialize round output to the base fs
  kPinned,          // keep round output pinned in node memory
};

// Driver-visible state entering a round.
struct DagRoundState {
  int round = 0;      // logical round index, 0-based
  int iteration = 0;  // loop iteration of the repeating spec (else 0)
  util::Bytes broadcast;  // last broadcast payload (initial_broadcast at 0)
  std::vector<std::string> prev_outputs;  // previous round's output files
};

using RoundPairs = std::vector<std::pair<std::string, std::string>>;

struct RoundSpec {
  // Names the round's default output directory: <output_root>/<name>-<i>.
  std::string name;
  // Builds the round's kernels from the entry state (e.g. bakes the
  // broadcast centroids into the map closure). Required.
  std::function<AppKernels(const DagRoundState&)> app;
  // Map input paths; default: the DAG inputs for round 0, the previous
  // round's output files afterwards.
  std::function<std::vector<std::string>(const DagRoundState&)> inputs;
  // How THIS round's reduce output is stored for the next round.
  EdgeKind edge = EdgeKind::kCheckpoint;
  // Distills the round's output pairs (driver readback, files in sorted
  // order) into the next broadcast payload. Null: the payload carries over.
  std::function<util::Bytes(const DagRoundState&, const RoundPairs&)>
      broadcast;
  // Last-word hook over the round's JobConfig (output path, split size...).
  std::function<void(JobConfig&, const DagRoundState&)> tune;
};

// `iterations_done` counts completed iterations of the looping round;
// `broadcast`/`pairs` are that iteration's payload and output pairs.
using ConvergedFn = std::function<bool(
    int iterations_done, const util::Bytes& broadcast, const RoundPairs&
    pairs)>;

struct DagConfig {
  std::vector<std::string> input_paths;  // round-0 (and re-read) inputs
  std::string output_root;               // base for default round outputs
  JobConfig base;  // per-round template; input/output paths are overridden
  util::Bytes initial_broadcast;  // round 0's DagRoundState::broadcast
  // Cache input reads of base-fs files in pinned memory (re-read rounds
  // pay the DFS read once).
  bool pin_inputs = false;
  // Per-node cap on pinned + cached bytes. 0 = derive the memory
  // governor's store share (40%) from base.node_memory_bytes, or
  // unlimited for ungoverned jobs.
  std::uint64_t pin_budget_bytes = 0;
  // Crash injected while logical round `round` executes (fires once; a
  // replay of the round runs crash-free).
  struct RoundCrash {
    int round = 0;
    JobConfig::CrashEvent event;
  };
  std::vector<RoundCrash> round_crashes;
  // Crash injected on the edge after logical round `after_round` commits,
  // before the next round starts (fires once).
  struct EdgeCrash {
    int after_round = 0;
    int node = -1;
    double restart_after_s = -1;  // < 0 = stays down
  };
  std::vector<EdgeCrash> edge_crashes;
  // Checkpoint-based preemption hook. When set and `preempt->requested`
  // goes true, run() returns at the next inter-round boundary with
  // DagResult::suspended — every completed round's edge is already
  // materialized (checkpointed or pinned), so nothing extra is persisted.
  // Calling run() again resumes from the boundary; completed rounds are
  // never re-executed.
  PreemptControl* preempt = nullptr;
};

struct DagRoundResult {
  std::string name;
  int round = 0;
  int iteration = 0;
  EdgeKind edge = EdgeKind::kCheckpoint;
  JobResult job;
  std::vector<std::string> outputs;
};

struct DagResult {
  // The final successful execution, in round order (replayed rounds appear
  // once, with their last run's result).
  std::vector<DagRoundResult> rounds;
  std::vector<std::string> final_outputs;  // last round's output files
  util::Bytes final_broadcast;
  int rounds_executed = 0;  // job runs including replays
  int replays = 0;          // rewinds after pinned-intermediate loss
  int iterations = 0;       // completed iterations of the looping round
  bool suspended = false;   // stopped at an inter-round preemption point
  int suspensions = 0;      // inter-round preemption stops so far
  std::uint64_t pinned_peak_bytes = 0;
  std::uint64_t pin_spills = 0;
  std::uint64_t cache_hit_bytes = 0;
  double elapsed_seconds = 0;  // simulated wall time of the whole DAG
};

class JobDag {
 public:
  JobDag(GlasswingRuntime& runtime, cluster::Platform& platform,
         dfs::FileSystem& fs, DagConfig config);

  void add_round(RoundSpec spec);
  // Repeats the LAST added round until `converged` (nullable: count-only
  // loop) returns true or `max_iterations` complete.
  void until(ConvergedFn converged, int max_iterations);

  // Runs rounds to completion — or, with config.preempt set, to the next
  // requested inter-round suspension (result.suspended). Call again to
  // resume; loop/round state persists in the JobDag across calls.
  DagResult run();

  dfs::PinnedFs& pinned_fs() { return *pinned_; }

 private:
  // Bookkeeping for rewinds: everything needed to re-enter a round.
  struct Done {
    int spec = 0;
    int iteration = 0;
    DagRoundState entry;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
  };

  bool inputs_available(const std::vector<std::string>& paths) const;
  RoundPairs read_pairs(const std::vector<std::string>& files);
  void broadcast_payload(std::uint64_t bytes);
  void fire_edge_crashes(int round, std::vector<bool>& used);
  // Rolls state back to the newest round whose inputs still exist,
  // deleting the rolled-back rounds' outputs (the failed round's partial
  // outputs included). Updates st/spec_i/iter in place.
  void rewind(std::vector<Done>& done, DagResult& out, DagRoundState& st,
              int& spec_i, int& iter,
              const std::vector<std::string>& failed_inputs,
              const std::vector<std::string>& failed_outputs);

  GlasswingRuntime& runtime_;
  cluster::Platform& platform_;
  DagConfig config_;
  std::unique_ptr<dfs::PinnedFs> pinned_;
  std::vector<RoundSpec> specs_;
  bool loop_ = false;
  ConvergedFn converged_;
  int max_iterations_ = 0;

  // Cross-call round state so a suspended run() can resume where it left
  // off (completed rounds are durable through their edges; only the loop
  // cursor lives here).
  bool started_ = false;
  bool suspended_ = false;
  DagResult out_;
  std::vector<Done> done_;
  std::vector<bool> round_used_;
  std::vector<bool> edge_used_;
  DagRoundState st_;
  int spec_i_ = 0;
  int iter_ = 0;
};

}  // namespace gw::core

// Multi-round DAG runtime tests: the Goodrich-style prefix-sums chain and
// the two-round sample-sort TeraSort against direct references, byte
// identity across edge kinds (checkpoint vs pinned) and GW_THREADS, the
// crash matrix {round-0 map, inter-round edge, last-round reduce} with
// recovery scoped to the crashed round when edges are checkpointed, pin
// budget spill-through, a node crash inside a k-means iteration, and the
// fixed-point loop predicate.
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/kmeans.h"
#include "apps/prefixsum.h"
#include "apps/terasort.h"
#include "core/dag.h"
#include "core/job.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace gw::apps {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

constexpr int kNodes = 4;

Platform make_platform(int nodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(),
      net::NetworkProfile::qdr_infiniband_ipoib()));
}

void write_file(Platform& p, dfs::FileSystem& fs, const std::string& path,
                util::Bytes contents) {
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   util::Bytes c) -> sim::Task<> {
    co_await f.write(0, pa, std::move(c));
  }(fs, path, std::move(contents)));
  p.sim().run();
}

util::Bytes read_file(Platform& p, dfs::FileSystem& fs,
                      const std::string& path) {
  util::Bytes out;
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   util::Bytes* o) -> sim::Task<> {
    *o = co_await f.read_all(f.block_locations(pa, 0).front(), pa);
  }(fs, path, &out));
  p.sim().run();
  return out;
}

// Count of closed "round" spans in the exported trace (occupancy resets
// between rounds, so the accumulator only sees the last one; the event
// ring keeps them all).
std::size_t round_spans(const trace::Tracer& tr) {
  const std::string json = tr.chrome_json();
  const std::string needle = "\"name\":\"round\",\"cat\":\"round\"";
  std::size_t count = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++count;
  }
  return count / 2;  // begin + end per span
}

// The global partition id is the part-%05d suffix; owners are assigned in
// partitions_per_node-sized stripes (job.cc).
int output_owner(const std::string& path, int partitions_per_node) {
  const std::size_t dash = path.rfind("part-");
  EXPECT_NE(dash, std::string::npos) << path;
  return std::stoi(path.substr(dash + 5)) / partitions_per_node;
}

struct PrefixOutcome {
  core::DagResult dag;
  util::Bytes records;        // decoded (index, sum) records, file order
  util::Bytes raw;            // concatenated raw output-file bytes
  std::string trace_error;
  std::size_t rounds_traced = 0;
  std::uint64_t dfs_bytes = 0;  // sum of per-round net_dfs_bytes
};

PrefixOutcome run_prefix(
    const util::Bytes& input, core::EdgeKind edge, bool pin_inputs,
    std::function<void(core::DagConfig&)> tweak = nullptr) {
  Platform p = make_platform(kNodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/prefix", input);

  core::DagConfig dc;
  dc.input_paths = {"/in/prefix"};
  dc.output_root = "/out/prefix";
  dc.base.split_size = 32 << 10;
  dc.pin_inputs = pin_inputs;
  if (tweak) tweak(dc);

  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  PrefixOutcome out;
  out.dag = prefix_sums_dag(rt, p, fs, std::move(dc),
                            PrefixSumConfig{.block_records = 1024}, edge,
                            edge);
  out.trace_error = p.sim().tracer().validate();
  out.rounds_traced = round_spans(p.sim().tracer());
  for (const auto& r : out.dag.rounds) {
    out.dfs_bytes += r.job.stats.net_dfs_bytes;
  }
  std::string records;
  for (const auto& path : out.dag.final_outputs) {
    const util::Bytes bytes = read_file(p, fs, path);
    out.raw.insert(out.raw.end(), bytes.begin(), bytes.end());
    for (const auto& [k, v] : core::read_output_file(bytes)) {
      records.append(k);
      records.append(v);
    }
  }
  out.records = util::Bytes(records.begin(), records.end());
  return out;
}

// ---------- prefix sums: reference + clean matrix ----------

TEST(PrefixSums, ReferenceIsInclusive) {
  const util::Bytes input = generate_prefix_input(100, 3);
  const util::Bytes ref = prefix_reference(input);
  ASSERT_EQ(ref.size(), input.size());
  const std::string_view in(reinterpret_cast<const char*>(input.data()),
                            input.size());
  const std::string_view out(reinterpret_cast<const char*>(ref.data()),
                             ref.size());
  std::uint64_t running = 0;
  for (std::size_t off = 0; off < in.size(); off += kPrefixRecordSize) {
    running += get_be64(in.substr(off + 8));
    EXPECT_EQ(get_be64(out.substr(off)), get_be64(in.substr(off)));
    EXPECT_EQ(get_be64(out.substr(off + 8)), running);
  }
}

TEST(PrefixSums, DagMatchesReferenceAcrossEdgesAndThreads) {
  const util::Bytes input = generate_prefix_input(24576, 21);
  const util::Bytes expect = prefix_reference(input);

  util::Bytes reference_raw;
  std::uint64_t checkpoint_dfs = 0;
  std::uint64_t pinned_dfs = 0;
  for (const bool pinned : {false, true}) {
    const core::EdgeKind edge =
        pinned ? core::EdgeKind::kPinned : core::EdgeKind::kCheckpoint;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(pinned ? "pinned" : "checkpoint") +
                   ", GW_THREADS=" + std::to_string(threads));
      util::ThreadPool::reset_global(threads);
      const PrefixOutcome out = run_prefix(input, edge, /*pin_inputs=*/pinned);
      EXPECT_EQ(out.dag.rounds.size(), 3u);
      EXPECT_EQ(out.dag.rounds_executed, 3);
      EXPECT_EQ(out.dag.replays, 0);
      EXPECT_EQ(out.dag.rounds[0].name, "blocksum");
      EXPECT_EQ(out.dag.rounds[1].name, "scan");
      EXPECT_EQ(out.dag.rounds[2].name, "apply");
      EXPECT_EQ(out.records, expect);
      EXPECT_TRUE(out.trace_error.empty()) << out.trace_error;
      EXPECT_EQ(out.rounds_traced, 3u);
      if (reference_raw.empty()) {
        reference_raw = out.raw;
      } else {
        EXPECT_EQ(out.raw, reference_raw);
      }
      if (pinned) {
        // Rounds 0/1 never touched the DFS for their outputs, and the
        // apply round's re-read of the input hit the pinned cache.
        EXPECT_GT(out.dag.pinned_peak_bytes, 0u);
        EXPECT_GT(out.dag.cache_hit_bytes, 0u);
        pinned_dfs = out.dfs_bytes;
      } else {
        checkpoint_dfs = out.dfs_bytes;
      }
      EXPECT_EQ(out.dag.pin_spills, 0u);
    }
  }
  util::ThreadPool::reset_global(0);
  EXPECT_LT(pinned_dfs, checkpoint_dfs);
}

// ---------- TeraSort as a two-round sample-sort DAG ----------

TEST(TerasortDag, GloballySortedAndComplete) {
  constexpr std::uint64_t kRecords = 20000;
  const util::Bytes input = generate_terasort(kRecords, 42);
  const std::uint64_t checksum_in = terasort_checksum(input);

  Platform p = make_platform(kNodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/tera", input);

  core::DagConfig dc;
  dc.input_paths = {"/in/tera"};
  dc.output_root = "/out/tera";
  dc.base.split_size = 256 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  const core::DagResult dr =
      terasort_dag(rt, p, fs, std::move(dc), core::EdgeKind::kPinned);

  EXPECT_EQ(dr.rounds.size(), 2u);
  EXPECT_EQ(dr.rounds_executed, 2);
  EXPECT_EQ(dr.replays, 0);
  EXPECT_EQ(round_spans(p.sim().tracer()), 2u);

  // Concatenating the partition files in index order must yield the full
  // input, globally sorted.
  std::uint64_t total = 0;
  std::uint64_t checksum_out = 0;
  std::string prev_key;
  for (const auto& path : dr.final_outputs) {
    for (const auto& [k, v] : core::read_output_file(read_file(p, fs, path))) {
      ASSERT_EQ(k.size(), kTeraKeySize);
      ASSERT_EQ(v.size(), kTeraRecordSize - kTeraKeySize);
      EXPECT_LE(prev_key, k);
      prev_key = k;
      const std::string rec = k + v;
      checksum_out ^= util::fnv1a(rec.data(), rec.size());
      ++total;
    }
  }
  EXPECT_EQ(total, kRecords);
  EXPECT_EQ(checksum_out, checksum_in);
}

// ---------- crash matrix ----------

enum class CrashSite { kRound0Map, kEdgeAfterRound0, kLastRoundReduce };

TEST(DagCrash, MatrixByteIdenticalAcrossEdgesAndThreads) {
  const util::Bytes input = generate_prefix_input(24576, 33);
  const util::Bytes expect = prefix_reference(input);

  for (const bool pinned : {false, true}) {
    const core::EdgeKind edge =
        pinned ? core::EdgeKind::kPinned : core::EdgeKind::kCheckpoint;
    // Crash instants come from a clean run of the same mode: phase
    // durations are deterministic, so "half way into round-0's map" is a
    // stable point on the simulated clock for every thread count.
    util::ThreadPool::reset_global(1);
    const PrefixOutcome clean = run_prefix(input, edge, /*pin_inputs=*/false);
    ASSERT_EQ(clean.records, expect);
    const double round0_map_mid =
        0.5 * clean.dag.rounds[0].job.map_phase_seconds;
    const auto& last = clean.dag.rounds[2].job;
    const double last_reduce_mid = last.map_phase_seconds +
                                   last.merge_delay_seconds +
                                   0.5 * last.reduce_phase_seconds;
    // A node that provably holds round-0 output (and, when pinned, loses
    // it on crash): the owner of the first blocksum partition file.
    const int victim =
        output_owner(clean.dag.rounds[0].outputs.front(), 8);

    for (const int threads : {1, 2, 8}) {
      for (const CrashSite site :
           {CrashSite::kRound0Map, CrashSite::kEdgeAfterRound0,
            CrashSite::kLastRoundReduce}) {
        SCOPED_TRACE(std::string(pinned ? "pinned" : "checkpoint") +
                     ", GW_THREADS=" + std::to_string(threads) + ", site=" +
                     std::to_string(static_cast<int>(site)));
        util::ThreadPool::reset_global(threads);
        auto inject = [&](core::DagConfig& dc) {
          switch (site) {
            case CrashSite::kRound0Map:
              dc.round_crashes.push_back(
                  {0, {.node = victim, .time = round0_map_mid}});
              break;
            case CrashSite::kEdgeAfterRound0:
              dc.edge_crashes.push_back({.after_round = 0, .node = victim});
              break;
            case CrashSite::kLastRoundReduce:
              dc.round_crashes.push_back(
                  {2, {.node = victim, .time = last_reduce_mid}});
              break;
          }
        };
        const PrefixOutcome out =
            run_prefix(input, edge, /*pin_inputs=*/false, inject);
        EXPECT_EQ(out.records, expect);
        EXPECT_EQ(out.raw, clean.raw);
        EXPECT_EQ(out.dag.rounds.size(), 3u);
        EXPECT_TRUE(out.trace_error.empty()) << out.trace_error;
        if (pinned && site == CrashSite::kEdgeAfterRound0) {
          // The victim's pinned round-0 partitions are gone: the driver
          // must rewind and replay round 0 on the survivors.
          EXPECT_EQ(out.dag.replays, 1);
          EXPECT_EQ(out.dag.rounds_executed, 4);
        } else {
          // Checkpointed edges (or a crash that predates any pinned
          // output) keep recovery inside the crashed round: no replays,
          // no round-0 re-execution.
          EXPECT_EQ(out.dag.replays, 0);
          EXPECT_EQ(out.dag.rounds_executed, 3);
        }
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

// ---------- k-means crash ----------

// Node 2 dies 1 ms into k-means iteration 1 of 3. Recovery must count
// every point exactly once in every iteration and reach the failure-free
// run's final centers, to float summation order.
TEST(KmeansDagCrash, NodeKilledInRoundOneMatchesClean) {
  const KmeansConfig km{.k = 16, .dims = 4};
  constexpr std::uint64_t kPoints = 40000;
  constexpr int kIters = 3;
  const util::Bytes points = generate_points(km, kPoints, 11);
  const std::vector<float> initial = generate_centers(km, 12);

  struct Outcome {
    KmeansDagResult dr;
    std::vector<std::uint64_t> counted;  // points counted per round
  };
  auto run = [&](std::vector<core::DagConfig::RoundCrash> crashes) {
    Platform p = make_platform(kNodes);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/points", points);
    core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    core::JobConfig base;
    base.split_size = 32 << 10;
    Outcome out;
    out.dr = kmeans_dag(rt, p, fs, km, initial, "/in/points", "/out/km",
                        kIters, base, core::EdgeKind::kCheckpoint,
                        /*pin_inputs=*/false, /*pin_budget_bytes=*/0,
                        std::move(crashes));
    for (const auto& r : out.dr.dag.rounds) {
      std::uint64_t counted = 0;
      for (const auto& path : r.outputs) {
        for (const auto& [key, value] :
             core::read_output_file(read_file(p, fs, path))) {
          counted += get_be32(std::string_view(value).substr(
              static_cast<std::size_t>(km.dims) * 4));
        }
      }
      out.counted.push_back(counted);
    }
    return out;
  };

  const Outcome clean = run({});
  const Outcome crashed = run({{1, {.node = 2, .time = 1e-3}}});
  ASSERT_EQ(crashed.dr.dag.rounds.size(), static_cast<std::size_t>(kIters));
  EXPECT_GT(crashed.dr.dag.rounds[1].job.stats.tasks_reexecuted, 0u);
  EXPECT_EQ(clean.counted, std::vector<std::uint64_t>(kIters, kPoints));
  EXPECT_EQ(crashed.counted, std::vector<std::uint64_t>(kIters, kPoints));
  EXPECT_EQ(crashed.dr.iterations.counts, clean.dr.iterations.counts);
  // Recovery feeds the reduce its partial sums in another order, and the
  // reduce adds floats in arrival order: the final centers agree to
  // perfbench's 0.01 tolerance, not bit for bit.
  const std::vector<float>& want = clean.dr.iterations.centers;
  const std::vector<float>& got = crashed.dr.iterations.centers;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 0.01) << "coordinate " << i;
  }
}

// ---------- pin budget ----------

TEST(DagPinned, OverBudgetPinsSpillThroughToBaseFs) {
  const util::Bytes input = generate_prefix_input(8192, 9);
  const PrefixOutcome out = run_prefix(
      input, core::EdgeKind::kPinned, /*pin_inputs=*/false,
      [](core::DagConfig& dc) { dc.pin_budget_bytes = 1; });
  // Every pin is over budget: the files fall through to the base fs and
  // the chain still completes with the exact result.
  EXPECT_GT(out.dag.pin_spills, 0u);
  EXPECT_EQ(out.dag.replays, 0);
  EXPECT_EQ(out.records, prefix_reference(input));
}

// ---------- fixed-point loop ----------

TEST(DagLoop, ConvergencePredicateStopsEarly) {
  KmeansConfig km{.k = 8, .dims = 4};
  const auto centers = generate_centers(km, 4);
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/points", generate_points(km, 5000, 6));

  core::DagConfig dc;
  dc.input_paths = {"/in/points"};
  dc.output_root = "/out/loop";
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::JobDag dag(rt, p, fs, dc);

  core::RoundSpec round;
  round.name = "assign";
  round.app = [&](const core::DagRoundState&) {
    return kmeans(km, centers).kernels;
  };
  round.inputs = [](const core::DagRoundState&) {
    return std::vector<std::string>{"/in/points"};
  };
  dag.add_round(std::move(round));
  int calls = 0;
  dag.until(
      [&calls](int done, const util::Bytes&, const core::RoundPairs& pairs) {
        ++calls;
        EXPECT_FALSE(pairs.empty());
        return done >= 2;
      },
      /*max_iterations=*/5);

  const core::DagResult dr = dag.run();
  EXPECT_EQ(dr.iterations, 2);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(dr.rounds.size(), 2u);
  EXPECT_EQ(dr.rounds[1].iteration, 1);
}

// ---------- inter-round preemption ----------

// A preemption request lands between DAG rounds: run() returns a suspended
// partial result whose completed rounds stay durable, and a second run()
// call picks the loop up at the next round. Final outputs are byte-identical
// to the uninterrupted loop.
TEST(DagLoop, InterRoundSuspendResumeByteIdentical) {
  KmeansConfig km{.k = 8, .dims = 4};
  const auto centers = generate_centers(km, 4);
  constexpr int kIters = 3;

  struct LoopOut {
    core::DagResult dr;
    util::Bytes raw;  // concatenated final-output bytes, file order
  };
  auto run_loop = [&](core::PreemptControl* pc) {
    Platform p = make_platform(2);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/points", generate_points(km, 5000, 6));

    core::DagConfig dc;
    dc.input_paths = {"/in/points"};
    dc.output_root = "/out/loop";
    dc.preempt = pc;
    core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    core::JobDag dag(rt, p, fs, dc);

    core::RoundSpec round;
    round.name = "assign";
    round.app = [&](const core::DagRoundState&) {
      return kmeans(km, centers).kernels;
    };
    round.inputs = [](const core::DagRoundState&) {
      return std::vector<std::string>{"/in/points"};
    };
    dag.add_round(std::move(round));
    dag.until([](int, const util::Bytes&,
                 const core::RoundPairs&) { return false; },
              /*max_iterations=*/kIters);

    LoopOut out;
    if (pc != nullptr) {
      pc->requested = true;  // suspend at the first inter-round boundary
      const core::DagResult partial = dag.run();
      EXPECT_TRUE(partial.suspended);
      EXPECT_EQ(partial.suspensions, 1);
      EXPECT_EQ(partial.rounds_executed, 1);
      EXPECT_FALSE(partial.final_outputs.empty());
      out.dr = dag.run();  // resume: rounds 2..kIters
    } else {
      out.dr = dag.run();
    }
    for (const auto& path : out.dr.final_outputs) {
      const util::Bytes bytes = read_file(p, fs, path);
      out.raw.insert(out.raw.end(), bytes.begin(), bytes.end());
    }
    return out;
  };

  const LoopOut plain = run_loop(nullptr);
  EXPECT_FALSE(plain.dr.suspended);
  EXPECT_EQ(plain.dr.rounds_executed, kIters);

  core::PreemptControl pc;
  const LoopOut resumed = run_loop(&pc);
  EXPECT_FALSE(resumed.dr.suspended);
  EXPECT_EQ(resumed.dr.suspensions, 1);
  EXPECT_EQ(resumed.dr.rounds_executed, kIters);
  EXPECT_EQ(resumed.dr.replays, 0);
  EXPECT_EQ(resumed.dr.final_outputs, plain.dr.final_outputs);
  EXPECT_EQ(resumed.raw, plain.raw);
}

}  // namespace
}  // namespace gw::apps

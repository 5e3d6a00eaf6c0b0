// Fault-injection matrix (§III-E): node crashes during map, shuffle and
// reduce must leave the job output byte-identical to a failure-free run,
// with deterministic recovery statistics that do not depend on the host
// thread count (GW_THREADS). Also covers task-level injection (map retry
// with the combiner enabled, reduce retry), node restart, straggler
// speculation, crashes that land after the job or outside its crash
// exposure, and the Hadoop baseline's rejection of fault configs.
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/wordcount.h"
#include "baselines/hadoop/hadoop.h"
#include "core/job.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

constexpr int kNodes = 4;

Platform make_platform(int nodes = kNodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(),
      net::NetworkProfile::qdr_infiniband_ipoib()));
}

core::JobConfig wc_config() {
  core::JobConfig cfg;
  cfg.input_paths = {"/in"};
  cfg.output_path = "/out";
  cfg.split_size = 64 << 10;
  return cfg;
}

void stage(Platform& p, dfs::Dfs& fs, const std::string& path,
           const util::Bytes& data) {
  p.sim().spawn([](dfs::Dfs& f, std::string pa, util::Bytes c) -> sim::Task<> {
    co_await f.write_distributed(pa, std::move(c));
  }(fs, path, data));
  p.sim().run();
}

// Recovery-relevant counters that must be bit-identical across GW_THREADS.
using FaultStats =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;

FaultStats fault_stats(const core::JobStats& s) {
  return {s.tasks_reexecuted,     s.partitions_reassigned,
          s.recovery_rounds,      s.duplicate_runs_dropped,
          s.dfs_replicas_lost,    s.blocks_rereplicated,
          s.map_task_retries,     s.reduce_task_retries};
}

// Per-node recovery-span shape (count and sim-time extent) plus the set of
// span names: a cheap but strict proxy for "identical recovery event order"
// that only uses simulated-clock quantities.
struct TraceShape {
  std::uint64_t recovery_spans = 0;
  double recovery_first = 0;
  double recovery_last = 0;
  std::vector<std::string> names;
  bool operator==(const TraceShape&) const = default;
};

struct RunOutcome {
  core::JobResult result;
  std::map<std::string, util::Bytes> files;  // output path -> raw bytes
  std::string trace_error;                   // Tracer::validate()
  std::vector<TraceShape> shape;             // per node
  double job_first = 0, job_last = 0;        // job span extent (node 0)
};

template <typename Tweak>
RunOutcome run_wc(const util::Bytes& text, Tweak tweak, int nodes = kNodes) {
  Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in", text);
  core::JobConfig cfg = wc_config();
  tweak(cfg);
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  RunOutcome out;
  out.result = rt.run(apps::wordcount().kernels, cfg);
  const auto& tr = p.sim().tracer();
  out.trace_error = tr.validate();
  const auto job = tr.occupancy(0, "job");
  out.job_first = job.first_begin;
  out.job_last = job.last_end;
  for (int n = 0; n < nodes; ++n) {
    const auto rec = tr.occupancy(n, "phase.recovery");
    out.shape.push_back({rec.spans, rec.first_begin, rec.last_end,
                         tr.span_names(n)});
  }
  for (const auto& path : out.result.output_files) {
    util::Bytes contents;
    p.sim().spawn([](dfs::Dfs& f, std::string pa,
                     util::Bytes* o) -> sim::Task<> {
      *o = co_await f.read_all(f.block_locations(pa, 0).front(), pa);
    }(fs, path, &contents));
    p.sim().run();
    out.files[path] = std::move(contents);
  }
  return out;
}

RunOutcome run_wc(const util::Bytes& text) {
  return run_wc(text, [](core::JobConfig&) {});
}

util::Bytes corpus() { return apps::generate_wiki_text(384 << 10, 97); }

// ---- crash matrix: phase x GW_THREADS ----

TEST(FaultMatrix, CrashByteIdenticalAcrossPhasesAndThreadCounts) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text);
  ASSERT_FALSE(clean.files.empty());
  ASSERT_TRUE(clean.trace_error.empty()) << clean.trace_error;

  // Phase midpoints from the failure-free run (sim clock, relative to job
  // start) so the matrix stays valid if the cost model shifts.
  const double map_end = clean.result.map_phase_seconds;
  const double merge_end = map_end + clean.result.merge_delay_seconds;
  const std::vector<std::pair<std::string, double>> kills = {
      {"map", 0.5 * map_end},
      {"shuffle", map_end + 0.5 * clean.result.merge_delay_seconds},
      {"reduce", merge_end + 0.5 * clean.result.reduce_phase_seconds},
  };

  std::map<std::string, FaultStats> reference_stats;
  std::map<std::string, std::vector<TraceShape>> reference_shape;
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::reset_global(threads);
    for (const auto& [phase, when] : kills) {
      SCOPED_TRACE("crash during " + phase + ", GW_THREADS=" +
                   std::to_string(threads));
      const RunOutcome faulty = run_wc(text, [&](core::JobConfig& cfg) {
        cfg.crash_events.push_back({.node = 2, .time = when});
      });
      EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
      EXPECT_EQ(faulty.files, clean.files);
      const auto& s = faulty.result.stats;
      EXPECT_GE(s.recovery_rounds + s.partitions_reassigned, 1u);
      if (phase == "map") {
        EXPECT_GT(s.tasks_reexecuted, 0u);
        EXPECT_GT(s.dfs_replicas_lost, 0u);
      }
      // Recovery spans must nest inside the job span and appear only on
      // survivors of the crash.
      for (int n = 0; n < kNodes; ++n) {
        const TraceShape& ts = faulty.shape[n];
        if (ts.recovery_spans == 0) continue;
        EXPECT_NE(n, 2) << "dead node recorded a recovery span";
        EXPECT_GE(ts.recovery_first, faulty.job_first);
        EXPECT_LE(ts.recovery_last, faulty.job_last);
      }
      // Bit-identical recovery behavior across host thread counts.
      auto [it, inserted] =
          reference_stats.emplace(phase, fault_stats(s));
      if (inserted) {
        reference_shape.emplace(phase, faulty.shape);
      } else {
        EXPECT_EQ(fault_stats(s), it->second);
        EXPECT_EQ(faulty.shape, reference_shape.at(phase));
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

TEST(FaultMatrix, TwoCrashesStillByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text);
  const double map_end = clean.result.map_phase_seconds;
  const RunOutcome faulty = run_wc(text, [&](core::JobConfig& cfg) {
    cfg.crash_events.push_back({.node = 2, .time = 0.3 * map_end});
    cfg.crash_events.push_back({.node = 1, .time = 0.8 * map_end});
  });
  EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
  EXPECT_EQ(faulty.files, clean.files);
  EXPECT_GE(faulty.result.stats.recovery_rounds, 1u);
  EXPECT_GT(faulty.result.stats.tasks_reexecuted, 0u);
  EXPECT_GT(faulty.result.stats.partitions_reassigned, 0u);
}

TEST(FaultMatrix, RestartedNodeDoesNotPerturbOutput) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text);
  const double when = 0.5 * clean.result.map_phase_seconds;
  const RunOutcome faulty = run_wc(text, [&](core::JobConfig& cfg) {
    cfg.crash_events.push_back(
        {.node = 2, .time = when, .restart_time = when + 5e-3});
  });
  EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
  EXPECT_EQ(faulty.files, clean.files);
  // The restarted node comes back empty and never rejoins the job.
  EXPECT_GT(faulty.result.stats.tasks_reexecuted, 0u);
  EXPECT_GT(faulty.result.stats.partitions_reassigned, 0u);
}

// A node that crashes late in the map phase and restarts while its map
// tasks would still be running stays out of the job: the restarted node's
// zombie pipeline must send nothing, or its runs land in shuffle inboxes
// whose receivers have closed and the job aborts in check_quiesced.
TEST(FaultMatrix, RestartLateInMapPhaseAcrossDelays) {
  const util::Bytes text = apps::generate_wiki_text(8 << 20, 42);
  const auto splits_256k = [](core::JobConfig& cfg) {
    cfg.split_size = 256 << 10;
  };
  const RunOutcome clean = run_wc(text, splits_256k);
  // About 6.5 ms before the map phase ends: node 2 dies with map tasks in
  // flight, and every delay below revives it before they would finish.
  const double when = 0.775 * clean.result.map_phase_seconds;
  for (const double delay : {1e-3, 5e-3, 15e-3}) {
    SCOPED_TRACE("restart " + std::to_string(delay) + " s after the crash");
    const RunOutcome faulty = run_wc(text, [&](core::JobConfig& cfg) {
      splits_256k(cfg);
      cfg.crash_events.push_back(
          {.node = 2, .time = when, .restart_time = when + delay});
    });
    EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
    EXPECT_EQ(faulty.files, clean.files);
    EXPECT_GT(faulty.result.stats.tasks_reexecuted, 0u);
  }
}

TEST(FaultMatrix, CrashAfterCompletionLeavesResultUntouched) {
  // The job's only crash fires after its last node finished: it must not
  // count toward the job — crash-free elapsed time to the bit, no recovery
  // work, identical output bytes.
  constexpr int kWide = 8;
  const util::Bytes text = corpus();
  const auto no_tweak = [](core::JobConfig&) {};
  const RunOutcome clean = run_wc(text, no_tweak, kWide);
  const double late = clean.result.elapsed_seconds + 10e-3;
  const RunOutcome faulty = run_wc(
      text,
      [&](core::JobConfig& cfg) {
        cfg.crash_events.push_back({.node = 2, .time = late});
      },
      kWide);
  EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
  EXPECT_EQ(faulty.result.elapsed_seconds, clean.result.elapsed_seconds);
  EXPECT_EQ(fault_stats(faulty.result.stats), FaultStats{});
  EXPECT_EQ(faulty.files, clean.files);
}

// A crash that reaches a job with no crash exposure (no crash_events, no
// crash-injecting tenant, not preemptable) finds its durable-output ledger
// unarmed; recovering from the empty ledger would silently lose output, so
// the job must abort instead.
TEST(FaultDeathTest, CrashReachingUnarmedLedgerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const util::Bytes text = corpus();
  const double when = 0.5 * run_wc(text).result.map_phase_seconds;
  EXPECT_DEATH(
      {
        Platform p = make_platform();
        dfs::Dfs fs(p, dfs::DfsConfig{});
        stage(p, fs, "/in", text);
        core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
        p.sim().schedule_node_crash(2, when);
        rt.run(apps::wordcount().kernels, wc_config());
      },
      "durable-output ledger is not armed");
}

// ---- straggler speculation ----

TEST(Speculation, CloneDedupKeepsOutputByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text);
  const RunOutcome spec = run_wc(text, [](core::JobConfig& cfg) {
    cfg.speculate = true;
  });
  EXPECT_TRUE(spec.trace_error.empty()) << spec.trace_error;
  EXPECT_EQ(spec.files, clean.files);

  // Speculation plus a crash: clones race re-executed splits; dedup must
  // still keep the output exact.
  const RunOutcome both = run_wc(text, [&](core::JobConfig& cfg) {
    cfg.speculate = true;
    cfg.crash_events.push_back(
        {.node = 2, .time = 0.5 * clean.result.map_phase_seconds});
  });
  EXPECT_TRUE(both.trace_error.empty()) << both.trace_error;
  EXPECT_EQ(both.files, clean.files);
  EXPECT_GT(both.result.stats.tasks_reexecuted, 0u);
}

// ---- task-level injection ----

TEST(TaskInjection, MapRetryWithCombinerIsByteIdentical) {
  // Regression: the retried attempt must not reuse the collector the failed
  // attempt already populated — with the combiner on, stale partial sums
  // would double-count. fail_every_nth_map_task = 1 fails every task once.
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text, [](core::JobConfig& cfg) {
    cfg.output_mode = core::OutputMode::kHashTable;
    cfg.use_combiner = true;
  });
  const RunOutcome inj = run_wc(text, [](core::JobConfig& cfg) {
    cfg.output_mode = core::OutputMode::kHashTable;
    cfg.use_combiner = true;
    cfg.fail_every_nth_map_task = 1;
  });
  EXPECT_EQ(inj.files, clean.files);
  // 384 KiB input in 64 KiB splits: six tasks, each failing exactly once.
  EXPECT_EQ(inj.result.stats.map_task_retries, 6u);
}

TEST(TaskInjection, InjectionIsOneBasedSoFirstTaskCanSurvive) {
  // With every=4 and six splits, splits 3 and 7 (1-based 4 and 8) fail:
  // exactly one retry here, and in particular split 0 does NOT fail (the
  // old modulo made `every` >= num_splits always hit split 0).
  const util::Bytes text = corpus();
  const RunOutcome inj = run_wc(text, [](core::JobConfig& cfg) {
    cfg.fail_every_nth_map_task = 4;
  });
  EXPECT_EQ(inj.result.stats.map_task_retries, 1u);
}

TEST(TaskInjection, ReduceRetryIsByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text);
  const RunOutcome inj = run_wc(text, [](core::JobConfig& cfg) {
    cfg.fail_every_nth_reduce_task = 2;
  });
  EXPECT_EQ(inj.files, clean.files);
  // 4 nodes x 8 partitions/node = 32 partitions, every 2nd fails once.
  EXPECT_EQ(inj.result.stats.reduce_task_retries, 16u);
  EXPECT_EQ(clean.result.stats.reduce_task_retries, 0u);
}

// ---- baseline guard ----

TEST(HadoopBaseline, RejectsFaultTolerantConfigs) {
  const util::Bytes text = corpus();
  Platform p = make_platform();
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in", text);
  hadoop::HadoopConfig cfg;
  cfg.input_paths = {"/in"};
  cfg.output_path = "/out";
  cfg.split_size = 64 << 10;
  cfg.crash_events.push_back({.node = 1, .time = 1e-3});
  hadoop::HadoopRuntime rt(p, fs);
  EXPECT_THROW(rt.run(apps::wordcount().kernels, cfg), util::Error);
}

}  // namespace
}  // namespace gw

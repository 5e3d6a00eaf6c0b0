// Hierarchical-combining property tests: node-level and rack-level
// combining must leave the reduce output byte-identical to the legacy
// direct push shuffle — across host thread counts (GW_THREADS), under a
// memory governor, through a mid-shuffle node crash (including the death
// of a rack aggregator), across a preemption, under a scheduler's shared
// governors and with a node dead at job start — while measurably
// shrinking shuffle traffic. Wordcount is the probe app: integer addition
// makes the associativity contract exact, so "byte-identical" is not a
// tolerance.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/wordcount.h"
#include "core/job.h"
#include "core/sched.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

constexpr int kNodes = 8;
constexpr int kRackSize = 4;  // two racks; aggregators at nodes 0 and 4

Platform make_platform() {
  net::NetworkProfile profile = net::NetworkProfile::qdr_infiniband_ipoib();
  // One profile for every mode (rack structure is inert for off/node), so
  // byte-identity comparisons never see different network timing models.
  profile.rack_size = kRackSize;
  return Platform(
      ClusterSpec::homogeneous(kNodes, NodeSpec::das4_type1(), profile));
}

void stage(Platform& p, dfs::Dfs& fs, const std::string& path,
           const util::Bytes& data) {
  p.sim().spawn([](dfs::Dfs& f, std::string pa, util::Bytes c) -> sim::Task<> {
    co_await f.write_distributed(pa, std::move(c));
  }(fs, path, data));
  p.sim().run();
}

using Files = std::map<std::string, util::Bytes>;  // file name -> bytes

// Reads a job's output files, keyed by name without the output directory
// so jobs writing under different roots compare directly.
Files read_outputs(Platform& p, dfs::Dfs& fs,
                   const std::vector<std::string>& paths) {
  Files files;
  for (const auto& path : paths) {
    util::Bytes contents;
    p.sim().spawn([](dfs::Dfs& f, std::string pa,
                     util::Bytes* o) -> sim::Task<> {
      *o = co_await f.read_all(f.block_locations(pa, 0).front(), pa);
    }(fs, path, &contents));
    p.sim().run();
    files[path.substr(path.rfind('/') + 1)] = std::move(contents);
  }
  return files;
}

struct RunOutcome {
  core::JobResult result;
  Files files;
  std::string trace_error;          // Tracer::validate()
  std::uint64_t combine_spans = 0;  // kCombine spans, all nodes
};

template <typename Tweak>
RunOutcome run_wc(const util::Bytes& text, Tweak tweak) {
  Platform p = make_platform();
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in", text);
  core::JobConfig cfg;
  cfg.input_paths = {"/in"};
  cfg.output_path = "/out";
  cfg.split_size = 64 << 10;
  tweak(cfg);
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  RunOutcome out;
  out.result = rt.run(apps::wordcount().kernels, cfg);
  const auto& tr = p.sim().tracer();
  out.trace_error = tr.validate();
  for (int n = 0; n < kNodes; ++n) {
    out.combine_spans += tr.occupancy(n, "combine.node").spans;
    out.combine_spans += tr.occupancy(n, "combine.rack").spans;
  }
  out.files = read_outputs(p, fs, out.result.output_files);
  return out;
}

// Wordcount job i of a scheduled run: reads "/in<i>", writes "/out<i>".
core::JobRequest wc_request(int i, core::CombineMode mode) {
  core::JobRequest req;
  req.name = "wc" + std::to_string(i);
  req.app = apps::wordcount().kernels;
  req.config.input_paths = {"/in" + std::to_string(i)};
  req.config.output_path = "/out" + std::to_string(i);
  req.config.split_size = 64 << 10;
  req.config.combine_mode = mode;
  return req;
}

struct SchedOutcome {
  std::vector<core::ScheduledJob> jobs;
  std::vector<Files> files;  // per job
  std::string trace_error;
};

// Runs `reqs` through one core::Scheduler on a fresh cluster holding
// texts[i] at "/in<i>". A `dead_node` >= 0 crashes before any job arrives.
SchedOutcome run_sched(const std::vector<util::Bytes>& texts,
                       const core::SchedulerConfig& sc,
                       std::vector<core::JobRequest> reqs,
                       int dead_node = -1) {
  Platform p = make_platform();
  dfs::Dfs fs(p, dfs::DfsConfig{});
  for (std::size_t i = 0; i < texts.size(); ++i) {
    stage(p, fs, "/in" + std::to_string(i), texts[i]);
  }
  if (dead_node >= 0) {
    p.sim().schedule_node_crash(dead_node, 0);
    p.sim().run();
  }
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::Scheduler sched(rt, p, fs, sc);
  for (auto& req : reqs) sched.submit(std::move(req));
  sched.run_all();
  SchedOutcome out;
  out.trace_error = p.sim().tracer().validate();
  for (const core::ScheduledJob& j : sched.results()) {
    out.jobs.push_back(j);
    out.files.push_back(read_outputs(p, fs, j.result.output_files));
  }
  return out;
}

const char* mode_name(core::CombineMode mode) {
  return mode == core::CombineMode::kNode ? "node" : "rack";
}

util::Bytes corpus() { return apps::generate_wiki_text(768 << 10, 97); }

TEST(HierarchicalCombine, ByteIdenticalAcrossModesAndThreadCounts) {
  const util::Bytes text = corpus();
  const RunOutcome base = run_wc(text, [](core::JobConfig&) {});
  ASSERT_FALSE(base.files.empty());
  ASSERT_TRUE(base.trace_error.empty()) << base.trace_error;
  EXPECT_EQ(base.result.stats.combine_in_bytes, 0u);
  EXPECT_EQ(base.combine_spans, 0u);

  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::reset_global(threads);
    for (const auto mode :
         {core::CombineMode::kNode, core::CombineMode::kRack}) {
      SCOPED_TRACE(std::string("mode=") +
                   (mode == core::CombineMode::kNode ? "node" : "rack") +
                   ", GW_THREADS=" + std::to_string(threads));
      const RunOutcome got = run_wc(text, [&](core::JobConfig& cfg) {
        cfg.combine_mode = mode;
      });
      EXPECT_TRUE(got.trace_error.empty()) << got.trace_error;
      EXPECT_EQ(got.files, base.files);
      const auto& s = got.result.stats;
      EXPECT_GT(s.combine_in_bytes, 0u);
      EXPECT_LE(s.combine_out_bytes, s.combine_in_bytes);
      EXPECT_GT(got.combine_spans, 0u);
      if (mode == core::CombineMode::kRack) {
        EXPECT_GT(s.net_rack_agg_bytes, 0u);
      } else {
        EXPECT_EQ(s.net_rack_agg_bytes, 0u);
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

TEST(HierarchicalCombine, ShrinksShuffleTraffic) {
  const util::Bytes text = corpus();
  const RunOutcome off = run_wc(text, [](core::JobConfig&) {});
  const RunOutcome node = run_wc(text, [](core::JobConfig& cfg) {
    cfg.combine_mode = core::CombineMode::kNode;
  });
  const RunOutcome rack = run_wc(text, [](core::JobConfig& cfg) {
    cfg.combine_mode = core::CombineMode::kRack;
  });
  // Node-level combining collapses duplicate keys before the wire; the
  // shuffle traffic class must carry strictly fewer bytes than legacy.
  EXPECT_LT(node.result.stats.net_shuffle_bytes,
            off.result.stats.net_shuffle_bytes);
  // Rack aggregation moves the member->aggregator leg onto the rack-agg
  // class and dedups again before the core switch, so the shuffle-class
  // bytes (aggregator->owner plus intra-rack direct) shrink further.
  EXPECT_LT(rack.result.stats.net_shuffle_bytes,
            node.result.stats.net_shuffle_bytes);
  EXPECT_EQ(node.files, off.files);
  EXPECT_EQ(rack.files, off.files);
}

TEST(HierarchicalCombine, GovernedRunStaysByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome base = run_wc(text, [](core::JobConfig&) {});
  const RunOutcome got = run_wc(text, [](core::JobConfig& cfg) {
    cfg.combine_mode = core::CombineMode::kRack;
    cfg.node_memory_bytes = 4 << 20;  // tight: staging must flush early
  });
  EXPECT_TRUE(got.trace_error.empty()) << got.trace_error;
  EXPECT_EQ(got.files, base.files);
  EXPECT_GT(got.result.stats.combine_in_bytes, 0u);
}

TEST(HierarchicalCombine, CrashMidShuffleByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text, [](core::JobConfig&) {});
  const double map_end = clean.result.map_phase_seconds;
  const double mid_shuffle =
      map_end + 0.5 * clean.result.merge_delay_seconds;
  // Node 2 is a plain rack member; node 4 is rack 1's aggregator, whose
  // death exercises the members' ledger re-send of extra-rack provenance.
  for (const int victim : {2, 4}) {
    for (const auto mode :
         {core::CombineMode::kNode, core::CombineMode::kRack}) {
      SCOPED_TRACE(std::string("victim=") + std::to_string(victim) +
                   ", mode=" +
                   (mode == core::CombineMode::kNode ? "node" : "rack"));
      const RunOutcome faulty = run_wc(text, [&](core::JobConfig& cfg) {
        cfg.combine_mode = mode;
        cfg.crash_events.push_back({.node = victim, .time = mid_shuffle});
      });
      EXPECT_TRUE(faulty.trace_error.empty()) << faulty.trace_error;
      EXPECT_EQ(faulty.files, clean.files);
      EXPECT_GE(faulty.result.stats.recovery_rounds, 1u);
    }
  }
}

TEST(HierarchicalCombine, SpeculationDisablesCombining) {
  // Speculative clones regroup re-generated runs on other nodes, which
  // would break the all-or-nothing dedup of combined frames; the runtime
  // must normalize combine_mode to off instead of risking it.
  const util::Bytes text = corpus();
  const RunOutcome base = run_wc(text, [](core::JobConfig&) {});
  const RunOutcome got = run_wc(text, [](core::JobConfig& cfg) {
    cfg.combine_mode = core::CombineMode::kRack;
    cfg.speculate = true;
  });
  EXPECT_EQ(got.result.stats.combine_in_bytes, 0u);
  EXPECT_EQ(got.combine_spans, 0u);
  EXPECT_EQ(got.files, base.files);
}

// A job suspended by a preemption and resumed combines in both
// residencies: the resumed one replays the ledger's uncombined runs under
// their own tags and combines its fresh splits.
TEST(HierarchicalCombine, SuspendedJobResumesByteIdentical) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text, [](core::JobConfig&) {});
  const util::Bytes urgent = apps::generate_wiki_text(32 << 10, 98);
  for (const int threads : {1, 4}) {
    util::ThreadPool::reset_global(threads);
    for (const auto mode :
         {core::CombineMode::kNode, core::CombineMode::kRack}) {
      // The urgent job arrives at 30% and at 80% of the victim's
      // uninterrupted run.
      for (const double frac : {0.3, 0.8}) {
        SCOPED_TRACE(std::string("mode=") + mode_name(mode) +
                     ", GW_THREADS=" + std::to_string(threads) +
                     ", urgent arrival at " + std::to_string(frac));
        core::SchedulerConfig sc;
        sc.policy = core::SchedPolicy::kPriority;
        sc.max_resident_jobs = 1;
        sc.preemption = true;
        std::vector<core::JobRequest> reqs = {wc_request(0, mode),
                                              wc_request(1, mode)};
        reqs[0].priority = 1;
        reqs[1].arrival_s = frac * clean.result.elapsed_seconds;
        const SchedOutcome got = run_sched({text, urgent}, sc, reqs);
        EXPECT_TRUE(got.trace_error.empty()) << got.trace_error;
        const core::ScheduledJob& victim = got.jobs[0];
        ASSERT_FALSE(victim.failed);
        EXPECT_EQ(victim.preemptions, 1);
        EXPECT_EQ(victim.resumes, 1);
        EXPECT_EQ(got.files[0], clean.files);
        EXPECT_GT(victim.result.stats.combine_in_bytes, 0u);
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

// Concurrent tenants combine out of the combine pool the scheduler's
// shared per-node governors carve, and each writes its solo run's bytes.
TEST(HierarchicalCombine, SharedGovernorTenantsMatchSoloRuns) {
  const std::vector<util::Bytes> texts = {
      corpus(), apps::generate_wiki_text(256 << 10, 99)};
  std::vector<Files> solo;
  for (const util::Bytes& text : texts) {
    solo.push_back(run_wc(text, [](core::JobConfig&) {}).files);
  }
  for (const auto mode :
       {core::CombineMode::kNode, core::CombineMode::kRack}) {
    SCOPED_TRACE(std::string("mode=") + mode_name(mode));
    core::SchedulerConfig sc;
    sc.node_memory_bytes = 4 << 20;  // tight: staging must flush early
    std::vector<core::JobRequest> reqs = {wc_request(0, mode),
                                          wc_request(1, mode)};
    reqs[1].arrival_s = 1e-3;
    const SchedOutcome got = run_sched(texts, sc, reqs);
    EXPECT_TRUE(got.trace_error.empty()) << got.trace_error;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      ASSERT_FALSE(got.jobs[i].failed);
      EXPECT_EQ(got.files[i], solo[i]);
      EXPECT_GT(got.jobs[i].result.stats.combine_in_bytes, 0u);
    }
  }
}

// A job admitted after a node died combines over the live nodes: its
// partitions move to survivors, and a rack whose aggregator died
// aggregates through its lowest live member.
TEST(HierarchicalCombine, NodeDeadAtStartMatchesCleanRun) {
  const util::Bytes text = corpus();
  const RunOutcome clean = run_wc(text, [](core::JobConfig&) {});
  // Node 1 is a plain member of rack 0; node 4 is rack 1's aggregator.
  for (const int dead : {1, 4}) {
    for (const auto mode :
         {core::CombineMode::kNode, core::CombineMode::kRack}) {
      SCOPED_TRACE(std::string("dead=") + std::to_string(dead) +
                   ", mode=" + mode_name(mode));
      const SchedOutcome got = run_sched({text}, core::SchedulerConfig{},
                                         {wc_request(0, mode)}, dead);
      EXPECT_TRUE(got.trace_error.empty()) << got.trace_error;
      ASSERT_FALSE(got.jobs[0].failed);
      EXPECT_EQ(got.files[0], clean.files);
      const core::JobStats& s = got.jobs[0].result.stats;
      EXPECT_GT(s.combine_in_bytes, 0u);
      if (mode == core::CombineMode::kRack) {
        EXPECT_GT(s.net_rack_agg_bytes, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace gw

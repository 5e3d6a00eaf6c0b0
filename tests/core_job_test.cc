// End-to-end tests for the Glasswing runtime: full jobs on simulated
// clusters, outputs verified against reference implementations.
#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/job.h"
#include "util/rng.h"

namespace gw::core {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

// --- tiny inline wordcount app for framework tests ---

void wc_map(std::string_view record, MapContext& ctx) {
  std::size_t i = 0;
  while (i < record.size()) {
    while (i < record.size() && !std::isalpha(static_cast<unsigned char>(record[i]))) ++i;
    std::size_t start = i;
    while (i < record.size() && std::isalpha(static_cast<unsigned char>(record[i]))) ++i;
    if (i > start) {
      ctx.charge_ops(2 * (i - start));
      ctx.emit(record.substr(start, i - start), "1");
    }
  }
}

std::uint64_t parse_count(std::string_view v) {
  std::uint64_t n = 0;
  for (char c : v) n = n * 10 + static_cast<std::uint64_t>(c - '0');
  return n;
}

void wc_sum(std::string_view key, const std::vector<std::string_view>& values,
            ReduceContext& ctx) {
  std::uint64_t total = 0;
  for (auto v : values) total += parse_count(v);
  ctx.charge_ops(values.size());
  ctx.emit(key, std::to_string(total));
}

AppKernels wordcount_app() {
  AppKernels app;
  app.name = "wc-test";
  app.map = wc_map;
  app.combine = wc_sum;
  app.reduce = wc_sum;
  return app;
}

std::string make_text(std::size_t lines, std::uint64_t seed) {
  static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                                 "zeta",  "eta",  "theta", "iota",  "kappa"};
  util::Rng rng(seed);
  util::ZipfSampler zipf(10, 1.0);
  std::string text;
  for (std::size_t l = 0; l < lines; ++l) {
    for (int w = 0; w < 8; ++w) {
      text += kWords[zipf.sample(rng)];
      text += ' ';
    }
    text += '\n';
  }
  return text;
}

std::map<std::string, std::uint64_t> reference_counts(const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  std::string word;
  for (char c : text) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      word += c;
    } else if (!word.empty()) {
      counts[word]++;
      word.clear();
    }
  }
  if (!word.empty()) counts[word]++;
  return counts;
}

// --- helpers ---

Platform make_platform(int nodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
}

void write_file(Platform& p, dfs::FileSystem& fs, int node,
                const std::string& path, const std::string& contents) {
  p.sim().spawn([](dfs::FileSystem& f, int n, std::string pa,
                   std::string c) -> sim::Task<> {
    co_await f.write(n, pa, util::Bytes(c.begin(), c.end()));
  }(fs, node, path, contents));
  p.sim().run();
}

util::Bytes read_file(Platform& p, dfs::FileSystem& fs, const std::string& path) {
  util::Bytes out;
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   util::Bytes* o) -> sim::Task<> {
    // Read from a node that hosts the file (or any node for DFS).
    const int node = f.block_locations(pa, 0).front();
    *o = co_await f.read_all(node, pa);
  }(fs, path, &out));
  p.sim().run();
  return out;
}

std::map<std::string, std::uint64_t> collect_output(Platform& p,
                                                    dfs::FileSystem& fs,
                                                    const JobResult& result) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& path : result.output_files) {
    util::Bytes contents = read_file(p, fs, path);
    for (auto& [k, v] : read_output_file(contents)) {
      counts[k] += parse_count(v);
    }
  }
  return counts;
}

struct JobFixture {
  explicit JobFixture(int nodes, std::size_t lines = 2000,
                      std::uint64_t seed = 42)
      : platform(make_platform(nodes)), fs(platform, dfs::DfsConfig{}) {
    text = make_text(lines, seed);
    write_file(platform, fs, 0, "/in/text", text);
    config.input_paths = {"/in/text"};
    config.output_path = "/out";
    config.split_size = 64 << 10;
    config.cache_threshold_bytes = 64 << 10;
    config.partitions_per_node = 4;
  }

  Platform platform;
  dfs::Dfs fs;
  std::string text;
  JobConfig config;
};

TEST(Job, WordcountSingleNodeMatchesReference) {
  JobFixture f(1);
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.stats.input_records, 0u);
  auto expected = reference_counts(f.text);
  auto actual = collect_output(f.platform, f.fs, result);
  EXPECT_EQ(actual, expected);
}

TEST(Job, WordcountFourNodesMatchesReference) {
  JobFixture f(4, 6000);
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  auto expected = reference_counts(f.text);
  auto actual = collect_output(f.platform, f.fs, result);
  EXPECT_EQ(actual, expected);
  EXPECT_GT(result.stats.shuffle_bytes_remote, 0u);
}

TEST(Job, DeterministicAcrossRuns) {
  auto run_once = []() {
    JobFixture f(2, 1500);
    GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
    JobResult r = rt.run(wordcount_app(), f.config);
    return std::make_pair(r.elapsed_seconds, r.stats.intermediate_pairs);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

class JobBuffering : public ::testing::TestWithParam<int> {};

TEST_P(JobBuffering, OutputsCorrectAtEveryBufferingLevel) {
  JobFixture f(2);
  f.config.buffering = GetParam();
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  EXPECT_EQ(collect_output(f.platform, f.fs, result), reference_counts(f.text));
}

INSTANTIATE_TEST_SUITE_P(Levels, JobBuffering, ::testing::Values(1, 2, 3));

TEST(Job, SingleBufferingIsSlower) {
  auto timed = [](int buffering) {
    JobFixture f(1, 4000);
    f.config.buffering = buffering;
    GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
    return rt.run(wordcount_app(), f.config).elapsed_seconds;
  };
  EXPECT_GT(timed(1), timed(2));
}

class JobCollector
    : public ::testing::TestWithParam<std::tuple<OutputMode, bool>> {};

TEST_P(JobCollector, OutputIndependentOfCollector) {
  const auto [mode, combiner] = GetParam();
  JobFixture f(2);
  f.config.output_mode = mode;
  f.config.use_combiner = combiner;
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  EXPECT_EQ(collect_output(f.platform, f.fs, result), reference_counts(f.text));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, JobCollector,
    ::testing::Values(std::make_tuple(OutputMode::kHashTable, true),
                      std::make_tuple(OutputMode::kHashTable, false),
                      std::make_tuple(OutputMode::kSharedPool, false)));

TEST(Job, CombinerShrinksIntermediateData) {
  auto inter_bytes = [](bool combiner) {
    JobFixture f(1, 3000);
    f.config.use_combiner = combiner;
    GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
    return rt.run(wordcount_app(), f.config).stats.intermediate_bytes;
  };
  EXPECT_LT(inter_bytes(true), inter_bytes(false) / 4);
}

TEST(Job, GpuDeviceRunsAndMatches) {
  JobFixture f(2);
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::gtx480());
  JobResult result = rt.run(wordcount_app(), f.config);
  EXPECT_EQ(collect_output(f.platform, f.fs, result), reference_counts(f.text));
  // Discrete device: staging stages were active.
  EXPECT_GT(result.stages.stage + result.stages.retrieve, 0.0);
}

TEST(Job, ScratchSlicingHandlesHugeValueLists) {
  JobFixture f(1, 3000);
  f.config.max_values_per_kernel = 64;  // force slicing: "alpha" has ~1000s
  f.config.use_combiner = false;        // keep all duplicate values
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  EXPECT_EQ(collect_output(f.platform, f.fs, result), reference_counts(f.text));
}

TEST(Job, NoReduceJobWritesSortedMergedOutput) {
  // TeraSort-style: no reduce function; output is the sorted intermediate.
  JobFixture f(2, 500);
  AppKernels app = wordcount_app();
  app.reduce.reset();
  app.combine.reset();
  f.config.use_combiner = false;
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(app, f.config);
  // Each output file must be sorted, and total pair count must equal the
  // total number of words.
  std::uint64_t total = 0;
  for (const auto& path : result.output_files) {
    auto pairs = read_output_file(read_file(f.platform, f.fs, path));
    for (std::size_t i = 1; i < pairs.size(); ++i) {
      EXPECT_LE(pairs[i - 1].first, pairs[i].first);
    }
    total += pairs.size();
  }
  std::uint64_t expected = 0;
  for (auto& [k, v] : reference_counts(f.text)) expected += v;
  EXPECT_EQ(total, expected);
}

TEST(Job, MoreNodesRunFaster) {
  auto timed = [](int nodes) {
    JobFixture f(nodes, 40000);
    GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
    return rt.run(wordcount_app(), f.config).elapsed_seconds;
  };
  const double t1 = timed(1);
  const double t4 = timed(4);
  EXPECT_LT(t4, t1);
  EXPECT_GT(t1 / t4, 1.8);  // at least ~2x speedup on 4 nodes
}

TEST(Job, StageBreakdownIsConsistent) {
  JobFixture f(1, 4000);
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult r = rt.run(wordcount_app(), f.config);
  // CPU device: staging disabled (unified memory).
  EXPECT_DOUBLE_EQ(r.stages.stage, 0.0);
  EXPECT_DOUBLE_EQ(r.stages.retrieve, 0.0);
  // Pipeline overlap: elapsed must not exceed the sum of stage busy times
  // but must be at least the dominant stage.
  const double dominant = std::max(
      {r.stages.input, r.stages.kernel, r.stages.partition});
  EXPECT_GE(r.stages.map_elapsed, dominant - 1e-9);
  EXPECT_LE(r.stages.map_elapsed + 1e-9,
            r.stages.input + r.stages.kernel + r.stages.partition +
                r.stages.map_elapsed * 0.25 + 0.5);
  // Phases account for the whole job.
  EXPECT_NEAR(r.map_phase_seconds + r.merge_delay_seconds +
                  r.reduce_phase_seconds,
              r.elapsed_seconds, r.elapsed_seconds * 0.35);
}

TEST(Job, PartitionerThreadsReducePartitionStageTime) {
  auto partition_busy = [](int threads) {
    JobFixture f(1, 6000);
    f.config.partitioner_threads = threads;
    f.config.output_mode = OutputMode::kSharedPool;  // partition-heavy
    f.config.use_combiner = false;
    GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
    return rt.run(wordcount_app(), f.config).stages.partition;
  };
  EXPECT_GT(partition_busy(1), partition_busy(4) * 1.5);
}

TEST(Job, OutputReplicationOverrideApplies) {
  JobFixture f(4);
  f.config.output_replication = 1;
  GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
  JobResult result = rt.run(wordcount_app(), f.config);
  ASSERT_FALSE(result.output_files.empty());
  EXPECT_EQ(f.fs.block_locations(result.output_files[0], 0).size(), 1u);
}

// Zero partitions per node would leave the hash partitioner dividing by
// zero; setup refuses the job instead.
TEST(JobDeathTest, ZeroPartitionsPerNodeIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        JobFixture f(2, 50);
        f.config.partitions_per_node = 0;
        GlasswingRuntime rt(f.platform, f.fs, cl::DeviceSpec::cpu_dual_e5620());
        rt.run(wordcount_app(), f.config);
      },
      "at least one partition per node");
}

}  // namespace
}  // namespace gw::core

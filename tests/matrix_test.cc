// Cross-product correctness matrix: every application on every device kind
// and several cluster shapes must produce reference-identical output, plus
// Black-Scholes and heterogeneous-cluster coverage.
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/blackscholes.h"
#include "apps/kmeans.h"
#include "util/rng.h"
#include "apps/pageview.h"
#include "apps/wordcount.h"
#include "core/job.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

Platform make_platform(int nodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
}

void stage(Platform& p, dfs::Dfs& fs, const std::string& path,
           const util::Bytes& data) {
  p.sim().spawn([](dfs::Dfs& f, std::string pa, util::Bytes c) -> sim::Task<> {
    co_await f.write_distributed(pa, std::move(c));
  }(fs, path, data));
  p.sim().run();
}

std::vector<std::pair<std::string, std::string>> output_pairs(
    Platform& p, dfs::Dfs& fs, const core::JobResult& result) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& path : result.output_files) {
    util::Bytes contents;
    p.sim().spawn([](dfs::Dfs& f, std::string pa,
                     util::Bytes* o) -> sim::Task<> {
      *o = co_await f.read_all(f.block_locations(pa, 0).front(), pa);
    }(fs, path, &contents));
    p.sim().run();
    for (auto& kv : core::read_output_file(contents)) pairs.push_back(kv);
  }
  return pairs;
}

cl::DeviceSpec device_by_name(const std::string& name) {
  if (name == "cpu") return cl::DeviceSpec::cpu_dual_e5620();
  if (name == "gtx480") return cl::DeviceSpec::gtx480();
  if (name == "k20m") return cl::DeviceSpec::k20m();
  return cl::DeviceSpec::xeon_phi_5110p();
}

// ---- WC across (device x nodes x buffering) ----

class WordcountMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(WordcountMatrix, MatchesReference) {
  const auto [device, nodes, buffering] = GetParam();
  util::Bytes text = apps::generate_wiki_text(384 << 10, 97);
  Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in", text);
  core::JobConfig cfg;
  cfg.input_paths = {"/in"};
  cfg.output_path = "/out";
  cfg.split_size = 64 << 10;
  cfg.buffering = buffering;
  core::GlasswingRuntime rt(p, fs, device_by_name(device));
  auto result = rt.run(apps::wordcount().kernels, cfg);
  std::map<std::string, std::uint64_t> counts;
  for (auto& [k, v] : output_pairs(p, fs, result)) {
    counts[k] += apps::parse_u64(v);
  }
  EXPECT_EQ(counts, apps::wordcount_reference(text));
}

INSTANTIATE_TEST_SUITE_P(
    DeviceNodeBuffering, WordcountMatrix,
    ::testing::Combine(::testing::Values("cpu", "gtx480", "k20m", "phi"),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(1, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Black-Scholes ----

TEST(BlackScholes, ClosedFormSanity) {
  // Deep in-the-money call with negligible vol/rate ~= spot - strike.
  EXPECT_NEAR(apps::price_option(150, 50, 0.0001f, 0.01f, 0.25f), 100.0, 0.1);
  // Worthless far out-of-the-money call.
  EXPECT_NEAR(apps::price_option(50, 500, 0.01f, 0.1f, 0.5f), 0.0, 1e-6);
  // Monotone in volatility.
  EXPECT_GT(apps::price_option(100, 100, 0.02f, 0.5f, 1.0f),
            apps::price_option(100, 100, 0.02f, 0.2f, 1.0f));
}

TEST(BlackScholes, JobMatchesReferenceOnGpu) {
  apps::BlackScholesConfig bs{.paths = 64};
  util::Bytes options = apps::generate_options(20000, 41);
  Platform p = make_platform(3);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in/options", options);
  core::JobConfig cfg;
  cfg.input_paths = {"/in/options"};
  cfg.output_path = "/out";
  cfg.split_size = 64 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::gtx480());
  auto result = rt.run(apps::black_scholes(bs).kernels, cfg);

  const auto ref = apps::black_scholes_reference(options, bs);
  std::map<std::uint32_t, double> actual;
  for (auto& [k, v] : output_pairs(p, fs, result)) {
    double d;
    ASSERT_EQ(v.size(), sizeof(d));
    std::memcpy(&d, v.data(), sizeof(d));
    actual[apps::get_be32(k)] += d;
  }
  ASSERT_EQ(actual.size(), ref.size());
  for (auto& [bucket, total] : ref) {
    ASSERT_TRUE(actual.count(bucket));
    EXPECT_NEAR(actual[bucket], total, std::abs(total) * 1e-9 + 1e-6);
  }
}

TEST(BlackScholes, GpuMuchFasterThanCpu) {
  apps::BlackScholesConfig bs{.paths = 256};
  util::Bytes options = apps::generate_options(20000, 43);
  auto timed = [&](cl::DeviceSpec dev) {
    Platform p = make_platform(1);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    stage(p, fs, "/in", options);
    core::JobConfig cfg;
    cfg.input_paths = {"/in"};
    cfg.output_path = "/out";
    core::GlasswingRuntime rt(p, fs, std::move(dev));
    return rt.run(apps::black_scholes(bs).kernels, cfg).elapsed_seconds;
  };
  const double cpu = timed(cl::DeviceSpec::cpu_dual_e5620());
  const double gpu = timed(cl::DeviceSpec::gtx480());
  EXPECT_GT(cpu / gpu, 3.0);  // embarrassingly parallel compute: GPU wins big
}

// ---- heterogeneous clusters ----

TEST(Heterogeneous, MixedDevicesCorrectAndLoadBalanced) {
  // 4 nodes: two with GPUs, two CPU-only (the Shirahata scenario from §II).
  apps::KmeansConfig km{.k = 256, .dims = 4};
  auto centers = apps::generate_centers(km, 3);
  util::Bytes points = apps::generate_points(km, 60000, 5);
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in/points", points);

  std::vector<cl::DeviceSpec> devices = {
      cl::DeviceSpec::gtx480(), cl::DeviceSpec::cpu_dual_e5620(),
      cl::DeviceSpec::gtx480(), cl::DeviceSpec::cpu_dual_e5620()};
  core::GlasswingRuntime rt(p, fs, devices);
  core::JobConfig cfg;
  cfg.input_paths = {"/in/points"};
  cfg.output_path = "/out";
  cfg.split_size = 32 << 10;
  auto result = rt.run(apps::kmeans(km, centers).kernels, cfg);

  // Correctness against reference.
  const auto ref = apps::kmeans_reference(km, centers, points);
  std::uint64_t seen = 0;
  for (auto& [key, value] : output_pairs(p, fs, result)) {
    const std::uint32_t cid = apps::get_be32(key);
    const std::uint32_t count = apps::get_be32(
        std::string_view(value).substr(static_cast<std::size_t>(km.dims) * 4));
    EXPECT_EQ(count, ref.counts[cid]);
    ++seen;
  }
  std::uint64_t nonempty = 0;
  for (auto c : ref.counts) nonempty += (c > 0);
  EXPECT_EQ(seen, nonempty);

  // Load balance: GPU nodes (0,2) must have executed more map kernels than
  // CPU nodes (1,3) — the dynamic scheduler feeds faster nodes more splits.
  const std::uint64_t gpu_kernels =
      rt.device(0).kernels_launched() + rt.device(2).kernels_launched();
  const std::uint64_t cpu_kernels =
      rt.device(1).kernels_launched() + rt.device(3).kernels_launched();
  EXPECT_GT(gpu_kernels, cpu_kernels);
}

// ---- iterative K-Means (job chaining) ----

TEST(KmeansIterate, ConvergesTowardClusterMeans) {
  // Points drawn around 8 well-separated true centers; after a few Lloyd
  // iterations from perturbed initial centers, the objective (mean distance
  // to the assigned center) must improve monotonically-ish and the final
  // centers must sit near the true ones.
  apps::KmeansConfig km{.k = 8, .dims = 2};
  util::Rng rng(77);
  std::vector<float> truth;
  for (int c = 0; c < km.k; ++c) {
    truth.push_back(static_cast<float>(100 * (c % 4) + 50));
    truth.push_back(static_cast<float>(100 * (c / 4) + 50));
  }
  util::Bytes points;
  for (int i = 0; i < 20000; ++i) {
    const int c = static_cast<int>(rng.below(km.k));
    for (int j = 0; j < 2; ++j) {
      const float v = truth[static_cast<std::size_t>(c) * 2 + j] +
                      static_cast<float>(rng.uniform(-12, 12));
      const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
      points.insert(points.end(), b, b + 4);
    }
  }
  // Initial centers: truth shifted by a sizable offset.
  std::vector<float> initial = truth;
  for (auto& v : initial) v += 23.0f;

  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage(p, fs, "/in/points", points);
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::JobConfig base;
  base.split_size = 64 << 10;
  const apps::KmeansIterations result =
      apps::kmeans_dag(rt, p, fs, km, initial, "/in/points", "/out/km", 4,
                       base)
          .iterations;
  ASSERT_EQ(result.iterations, 4);
  EXPECT_GT(result.total_elapsed_seconds, 0.0);
  // Every final center within the noise radius of a true center.
  for (int c = 0; c < km.k; ++c) {
    double best = 1e30;
    for (int t = 0; t < km.k; ++t) {
      double dist = 0;
      for (int j = 0; j < 2; ++j) {
        const double delta =
            result.centers[static_cast<std::size_t>(c) * 2 + j] -
            truth[static_cast<std::size_t>(t) * 2 + j];
        dist += delta * delta;
      }
      best = std::min(best, dist);
    }
    EXPECT_LT(std::sqrt(best), 12.0) << "center " << c << " did not converge";
  }
  std::uint64_t members = 0;
  for (auto n : result.counts) members += n;
  EXPECT_EQ(members, 20000u);
}

}  // namespace
}  // namespace gw

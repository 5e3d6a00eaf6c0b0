// Application tests: each of the five paper workloads runs as a full
// Glasswing job on a simulated cluster and its output is verified against a
// direct reference implementation.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/kmeans.h"
#include "apps/matmul.h"
#include "apps/pageview.h"
#include "apps/terasort.h"
#include "apps/wordcount.h"
#include "core/job.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gw::apps {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

Platform make_platform(int nodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
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

std::vector<std::pair<std::string, std::string>> all_output_pairs(
    Platform& p, dfs::FileSystem& fs, const core::JobResult& result) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& path : result.output_files) {
    auto filed = core::read_output_file(read_file(p, fs, path));
    pairs.insert(pairs.end(), filed.begin(), filed.end());
  }
  return pairs;
}

// ---------- WordCount ----------

TEST(WordCount, GeneratorIsSkewedAndDeterministic) {
  util::Bytes a = generate_wiki_text(100000, 7);
  util::Bytes b = generate_wiki_text(100000, 7);
  EXPECT_EQ(a, b);
  auto counts = wordcount_reference(a);
  // "the" must dominate, and a long sparse tail must exist.
  EXPECT_GT(counts["the"], 400u);
  std::size_t singletons = 0;
  for (auto& [w, c] : counts) singletons += (c == 1);
  EXPECT_GT(singletons, 100u);
}

TEST(WordCount, JobMatchesReferenceOnCluster) {
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  util::Bytes text = generate_wiki_text(1 << 20, 11);
  write_file(p, fs, "/in/wiki", text);

  core::JobConfig cfg;
  cfg.input_paths = {"/in/wiki"};
  cfg.output_path = "/out/wc";
  cfg.split_size = 128 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  auto result = rt.run(wordcount().kernels, cfg);

  std::map<std::string, std::uint64_t> actual;
  for (auto& [k, v] : all_output_pairs(p, fs, result)) {
    actual[k] += parse_u64(v);
  }
  EXPECT_EQ(actual, wordcount_reference(text));
}

// ---------- PageviewCount ----------

TEST(Pageview, GeneratorIsSparse) {
  util::Bytes log = generate_weblog(1 << 20, 5);
  auto counts = pageview_reference(log);
  std::size_t singles = 0;
  for (auto& [url, c] : counts) singles += (c == 1);
  // The paper: "duplicate URLs are rare ... massive number of keys".
  EXPECT_GT(counts.size(), 8000u);
  EXPECT_GT(static_cast<double>(singles) / counts.size(), 0.75);
}

TEST(Pageview, JobMatchesReference) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  util::Bytes log = generate_weblog(1 << 20, 3);
  write_file(p, fs, "/in/log", log);

  core::JobConfig cfg;
  cfg.input_paths = {"/in/log"};
  cfg.output_path = "/out/pvc";
  cfg.split_size = 256 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  auto result = rt.run(pageview_count().kernels, cfg);

  std::map<std::string, std::uint64_t> actual;
  for (auto& [k, v] : all_output_pairs(p, fs, result)) {
    actual[k] += parse_u64(v);
  }
  EXPECT_EQ(actual, pageview_reference(log));
}

// ---------- TeraSort ----------

TEST(TeraSort, OutputIsTotallyOrderedAndComplete) {
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  util::Bytes input = generate_terasort(20000, 9);
  const std::uint64_t checksum_in = terasort_checksum(input);
  write_file(p, fs, "/in/tera", input);

  core::JobConfig cfg;
  cfg.input_paths = {"/in/tera"};
  cfg.output_path = "/out/tera";
  cfg.split_size = 128 << 10;
  cfg.output_replication = 1;

  AppSpec app = terasort();
  // Sampling pre-pass (client side, like the paper's TeraSort).
  core::PartitionFn partitioner;
  p.sim().spawn([](dfs::Dfs& f, core::PartitionFn* out) -> sim::Task<> {
    std::vector<std::string> paths = {"/in/tera"};
    *out = co_await sample_range_partitioner(f, 0, std::move(paths), 1000);
  }(fs, &partitioner));
  p.sim().run();
  app.kernels.partition = partitioner;

  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  auto result = rt.run(app.kernels, cfg);

  // Output files are globally ordered by partition index; validate
  // in-file sorting, cross-file ordering, record count and checksum.
  std::uint64_t total = 0;
  std::uint64_t checksum_out = 0;
  std::string prev_key;
  for (const auto& path : result.output_files) {  // sorted by partition
    auto pairs = core::read_output_file(read_file(p, fs, path));
    for (auto& [k, v] : pairs) {
      EXPECT_EQ(k.size(), kTeraKeySize);
      EXPECT_EQ(v.size(), kTeraRecordSize - kTeraKeySize);
      EXPECT_LE(prev_key, k);
      prev_key = k;
      const std::string rec = k + v;
      checksum_out ^= util::fnv1a(rec.data(), rec.size());
      ++total;
    }
  }
  EXPECT_EQ(total, 20000u);
  EXPECT_EQ(checksum_out, checksum_in);
}

TEST(TeraSort, RangePartitionerIsMonotone) {
  Platform p = make_platform(1);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/t", generate_terasort(5000, 1));
  core::PartitionFn part;
  p.sim().spawn([](dfs::Dfs& f, core::PartitionFn* out) -> sim::Task<> {
    std::vector<std::string> paths = {"/in/t"};
    *out = co_await sample_range_partitioner(f, 0, std::move(paths), 500);
  }(fs, &part));
  p.sim().run();
  // Increasing keys map to non-decreasing partitions, and the spread covers
  // most buckets.
  std::set<std::uint32_t> used;
  std::uint32_t prev = 0;
  for (int c = 0; c < 95; ++c) {
    std::string key(10, static_cast<char>(' ' + c));
    const std::uint32_t bucket = part(key, 32);
    EXPECT_GE(bucket, prev);
    prev = bucket;
    used.insert(bucket);
  }
  EXPECT_GT(used.size(), 24u);
}

// The range partitioners binary-search flat 8-byte key prefixes; the
// reference is std::upper_bound over the sorted samples themselves.
TEST(TeraSort, RangePartitionerMatchesUpperBound) {
  util::Rng rng(2014);
  // Bytes over the full unsigned range, so zero padding and byte order
  // above 0x7f are exercised too.
  auto random_key = [&rng](std::size_t len) {
    std::string k(len, '\0');
    for (char& c : k) c = static_cast<char>(rng.below(256));
    return k;
  };
  std::vector<std::string> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(random_key(kTeraKeySize));
  // Samples that tie on their 8-byte prefix, and an exact duplicate.
  for (int i = 0; i < 50; ++i) {
    std::string k = samples[static_cast<std::size_t>(i)];
    k[9] = static_cast<char>(k[9] ^ 0x55);
    samples.push_back(k);
  }
  samples.push_back(samples.front());
  std::sort(samples.begin(), samples.end());

  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(random_key(kTeraKeySize));
  for (const std::string& s : samples) {
    keys.push_back(s);  // every sample key itself
    // Same 8-byte prefix, different bytes 9-10.
    for (int d : {-1, 1}) {
      std::string k = s;
      k[8] = static_cast<char>(k[8] + d);
      keys.push_back(k);
      k = s;
      k[9] = static_cast<char>(k[9] + d);
      keys.push_back(k);
    }
    // Keys shorter than 8 bytes, including the samples' own prefixes.
    keys.push_back(s.substr(0, 1 + static_cast<std::size_t>(rng.below(7))));
  }
  for (std::size_t len = 0; len < 8; ++len) {
    keys.push_back(random_key(len));
    keys.push_back(std::string(len, '\0'));
    keys.push_back(std::string(len, '\xff'));
  }

  const core::PartitionFn quantile = quantile_range_partitioner(samples);
  const core::PartitionFn splitter = splitter_range_partitioner(samples);
  const core::PartitionFn no_samples = quantile_range_partitioner({});
  for (std::uint32_t total : {1u, 32u, 512u}) {
    for (const std::string& key : keys) {
      const auto rank = static_cast<std::uint64_t>(
          std::upper_bound(samples.begin(), samples.end(), key) -
          samples.begin());
      const std::uint64_t bucket = rank * total / (samples.size() + 1);
      const std::uint64_t last = total - 1;
      ASSERT_EQ(quantile(key, total), std::min(bucket, last))
          << "total " << total << " key of " << key.size() << " bytes";
      ASSERT_EQ(splitter(key, total), std::min(rank, last))
          << "total " << total << " key of " << key.size() << " bytes";
      ASSERT_EQ(no_samples(key, total), 0u);
    }
  }
}

// ---------- K-Means ----------

TEST(KMeans, JobMatchesReference) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  KmeansConfig km{.k = 64, .dims = 4};
  auto centers = generate_centers(km, 2);
  util::Bytes points = generate_points(km, 50000, 3);
  write_file(p, fs, "/in/points", points);

  core::JobConfig cfg;
  cfg.input_paths = {"/in/points"};
  cfg.output_path = "/out/km";
  cfg.split_size = 128 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  auto result = rt.run(kmeans(km, centers).kernels, cfg);

  const KmeansReference ref = kmeans_reference(km, centers, points);
  std::uint64_t centers_seen = 0;
  for (auto& [key, value] : all_output_pairs(p, fs, result)) {
    const std::uint32_t cid = get_be32(key);
    ASSERT_LT(cid, static_cast<std::uint32_t>(km.k));
    ++centers_seen;
    const std::uint32_t count = get_be32(
        std::string_view(value).substr(static_cast<std::size_t>(km.dims) * 4));
    EXPECT_EQ(count, ref.counts[cid]) << "center " << cid;
    for (int j = 0; j < km.dims; ++j) {
      const float mean = read_f32(value.data() + 4 * j);
      EXPECT_NEAR(mean, ref.means[static_cast<std::size_t>(cid) * km.dims + j],
                  1e-2)
          << "center " << cid << " dim " << j;
    }
  }
  std::uint64_t nonempty = 0;
  for (auto c : ref.counts) nonempty += (c > 0);
  EXPECT_EQ(centers_seen, nonempty);
}

TEST(KMeans, GpuJobMatchesCpuJob) {
  auto run_with = [](cl::DeviceSpec dev) {
    Platform p = make_platform(2);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    KmeansConfig km{.k = 32, .dims = 4};
    auto centers = generate_centers(km, 2);
    write_file(p, fs, "/in/p", generate_points(km, 20000, 3));
    core::JobConfig cfg;
    cfg.input_paths = {"/in/p"};
    cfg.output_path = "/out/km";
    core::GlasswingRuntime rt(p, fs, std::move(dev));
    auto result = rt.run(kmeans(km, centers).kernels, cfg);
    std::map<std::string, std::string> out;
    for (auto& [k, v] : all_output_pairs(p, fs, result)) out[k] = v;
    return out;
  };
  EXPECT_EQ(run_with(cl::DeviceSpec::cpu_dual_e5620()),
            run_with(cl::DeviceSpec::gtx480()));
}

// The DAG fixed-point driver replaced the hand-rolled `for (iter)` loop;
// this replica of the deleted loop pins down that the DAG path is
// byte-identical: same per-iteration output files, same final centers and
// counts, bit for bit.
TEST(KMeans, DagMatchesHandRolledLoop) {
  KmeansConfig km{.k = 16, .dims = 4};
  constexpr int kIterations = 3;
  const auto initial = generate_centers(km, 5);
  const util::Bytes points = generate_points(km, 20000, 7);

  core::JobConfig base;
  base.split_size = 64 << 10;

  // Legacy driver: run one job per iteration, fold the (center -> means,
  // count) pairs back into the carried state in concatenated file order.
  std::vector<float> centers = initial;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(km.k), 0);
  std::vector<util::Bytes> hand_raw;
  {
    Platform p = make_platform(2);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/points", points);
    core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    for (int i = 0; i < kIterations; ++i) {
      core::JobConfig cfg = base;
      cfg.input_paths = {"/in/points"};
      cfg.output_path = "/out/hand/iter-" + std::to_string(i);
      auto result = rt.run(kmeans(km, centers).kernels, cfg);
      util::Bytes raw;
      counts.assign(static_cast<std::size_t>(km.k), 0);
      for (const auto& path : result.output_files) {
        const util::Bytes bytes = read_file(p, fs, path);
        raw.insert(raw.end(), bytes.begin(), bytes.end());
        for (const auto& [key, value] : core::read_output_file(bytes)) {
          const std::uint32_t cid = get_be32(key);
          ASSERT_LT(cid, static_cast<std::uint32_t>(km.k));
          counts[cid] = get_be32(std::string_view(value).substr(
              static_cast<std::size_t>(km.dims) * 4));
          if (counts[cid] == 0) continue;
          for (int j = 0; j < km.dims; ++j) {
            centers[static_cast<std::size_t>(cid) * km.dims + j] =
                read_f32(value.data() + 4 * j);
          }
        }
      }
      hand_raw.push_back(std::move(raw));
    }
  }

  // DAG driver with checkpoint edges on a fresh identical cluster.
  auto run_dag = [&](core::EdgeKind edge, bool pin_inputs) {
    Platform p = make_platform(2);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/points", points);
    core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    KmeansDagResult dr =
        kmeans_dag(rt, p, fs, km, initial, "/in/points", "/out/km",
                   kIterations, base, edge, pin_inputs);
    std::vector<util::Bytes> raws;
    std::uint64_t dfs_bytes = 0;
    for (const auto& r : dr.dag.rounds) {
      // Pinned center files live only in the DAG's in-memory overlay; the
      // base fs can read back checkpointed rounds only.
      if (edge == core::EdgeKind::kCheckpoint) {
        util::Bytes raw;
        for (const auto& path : r.outputs) {
          const util::Bytes bytes = read_file(p, fs, path);
          raw.insert(raw.end(), bytes.begin(), bytes.end());
        }
        raws.push_back(std::move(raw));
      }
      dfs_bytes += r.job.stats.net_dfs_bytes;
    }
    return std::tuple(std::move(dr), std::move(raws), dfs_bytes);
  };

  const auto [ck, ck_raw, ck_dfs] =
      run_dag(core::EdgeKind::kCheckpoint, false);
  EXPECT_EQ(ck.iterations.iterations, kIterations);
  EXPECT_EQ(ck.dag.rounds.size(), static_cast<std::size_t>(kIterations));
  EXPECT_EQ(ck.iterations.centers, centers);
  EXPECT_EQ(ck.iterations.counts, counts);
  ASSERT_EQ(ck_raw.size(), hand_raw.size());
  for (std::size_t i = 0; i < hand_raw.size(); ++i) {
    EXPECT_EQ(ck_raw[i], hand_raw[i]) << "iteration " << i;
  }

  // Pinning the tiny center files must not change a single byte of the
  // result, only cut the DFS traffic. (Input caching is kept off here: a
  // cache hit shifts simulated read timing and thus shuffle arrival order,
  // and the kmeans reduce sums floats in arrival order — bitwise equality
  // only holds for timing-neutral pinning. The order-insensitive prefix
  // sums DAG covers byte identity WITH input caching in dag_test.)
  const auto [pin, pin_raw, pin_dfs] = run_dag(core::EdgeKind::kPinned, false);
  EXPECT_EQ(pin.iterations.centers, centers);
  EXPECT_EQ(pin.iterations.counts, counts);
  EXPECT_TRUE(pin_raw.empty());  // nothing materialized to the base fs
  EXPECT_LT(pin_dfs, ck_dfs);
}

// Both column searches must give every point exactly the scalar oracle's
// center: ties to the lowest index within a lane (duplicates 8 centers
// apart) and across lanes and accumulators, NaN distances that never win, a
// NaN distance to center 0 that keeps center 0, and distances that overflow
// to +inf.
TEST(KMeans, NearestCenterMatchesScalarOracle) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  util::Rng rng(18);
  auto uniform = [&rng](double lo, double hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };
  enum Variant { kRandom, kDuplicates, kNaNCenters, kInfCenters, kHuge };
  std::uint64_t points_checked = 0;
  for (int k : {1, 7, 8, 9, 16, 1023, 1024}) {
    for (int d : {1, 3, 4, 16}) {
      for (Variant variant :
           {kRandom, kDuplicates, kNaNCenters, kInfCenters, kHuge}) {
        const double scale = variant == kHuge ? 1.5e19 : 100.0;
        std::vector<float> centers(static_cast<std::size_t>(k) * d);
        for (float& x : centers) x = uniform(-scale, scale);
        auto center = [&](int c) {
          return centers.begin() + static_cast<std::ptrdiff_t>(c) * d;
        };
        if (variant == kDuplicates) {
          for (auto [dst, src] : {std::pair{8, 0}, {11, 3}, {1000, 3},
                                  {5, 2}, {k - 1, 1}}) {
            if (dst < k && src < dst) std::copy_n(center(src), d, center(dst));
          }
        }
        if (variant == kNaNCenters || variant == kInfCenters) {
          const float special = variant == kNaNCenters ? kNaN : kInf;
          center(0)[d - 1] = special;
          if (k > 5) center(5)[0] = special;
        }

        std::vector<std::vector<float>> points;
        for (int i = 0; i < 32; ++i) {
          std::vector<float> p(static_cast<std::size_t>(d));
          for (float& x : p) x = uniform(-scale, scale);
          points.push_back(std::move(p));
        }
        for (int c : {0, 1, 2, 3, 5, 8, 11, 1000, k - 1}) {
          if (c >= k) continue;
          points.emplace_back(center(c), center(c) + d);
          std::vector<float> near(center(c), center(c) + d);
          near[0] += static_cast<float>(scale) * 1e-3f;
          points.push_back(std::move(near));
        }
        std::vector<float> nan_point = points[0];
        nan_point[0] = kNaN;
        points.push_back(nan_point);
        std::vector<float> inf_point = points[1];
        inf_point[d - 1] = kInf;
        points.push_back(inf_point);

        const CenterColumns columns(centers, k, d);
        for (const auto& p : points) {
          const int want = nearest_center(p.data(), centers.data(), k, d);
          ASSERT_EQ(columns.nearest(p.data()), want)
              << "k=" << k << " d=" << d << " variant " << variant
              << " point " << (&p - points.data());
          ASSERT_EQ(columns.nearest_4x2(p.data()), want)
              << "4x2: k=" << k << " d=" << d << " variant " << variant
              << " point " << (&p - points.data());
          ++points_checked;
        }
      }
    }
  }
  EXPECT_GT(points_checked, 5000u);
}

// ---------- Matrix Multiply ----------

TEST(MatMul, ElementsAreDeterministicAndBounded) {
  for (std::uint32_t r = 0; r < 50; ++r) {
    const float v = matrix_element(1, r, r * 3);
    EXPECT_EQ(v, matrix_element(1, r, r * 3));
    EXPECT_GE(v, -0.5f);
    EXPECT_LE(v, 0.5f);
  }
}

TEST(MatMul, JobComputesCorrectProduct) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  MatmulConfig mm{.n = 128, .tile = 16};
  util::Bytes input = generate_tile_pairs(mm, 100, 200);
  write_file(p, fs, "/in/tiles", input);

  core::JobConfig cfg;
  cfg.input_paths = {"/in/tiles"};
  cfg.output_path = "/out/mm";
  cfg.split_size = 256 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  auto result = rt.run(matmul(mm).kernels, cfg);

  std::map<std::string, std::string> out;
  for (auto& [k, v] : all_output_pairs(p, fs, result)) out[k] = v;
  const std::uint32_t grid = mm.tiles_per_side();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(grid) * grid);

  // Verify a handful of C tiles against the direct reference.
  for (auto [ti, tj] : {std::pair<std::uint32_t, std::uint32_t>{0, 0},
                        {1, 3},
                        {grid - 1, grid - 1},
                        {2, 0}}) {
    const auto it = out.find(c_tile_key(ti, tj));
    ASSERT_NE(it, out.end());
    const std::vector<float> expected = reference_c_tile(mm, 100, 200, ti, tj);
    ASSERT_EQ(it->second.size(), expected.size() * 4);
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_NEAR(read_f32(it->second.data() + 4 * e), expected[e], 1e-3);
    }
  }
}

}  // namespace
}  // namespace gw::apps

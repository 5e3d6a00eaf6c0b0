// Focused unit tests for core components: output collectors, the
// intermediate-data store, and the split scheduler.
#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/collector.h"
#include "core/intermediate.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "gwdfs/fs.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gw::core {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

Platform make_platform(int nodes = 1) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
}

// ---------- collectors ----------

cl::KernelStats emit_through(MapOutputCollector& col, cl::Device& dev,
                             std::size_t items,
                             const std::function<std::pair<std::string, std::string>(
                                 std::size_t)>& pair_for,
                             sim::Simulation& sim) {
  cl::KernelStats out;
  sim.spawn([](MapOutputCollector& c, cl::Device& d, std::size_t n,
               const std::function<std::pair<std::string, std::string>(std::size_t)>& pf,
               cl::KernelStats* stats) -> sim::Task<> {
    *stats = co_await d.run_kernel_grouped(
        n, c.groups(), [&](std::size_t i, std::size_t g, cl::KernelCounters& kc) {
          auto [k, v] = pf(i);
          c.emit(g, k, v, kc);
        });
  }(col, dev, items, pair_for, &out));
  sim.run();
  return out;
}

MapChunkOutput finalize_now(MapOutputCollector& col, cl::Device& dev,
                            const std::optional<CombineFn>& combine,
                            sim::Simulation& sim) {
  MapChunkOutput out;
  sim.spawn([](MapOutputCollector& c, cl::Device& d,
               std::optional<CombineFn> comb, MapChunkOutput* o) -> sim::Task<> {
    *o = co_await c.finalize(d, comb, {});
  }(col, dev, combine, &out));
  sim.run();
  return out;
}

TEST(SharedPoolCollector, OneAtomicPerEmit) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  SharedPoolCollector col(8);
  auto stats = emit_through(col, dev, 1000,
                            [](std::size_t i) {
                              return std::make_pair("k" + std::to_string(i % 10),
                                                    "v");
                            },
                            sim);
  EXPECT_EQ(stats.atomic_ops, 1000u);
  EXPECT_EQ(stats.hash_probes, 0u);
  auto out = finalize_now(col, dev, std::nullopt, sim);
  EXPECT_EQ(out.pairs.size(), 1000u);
  EXPECT_FALSE(out.grouped);
}

TEST(HashTableCollector, ProbesAndGrouping) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  HashTableCollector col(4);
  auto stats = emit_through(col, dev, 2000,
                            [](std::size_t i) {
                              return std::make_pair("key" + std::to_string(i % 50),
                                                    std::to_string(i));
                            },
                            sim);
  EXPECT_GE(stats.hash_probes, 2000u);  // at least one probe per emit
  EXPECT_GE(stats.atomic_ops, 2000u);   // value-append atomics
  auto out = finalize_now(col, dev, std::nullopt, sim);
  // Compaction keeps every pair but groups keys contiguously.
  EXPECT_EQ(out.pairs.size(), 2000u);
  EXPECT_TRUE(out.grouped);
  EXPECT_EQ(out.distinct_keys, 50u);
  std::set<std::string> seen;
  std::string current;
  for (std::size_t i = 0; i < out.pairs.size(); ++i) {
    const std::string key(out.pairs.get(i).key);
    if (key != current) {
      EXPECT_TRUE(seen.insert(key).second) << "key not contiguous: " << key;
      current = key;
    }
  }
}

TEST(HashTableCollector, CombinerCollapsesDuplicates) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  HashTableCollector col(4);
  emit_through(col, dev, 3000,
               [](std::size_t i) {
                 return std::make_pair("w" + std::to_string(i % 20), "1");
               },
               sim);
  CombineFn sum = [](std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext& ctx) {
    ctx.emit(key, std::to_string(values.size()));
  };
  auto out = finalize_now(col, dev, sum, sim);
  EXPECT_EQ(out.pairs.size(), 20u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < out.pairs.size(); ++i) {
    total += std::stoull(std::string(out.pairs.get(i).value));
  }
  EXPECT_EQ(total, 3000u);
}

TEST(HashTableCollector, ProbeCountGrowsWithKeyCardinality) {
  // More distinct keys -> fuller tables -> more probes per emit on average.
  auto probes_for = [](int distinct) {
    sim::Simulation sim;
    cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
    HashTableCollector col(1);
    auto stats = emit_through(col, dev, 20000,
                              [distinct](std::size_t i) {
                                return std::make_pair(
                                    "key" + std::to_string(i % distinct), "1");
                              },
                              sim);
    return stats.hash_probes;
  };
  EXPECT_GT(probes_for(15000), probes_for(50));
}

// A seeded Zipf emit stream over 64 work-groups: ~3000 emits per group
// from a 40000-word vocabulary, enough distinct keys per group that every
// table grows past its initial 1024 slots (grown at 70% load).
struct ZipfEmits {
  static constexpr std::size_t kGroups = 64;
  std::vector<std::string> vocab;
  struct Emit {
    std::uint32_t group;
    std::uint32_t rank;
    std::string value;
  };
  std::vector<Emit> emits;

  explicit ZipfEmits(std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < 40000; ++i) {
      const auto letter = static_cast<char>('a' + i % 26);
      vocab.push_back(std::string(1 + rng.below(12), letter) +
                      std::to_string(i));
    }
    const util::ZipfSampler zipf(vocab.size(), 1.0);
    for (std::size_t i = 0; i < kGroups * 3000; ++i) {
      const auto rank = static_cast<std::uint32_t>(zipf.sample(rng));
      emits.push_back({static_cast<std::uint32_t>(rng.below(kGroups)), rank,
                       std::to_string(rng.below(1000))});
    }
  }

  void feed(HashTableCollector& col) const {
    cl::KernelCounters c;
    for (const Emit& e : emits) col.emit(e.group, vocab[e.rank], e.value, c);
  }

  std::size_t min_distinct_per_group() const {
    std::vector<std::set<std::uint32_t>> seen(kGroups);
    for (const Emit& e : emits) seen[e.group].insert(e.rank);
    std::size_t least = emits.size();
    for (const auto& s : seen) least = std::min(least, s.size());
    return least;
  }
};

// Everything finalize hands downstream, as one comparable record: fnv1a
// over the output pairs' framed bytes, the key and probe counts, and the
// post-processing kernel's counters.
std::array<std::uint64_t, 9> finalize_record(const MapChunkOutput& out) {
  std::uint64_t h = util::fnv1a(std::string_view{});
  for (std::size_t i = 0; i < out.pairs.size(); ++i) {
    const std::string_view e = out.pairs.encoded_pair(i);
    h = util::fnv1a(e.data(), e.size(), h);
  }
  const cl::KernelStats& s = out.post_stats;
  return {h, out.distinct_keys, out.hash_probes, s.work_items, s.ops,
          s.bytes_read, s.bytes_written, s.atomic_ops, s.hash_probes};
}

TEST(HashTableCollector, FinalizeOutputPinnedAcrossReuse) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  const ZipfEmits first(42);
  const ZipfEmits second(7);
  ASSERT_GT(first.min_distinct_per_group(), 1024u * 7 / 10);
  ASSERT_GT(second.min_distinct_per_group(), 1024u * 7 / 10);
  const CombineFn sum = [](std::string_view key,
                           const std::vector<std::string_view>& values,
                           ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (auto v : values) total += std::stoull(std::string(v));
    ctx.emit(key, std::to_string(total));
  };

  HashTableCollector col(ZipfEmits::kGroups);
  first.feed(col);
  const auto combined = finalize_record(finalize_now(col, dev, sum, sim));
  second.feed(col);
  const auto compacted =
      finalize_record(finalize_now(col, dev, std::nullopt, sim));

  // Pinned: key order, value order, probe counts and every kernel charge.
  const std::array<std::uint64_t, 9> want_combined = {
      0xa4b5c1461493f93aull, 25339, 356618, 25339, 0, 835250, 366678, 0, 0};
  const std::array<std::uint64_t, 9> want_compacted = {
      0x51b2175e9e077bcbull, 25297, 353528, 25297, 0, 835132, 835132, 0, 0};
  EXPECT_EQ(combined, want_combined);
  EXPECT_EQ(compacted, want_compacted);

  // A reused collector must finalize exactly like a fresh one: a reset that
  // left a stale slot behind would surface here as a phantom key.
  HashTableCollector fresh(ZipfEmits::kGroups);
  second.feed(fresh);
  EXPECT_EQ(compacted,
            finalize_record(finalize_now(fresh, dev, std::nullopt, sim)));
}

// ---------- intermediate store ----------

gw::core::Run make_run(const std::string& prefix, int pairs) {
  RunBuilder rb;
  for (int i = 0; i < pairs; ++i) {
    rb.add(prefix + std::to_string(i),
           std::string("v").append(std::to_string(i)));
  }
  return rb.finish(true);
}

JobConfig store_config() {
  JobConfig cfg;
  cfg.partitions_per_node = 4;
  cfg.cache_threshold_bytes = 4 << 10;
  cfg.max_disk_runs = 3;
  return cfg;
}

TEST(IntermediateStore, RoundTripsAllData) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  MemoryGovernor mem(p.sim(), 0);  // unbounded
  IntermediateStore store(p.node(0), p.sim(), cfg, mem);
  store.start_mergers();
  for (int r = 0; r < 20; ++r) {
    p.sim().spawn(store.add_run(r % 4, make_run("a" + std::to_string(r) + "-", 50)));
  }
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();

  std::uint64_t pairs = 0;
  for (int part = 0; part < 4; ++part) {
    std::uint64_t disk_bytes = 0;
    for (gw::core::Run& r : store.take_partition(part, &disk_bytes)) {
      pairs += r.pairs;
    }
  }
  EXPECT_EQ(pairs, 20u * 50u);
  EXPECT_GT(store.spills(), 0u);  // threshold was tiny: spills happened
}

TEST(IntermediateStore, DrainConsolidatesRunCount) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  cfg.cache_threshold_bytes = 1 << 30;  // never spill
  MemoryGovernor mem(p.sim(), 0);  // unbounded
  IntermediateStore store(p.node(0), p.sim(), cfg, mem);
  store.start_mergers();
  for (int r = 0; r < 32; ++r) p.sim().spawn(store.add_run(0, make_run("x", 10)));
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();
  std::uint64_t disk_bytes = 0;
  auto runs = store.take_partition(0, &disk_bytes);
  EXPECT_EQ(runs.size(), 1u);  // consolidated to a single cached run
  EXPECT_EQ(disk_bytes, 0u);   // nothing spilled
  EXPECT_EQ(runs[0].pairs, 320u);
}

TEST(IntermediateStore, MergedRunsStaySorted) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  MemoryGovernor mem(p.sim(), 0);  // unbounded
  IntermediateStore store(p.node(0), p.sim(), cfg, mem);
  store.start_mergers();
  util::Rng rng(31);
  std::uint64_t expected = 0;
  for (int r = 0; r < 12; ++r) {
    RunBuilder rb;
    std::vector<std::string> keys;
    for (int i = 0; i < 100; ++i) {
      keys.push_back(std::string("k").append(std::to_string(rng.below(1000))));
    }
    std::sort(keys.begin(), keys.end());
    for (auto& k : keys) rb.add(k, "v");
    expected += 100;
    p.sim().spawn(store.add_run(1, rb.finish(true)));
  }
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();
  std::uint64_t disk_bytes = 0;
  auto runs = store.take_partition(1, &disk_bytes);
  std::uint64_t total = 0;
  for (const gw::core::Run& run : runs) {
    RunReader reader(run);
    KV kv;
    std::string prev;
    while (reader.next(&kv)) {
      EXPECT_GE(std::string(kv.key), prev);
      prev = std::string(kv.key);
      ++total;
    }
  }
  EXPECT_EQ(total, expected);
}

// Runs one add_run to completion.
void add_tagged(Platform& p, IntermediateStore& store, int g,
                gw::core::Run run, std::vector<std::uint64_t> tags) {
  p.sim().spawn(store.add_run(g, std::move(run), std::move(tags)));
  p.sim().run();
}

std::uint64_t drained_pairs(Platform& p, IntermediateStore& store, int g) {
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();
  std::uint64_t disk_bytes = 0;
  std::uint64_t pairs = 0;
  for (const gw::core::Run& r : store.take_partition(g, &disk_bytes)) {
    pairs += r.pairs;
  }
  return pairs;
}

TEST(IntermediateStore, RepeatedSingletonTagIsDroppedAndCounted) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  cfg.cache_threshold_bytes = 1 << 30;
  MemoryGovernor mem(p.sim(), 0);  // unbounded
  IntermediateStore store(p.node(0), p.sim(), cfg, mem);
  store.start_mergers();
  add_tagged(p, store, 0, make_run("a", 10), {7});
  add_tagged(p, store, 0, make_run("a", 10), {7});  // a re-execution
  add_tagged(p, store, 1, make_run("a", 10), {7});  // tags are per partition
  add_tagged(p, store, 0, make_run("b", 10), {8});
  add_tagged(p, store, 0, make_run("c", 10), {});   // untagged: always in
  add_tagged(p, store, 0, make_run("c", 10), {});
  EXPECT_EQ(store.duplicate_runs_dropped(), 1u);
  // Tags either side of a 64-bit bitmap word boundary, 32 apart in one
  // word, and far past the bitmap's current end: each is admitted once,
  // shadows only itself, and its repeat is dropped.
  const std::vector<std::uint64_t> edges = {63, 64, 65, 96, 127, 100000};
  for (std::uint64_t t : edges) {
    add_tagged(p, store, 0, make_run("t" + std::to_string(t), 10), {t});
  }
  for (std::uint64_t t : edges) {
    add_tagged(p, store, 0, make_run("t" + std::to_string(t), 10), {t});
  }
  add_tagged(p, store, 1, make_run("t", 10), {100000});  // other partition
  EXPECT_EQ(store.duplicate_runs_dropped(), 7u);
  EXPECT_EQ(drained_pairs(p, store, 0), 100u);
}

TEST(IntermediateStore, CombinedRunShadowsSingletonRefeeds) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  cfg.cache_threshold_bytes = 1 << 30;
  MemoryGovernor mem(p.sim(), 0);  // unbounded
  IntermediateStore store(p.node(0), p.sim(), cfg, mem);
  store.start_mergers();
  // A combined run carries the union of its producers' tags; re-feeds of
  // any producer's own run (ledger replay, re-execution) are duplicates.
  add_tagged(p, store, 0, make_run("abc", 30), {1, 2, 3});
  add_tagged(p, store, 0, make_run("a", 10), {1});
  add_tagged(p, store, 0, make_run("b", 10), {2});
  add_tagged(p, store, 0, make_run("c", 10), {3});
  add_tagged(p, store, 0, make_run("abc", 30), {3, 1, 2});
  add_tagged(p, store, 0, make_run("d", 10), {4});
  EXPECT_EQ(store.duplicate_runs_dropped(), 4u);
  // The same across bitmap word boundaries and far past the bitmap's end.
  add_tagged(p, store, 0, make_run("wxyz", 40), {63, 64, 65, 100000});
  add_tagged(p, store, 0, make_run("w", 10), {63});
  add_tagged(p, store, 0, make_run("x", 10), {64});
  add_tagged(p, store, 0, make_run("y", 10), {65});
  add_tagged(p, store, 0, make_run("z", 10), {100000});
  add_tagged(p, store, 0, make_run("wxyz", 40), {100000, 65, 64, 63});
  add_tagged(p, store, 0, make_run("e", 10), {66});
  add_tagged(p, store, 0, make_run("f", 10), {99999});
  EXPECT_EQ(store.duplicate_runs_dropped(), 9u);
  EXPECT_EQ(drained_pairs(p, store, 0), 100u);
}

TEST(IntermediateStoreDeathTest, PartialTagOverlapAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Platform p = make_platform();
        JobConfig cfg = store_config();
        MemoryGovernor mem(p.sim(), 0);  // unbounded
        IntermediateStore store(p.node(0), p.sim(), cfg, mem);
        add_tagged(p, store, 0, make_run("a", 10), {1});
        // A second grouping that includes producer 1's output again.
        add_tagged(p, store, 0, make_run("ab", 20), {1, 2});
      },
      "partially overlaps already-seen dedup tags");
}

// ---------- split scheduler ----------

TEST(SplitScheduler, PrefersLocalSplits) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 8; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {i % 4};
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  // Node 2 should receive its two local splits first.
  auto a = sched.next_for(2);
  auto b = sched.next_for(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->offset / 100 % 4, 2u);
  EXPECT_EQ(b->offset / 100 % 4, 2u);
  EXPECT_EQ(sched.local_grabs(), 2u);
  // Third grab falls back to a remote split.
  auto c = sched.next_for(2);
  ASSERT_TRUE(c);
  EXPECT_EQ(sched.remote_grabs(), 1u);
}

TEST(SplitScheduler, HandsOutEverySplitExactlyOnce) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 20; ++i) {
    InputSplit s("/f", i * 10, 10);
    s.locations = {0};
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  std::set<std::uint64_t> offsets;
  for (int node = 0; node < 4; ++node) {
    while (auto s = sched.next_for(node)) offsets.insert(s->offset);
  }
  EXPECT_EQ(offsets.size(), 20u);
  EXPECT_FALSE(sched.next_for(0).has_value());
}

TEST(SplitScheduler, LocalAndRemoteGrabCountsPartitionTheTotal) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 12; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {i % 3};  // nodes 0..2 host 4 splits each; node 3 none
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  // Nodes 0-2 each pull their own 4 splits: all grabs are local.
  std::uint64_t handed = 0;
  for (int node = 0; node < 3; ++node) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(sched.next_for(node).has_value());
      ++handed;
    }
  }
  EXPECT_EQ(handed, 12u);
  EXPECT_EQ(sched.local_grabs(), 12u);
  EXPECT_EQ(sched.remote_grabs(), 0u);
  EXPECT_EQ(sched.local_grabs() + sched.remote_grabs(), handed);
  // Node 3 hosts no blocks and everything is taken: nothing left, and a
  // node with no local blocks never inflates the locality counters.
  EXPECT_FALSE(sched.next_for(3).has_value());
  EXPECT_EQ(sched.local_grabs() + sched.remote_grabs(), 12u);
  EXPECT_EQ(sched.retries(), 0u);
}

TEST(SplitScheduler, RequeuedSplitServedBeforeFreshSplits) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 4; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {0};
    s.index = i;
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  auto first = sched.next_for(0);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->attempt, 0);
  EXPECT_EQ(sched.remaining(), 3u);

  // A failed task's input goes back in and must be handed out (to ANY
  // node) ahead of splits never attempted — §III-E re-execution.
  sched.requeue(*first);
  EXPECT_EQ(sched.remaining(), 4u);
  EXPECT_EQ(sched.retries(), 1u);
  auto retry = sched.next_for(3);
  ASSERT_TRUE(retry);
  EXPECT_EQ(retry->index, first->index);
  EXPECT_EQ(retry->attempt, 1);
}

TEST(SplitScheduler, RequeueAfterExhaustionReopensTheScheduler) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 3; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {0};
    s.index = i;
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  std::vector<InputSplit> got;
  while (auto s = sched.next_for(0)) got.push_back(*s);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(sched.remaining(), 0u);
  EXPECT_FALSE(sched.next_for(0).has_value());

  sched.requeue(got[1]);
  sched.requeue(got[2]);
  EXPECT_EQ(sched.remaining(), 2u);
  auto a = sched.next_for(1);
  auto b = sched.next_for(1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->attempt, 1);
  EXPECT_EQ(b->attempt, 1);
  EXPECT_EQ(sched.remaining(), 0u);
  EXPECT_FALSE(sched.next_for(1).has_value());
  EXPECT_EQ(sched.retries(), 2u);
}

TEST(SplitScheduler, MakeSplitsCoversFilesExactly) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  p.sim().spawn([](dfs::Dfs& f) -> sim::Task<> {
    co_await f.write(0, "/a", util::Bytes(1000));
    co_await f.write(0, "/b", util::Bytes(2500));
  }(fs));
  p.sim().run();
  auto splits = SplitScheduler::make_splits(fs, {"/a", "/b"}, 1000);
  std::uint64_t total = 0;
  for (auto& s : splits) total += s.len;
  EXPECT_EQ(total, 3500u);
  EXPECT_EQ(splits.size(), 4u);  // 1 + 3
  for (auto& s : splits) EXPECT_FALSE(s.locations.empty());
}

}  // namespace
}  // namespace gw::core

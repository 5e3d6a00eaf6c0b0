// Host-path throughput microbenchmarks (REAL wall-clock time, not simulated
// seconds).
//
// Every simulated-seconds result in bench/fig* and bench/table* is computed
// by *really* sorting, merging and compressing intermediate data on the
// host, so the wall-clock cost of the repo is dominated by these primitives.
// This binary tracks their throughput directly:
//
//   * sort:       PairList::sort_by_key vs the decode-per-comparison
//                 reference implementation
//   * merge:      N-way merge_runs (N in {2, 8, 64}) vs the priority-queue
//                 reference implementation
//   * compress:   lz_compress + lz_decompress roundtrip, and lz_compress
//                 over many small (512-byte) runs
//   * collector:  HashTableCollector emits under Zipf key skew, and the
//                 finalize (combine or compaction) of the collected chunk;
//                 the same emits as a grouped map kernel on 1- and
//                 2-thread pools (CPU time per emit, so a pool that scales
//                 badly shows)
//   * shuffle:    one ~500-byte run from send_run to IntermediateStore::
//                 add_run on a 64-node platform (time and heap allocations
//                 per message), and the partition step over one 256 KiB
//                 terasort chunk, loop side and pool-job side
//   * k-means:    the map kernel (nearest-center search and emit) over one
//                 256 KiB split of points, time and heap allocations per
//                 point
//
// Run via bench/run_host_path.sh to record BENCH_hostpath.json; CI smokes it
// with --benchmark_min_time so regressions in the host path are visible
// without a profiler. The JSON context records the library's build type
// and compiler flags (gw_build_type, gw_cxx_flags).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "apps/kmeans.h"
#include "apps/terasort.h"
#include "cluster/cluster.h"
#include "core/collector.h"
#include "core/intermediate.h"
#include "core/kv.h"
#include "core/kv_reference.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "gwcl/device.h"
#include "sim/sim.h"
#include "util/compress.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef GW_BUILD_TYPE
#define GW_BUILD_TYPE "unknown"
#endif
#ifndef GW_CXX_FLAGS
#define GW_CXX_FLAGS "unknown"
#endif

// Heap allocations made while g_count_allocs is set: the replaceable
// global operator new below counts them, so a benchmark can report
// allocations per item. Outside that window it only tests the flag, so the
// other benchmarks pay no atomic increment per allocation.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Out of line, so the compiler pairs new with delete, not malloc with free.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace gw;

// Deterministic skewed word list: Zipf-ranked vocabulary with mixed key
// lengths (3..24 bytes), the shape WordCount/PageviewCount feed the sort
// and merge paths.
std::vector<std::string> make_vocabulary(std::size_t n) {
  std::vector<std::string> words;
  words.reserve(n);
  util::Rng rng(2014);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 3 + rng.below(22);
    std::string w;
    w.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.below(26)));
    }
    w += std::to_string(i);  // distinct ranks stay distinct keys
    words.push_back(std::move(w));
  }
  return words;
}

core::PairList make_pairs(std::size_t pairs, std::uint64_t seed) {
  static const std::vector<std::string> vocab = make_vocabulary(30000);
  static const util::ZipfSampler zipf(vocab.size(), 1.1);
  util::Rng rng(seed);
  core::PairList pl;
  for (std::size_t i = 0; i < pairs; ++i) {
    pl.add(vocab[zipf.sample(rng)], "1");
  }
  return pl;
}

// N key-sorted runs with `total_pairs` pairs spread evenly across them.
std::vector<core::Run> make_runs(std::size_t n, std::size_t total_pairs,
                                 bool compress) {
  std::vector<core::Run> runs;
  runs.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    core::PairList pl = make_pairs(total_pairs / n, 1000 + r);
    pl.sort_by_key();
    core::RunBuilder rb;
    for (std::size_t i = 0; i < pl.size(); ++i) {
      const core::KV kv = pl.get(i);
      rb.add(kv.key, kv.value);
    }
    runs.push_back(rb.finish(compress));
  }
  return runs;
}

util::Bytes make_text(std::size_t bytes) {
  static const std::vector<std::string> vocab = make_vocabulary(30000);
  static const util::ZipfSampler zipf(vocab.size(), 1.1);
  util::Rng rng(7);
  util::Bytes text;
  text.reserve(bytes + 32);
  while (text.size() < bytes) {
    const std::string& w = vocab[zipf.sample(rng)];
    text.insert(text.end(), w.begin(), w.end());
    text.push_back(' ');
  }
  return text;
}

// ---- sort ----

constexpr std::size_t kSortPairs = 200000;

void BM_SortByKey(benchmark::State& state) {
  const core::PairList base = make_pairs(kSortPairs, 42);
  for (auto _ : state) {
    state.PauseTiming();
    core::PairList pl = base;
    state.ResumeTiming();
    pl.sort_by_key();
    benchmark::DoNotOptimize(pl);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.blob_bytes()));
}
BENCHMARK(BM_SortByKey);

void BM_SortByKeyReference(benchmark::State& state) {
  const core::PairList base = make_pairs(kSortPairs, 42);
  for (auto _ : state) {
    core::PairList sorted = core::reference::sorted_by_key(base);
    benchmark::DoNotOptimize(sorted);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.blob_bytes()));
}
BENCHMARK(BM_SortByKeyReference);

// ---- merge ----

constexpr std::size_t kMergePairs = 128000;

void BM_MergeRuns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, false);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeRuns)->Arg(2)->Arg(8)->Arg(64);

void BM_MergeRunsReference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, false);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::reference::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeRunsReference)->Arg(2)->Arg(8)->Arg(64);

// Compressed inputs: adds the per-run decompression (pooled scratch path).
void BM_MergeCompressedRuns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, true);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeCompressedRuns)->Arg(8);

// ---- compression ----

constexpr std::size_t kTextBytes = 4 << 20;

void BM_CompressRoundtrip(benchmark::State& state) {
  const util::Bytes text = make_text(kTextBytes);
  for (auto _ : state) {
    util::Bytes packed = util::lz_compress(text);
    util::Bytes back = util::lz_decompress(packed);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_CompressRoundtrip);

void BM_Decompress(benchmark::State& state) {
  const util::Bytes text = make_text(kTextBytes);
  const util::Bytes packed = util::lz_compress(text);
  for (auto _ : state) {
    util::Bytes back = util::lz_decompress(packed);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Decompress);

// Many small runs, the size a partition run of a 64-node terasort ships:
// per-call set-up cost, not matching speed, dominates here.
constexpr std::size_t kSmallRunBytes = 512;
constexpr std::size_t kSmallRuns = 1024;

void BM_CompressSmallRuns(benchmark::State& state) {
  const util::Bytes text = make_text(kSmallRunBytes * kSmallRuns);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kSmallRuns; ++r) {
      util::Bytes packed =
          util::lz_compress(text.data() + r * kSmallRunBytes, kSmallRunBytes);
      benchmark::DoNotOptimize(packed);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSmallRunBytes) *
                          static_cast<std::int64_t>(kSmallRuns));
}
BENCHMARK(BM_CompressSmallRuns);

// ---- hash-table collector under Zipf skew ----

constexpr std::size_t kInsertPairs = 100000;
constexpr std::size_t kCollectorGroups = 64;

// Pre-sampled emit stream, so only collector work is timed.
struct ZipfStream {
  std::vector<std::string> vocab = make_vocabulary(30000);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> emits;  // (group, rank)
  std::uint64_t bytes = 0;

  ZipfStream() {
    const util::ZipfSampler zipf(vocab.size(), 1.1);
    util::Rng rng(99);
    emits.reserve(kInsertPairs);
    for (std::size_t i = 0; i < kInsertPairs; ++i) {
      const auto rank = static_cast<std::uint32_t>(zipf.sample(rng));
      const auto group =
          static_cast<std::uint32_t>(rng.below(kCollectorGroups));
      emits.emplace_back(group, rank);
      bytes += vocab[rank].size() + 1;
    }
  }

  void feed(core::HashTableCollector& collector) const {
    cl::KernelCounters counters;
    for (const auto& [group, rank] : emits) {
      collector.emit(group, vocab[rank], "1", counters);
    }
    benchmark::DoNotOptimize(counters);
  }
};

const ZipfStream& zipf_stream() {
  static const ZipfStream stream;
  return stream;
}

void BM_HashCollectorInsert(benchmark::State& state) {
  const ZipfStream& stream = zipf_stream();
  for (auto _ : state) {
    state.PauseTiming();
    core::HashTableCollector collector(kCollectorGroups);
    state.ResumeTiming();
    stream.feed(collector);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.bytes));
}
BENCHMARK(BM_HashCollectorInsert);

// Finalize of the BM_HashCollectorInsert chunk on one reused collector, as
// the map pipeline does per chunk: the gather, the post-processing kernel
// (a counting combiner, or compaction without one), the concatenation and
// the table reset. Wall time, and the whole process's CPU time: the kernel
// fans out over the host pool, whose threads the caller's CPU misses.
void BM_HashCollectorFinalize(benchmark::State& state) {
  const bool with_combiner = state.range(0) != 0;
  const ZipfStream& stream = zipf_stream();
  std::optional<core::CombineFn> combine;
  if (with_combiner) {
    combine = [](std::string_view key,
                 const std::vector<std::string_view>& values,
                 core::ReduceContext& ctx) {
      ctx.emit(key, std::to_string(values.size()));
    };
  }
  sim::Simulation sim;
  cl::Device device(sim, cl::DeviceSpec::cpu_dual_e5620());
  core::HashTableCollector collector(kCollectorGroups);
  for (auto _ : state) {
    state.PauseTiming();
    stream.feed(collector);
    state.ResumeTiming();
    core::MapChunkOutput out;
    sim.spawn([](core::HashTableCollector& c, cl::Device& d,
                 std::optional<core::CombineFn> comb,
                 core::MapChunkOutput* o) -> sim::Task<> {
      *o = co_await c.finalize(d, comb, {});
    }(collector, device, combine, &out));
    sim.run();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kInsertPairs));
}
BENCHMARK(BM_HashCollectorFinalize)
    ->ArgName("combine")
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Nanoseconds of CPU time this process has used so far, all threads.
std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// The BM_HashCollectorInsert chunk as a map kernel: its 100k emits run
// through cl::Device::execute_grouped in the 64 fixed work-groups, each
// group inserting its share of the stream into its own table of a fresh
// HashTableCollector, on a global pool of `threads` threads (the default
// pool comes back afterwards). The row's CPU column is the whole process's
// CPU time per chunk; cpu_ns_per_item is that per emit and cpu_per_real is
// CPU over wall time. Reading it: with threads:1, cpu_per_real is about 1.
// With threads:2 it should be near 2; a threads:2 row whose cpu_per_real
// is near 1 kept only one thread busy at a time (seen on loaded hosts,
// mostly in a process's first runs), so it says nothing about scaling.
// Compare cpu_ns_per_item across the two rows only when the threads:2
// row's ratio is near 2: then equal cpu_ns_per_item means the second
// thread costs no extra CPU, and a higher value is what cache lines shared
// between threads cost.
void BM_GroupedMapChunk(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const ZipfStream& stream = zipf_stream();
  util::ThreadPool::reset_global(threads);
  std::optional<core::HashTableCollector> collector;
  const cl::Device::GroupWorkItemFn emit =
      [&stream, &collector](std::size_t i, std::size_t group,
                            cl::KernelCounters& c) {
        collector->emit(group, stream.vocab[stream.emits[i].second], "1", c);
      };
  std::int64_t cpu_ns = 0;
  std::int64_t real_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    collector.emplace(kCollectorGroups);
    state.ResumeTiming();
    const std::int64_t cpu0 = process_cpu_ns();
    const auto real0 = std::chrono::steady_clock::now();
    const cl::KernelStats stats =
        cl::Device::execute_grouped(kInsertPairs, kCollectorGroups, emit);
    real_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - real0)
                   .count();
    cpu_ns += process_cpu_ns() - cpu0;
    benchmark::DoNotOptimize(stats);
    state.PauseTiming();
    collector.reset();
    state.ResumeTiming();
  }
  util::ThreadPool::reset_global(0);
  const double items = static_cast<double>(state.iterations()) *
                       static_cast<double>(kInsertPairs);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["cpu_ns_per_item"] = static_cast<double>(cpu_ns) / items;
  state.counters["cpu_per_real"] =
      static_cast<double>(cpu_ns) / static_cast<double>(real_ns);
}
BENCHMARK(BM_GroupedMapChunk)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---- shuffle message and partition step ----

// Terasort records as the collector hands them on: 10-byte key, 90-byte
// value.
core::PairList terasort_pairs(std::uint64_t records, std::uint64_t seed) {
  const util::Bytes recs = apps::generate_terasort(records, seed);
  const auto* base = reinterpret_cast<const char*>(recs.data());
  core::PairList pairs;
  for (std::uint64_t r = 0; r < records; ++r) {
    const char* rec = base + r * apps::kTeraRecordSize;
    pairs.add(std::string_view(rec, apps::kTeraKeySize),
              std::string_view(rec + apps::kTeraKeySize,
                               apps::kTeraRecordSize - apps::kTeraKeySize));
  }
  return pairs;
}

// Mirrors the job's shuffle receiver: adopt each frame as a run and add it
// to the store, until the one sender's end-of-stream.
sim::Task<> receive_into(net::Transport& tp, int node, int port,
                         std::unique_ptr<core::IntermediateStore>* store) {
  net::Transport::Receiver rx = tp.receiver(node, port, 1);
  while (auto msg = co_await rx.recv()) {
    const int g = core::shuffle_frame_partition(msg->payload);
    co_await (*store)->add_run(
        g, core::adopt_shuffle_frame(std::move(msg->payload)),
        std::move(msg->tags));
  }
}

constexpr int kShuffleNodes = 64;
constexpr int kMessagesPerIter = 256;

// Messages from the 63 other nodes of a 64-node platform into node 0, each
// a compressed run of 20 terasort records (~500 bytes) for one of node 0's
// 8 partitions under its own dedup tag: send_run's framing and transport
// send, the fabric's wire model, the receiver's adoption and add_run.
// Reports time and heap allocations per message. Every 64 iterations the
// store, which keeps every run, is replaced untimed.
void BM_ShuffleMessage(benchmark::State& state) {
  cluster::Platform platform(cluster::ClusterSpec::homogeneous(
      kShuffleNodes, cluster::NodeSpec::das4_type1(),
      net::NetworkProfile::qdr_infiniband_ipoib()));
  sim::Simulation& sim = platform.sim();
  core::JobConfig cfg;
  cfg.cache_threshold_bytes = std::uint64_t{1} << 40;  // never flush
  const int port = net::kPortJobStride + net::kPortShuffle;

  core::PairList pairs = terasort_pairs(20, 42);
  pairs.sort_by_key();
  // Built as the partition step builds them, with the frame headroom
  // RunBuilder::finish leaves.
  auto make_run = [&pairs] {
    core::RunBuilder rb;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      rb.add_encoded(pairs.encoded_pair(i));
    }
    return rb.finish(true);
  };

  core::NodeContext ctx;
  ctx.platform = &platform;
  core::MemoryGovernor mem(sim, 0);  // unbounded
  std::unique_ptr<core::IntermediateStore> store;
  sim::TaskGroup sends(sim);
  sim.spawn(receive_into(platform.transport(), 0, port, &store));
  std::vector<core::Run> runs(kMessagesPerIter);
  std::uint64_t messages = 0;
  std::uint64_t tag = 0;
  g_heap_allocs.store(0);
  for (auto _ : state) {
    state.PauseTiming();
    if (tag % (64 * kMessagesPerIter) == 0) {
      store = std::make_unique<core::IntermediateStore>(platform.node(0),
                                                        sim, cfg, mem);
    }
    for (core::Run& r : runs) r = make_run();
    g_count_allocs.store(true);
    state.ResumeTiming();
    for (int i = 0; i < kMessagesPerIter; ++i) {
      ctx.node_id = 1 + i % (kShuffleNodes - 1);
      core::send_run(ctx, sends, 0, port, net::TrafficClass::kShuffle, i % 8,
                     std::move(runs[static_cast<std::size_t>(i)]), {++tag});
    }
    sim.run();
    state.PauseTiming();
    g_count_allocs.store(false);
    messages += kMessagesPerIter;
    state.ResumeTiming();
  }
  sim.spawn(platform.transport().finish(1, 0, port));
  sim.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["ns_per_msg"] = benchmark::Counter(
      static_cast<double>(messages) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["allocs_per_msg"] =
      static_cast<double>(g_heap_allocs.load()) /
      static_cast<double>(messages);
}
BENCHMARK(BM_ShuffleMessage);

// The partition step over one 256 KiB terasort chunk (2,621 pairs) and 512
// partitions, range-partitioned over 2,000 sorted sample keys. job:0 times
// the event-loop side (each pair's partition, per-partition counts and
// bytes); job:1 the offloaded side (counting sort, per-partition key sort,
// run build and LZ compression, fanned out over the host pool).
void BM_PartitionChunk(benchmark::State& state) {
  const bool job = state.range(0) != 0;
  constexpr std::uint64_t kChunkPairs = (256 << 10) / apps::kTeraRecordSize;
  constexpr std::uint32_t kPartitions = 512;
  const core::PairList pairs = terasort_pairs(kChunkPairs, 42);
  const core::PairList sample_pairs = terasort_pairs(2000, 7);
  std::vector<std::string> samples;
  for (std::size_t i = 0; i < sample_pairs.size(); ++i) {
    samples.emplace_back(sample_pairs.get(i).key);
  }
  std::sort(samples.begin(), samples.end());
  const core::PartitionFn partition =
      apps::quantile_range_partitioner(std::move(samples));
  core::PartitionScratch scratch(kPartitions);
  for (auto _ : state) {
    if (job) {
      state.PauseTiming();
      scratch.assign(pairs, partition);
      state.ResumeTiming();
      auto runs = scratch.build_runs(pairs);
      benchmark::DoNotOptimize(runs);
      state.PauseTiming();
      runs.clear();
      scratch.reset();
      state.ResumeTiming();
    } else {
      scratch.assign(pairs, partition);
      benchmark::DoNotOptimize(scratch.live().data());
      scratch.reset();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunkPairs));
}
BENCHMARK(BM_PartitionChunk)->ArgName("job")->Arg(0)->Arg(1)->UseRealTime();

// ---- k-means map kernel ----

// Counts what a collector would be handed; stores nothing.
struct CountingEmitter final : core::MapEmitter {
  std::uint64_t pairs = 0;
  std::uint64_t bytes = 0;
  void emit(std::string_view key, std::string_view value) override {
    ++pairs;
    bytes += key.size() + value.size();
  }
};

// One 256 KiB split of 4-dimensional points (16,384 records) through the
// k-means map kernel into a counting emitter, with the paper's 16 and 1024
// centers: the nearest-center search, the charge and the emit encoding.
// Reports time and heap allocations per point.
void BM_KmeansMap(benchmark::State& state) {
  const apps::KmeansConfig km{.k = static_cast<int>(state.range(0)),
                              .dims = 4};
  const std::size_t record = static_cast<std::size_t>(km.dims) * 4;
  const std::uint64_t split_points = (256 << 10) / record;
  const util::Bytes split = apps::generate_points(km, split_points, 42);
  const core::MapFn map =
      apps::kmeans(km, apps::generate_centers(km, 42)).kernels.map;
  const auto* base = reinterpret_cast<const char*>(split.data());
  CountingEmitter out;
  cl::KernelCounters counters;
  core::MapContext ctx{&out, &counters};
  std::uint64_t points = 0;
  g_heap_allocs.store(0);
  for (auto _ : state) {
    g_count_allocs.store(true);
    for (std::size_t off = 0; off < split.size(); off += record) {
      map(std::string_view(base + off, record), ctx);
    }
    g_count_allocs.store(false);
    points += split_points;
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
  state.counters["ns_per_point"] = benchmark::Counter(
      static_cast<double>(points) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["allocs_per_point"] =
      static_cast<double>(g_heap_allocs.load()) / static_cast<double>(points);
}
BENCHMARK(BM_KmeansMap)->ArgName("k")->Arg(16)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("gw_build_type", GW_BUILD_TYPE);
  benchmark::AddCustomContext("gw_cxx_flags", GW_CXX_FLAGS);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

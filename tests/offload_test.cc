// Tests for the host-compute offload engine: the work-stealing ThreadPool
// with futures, the simulator's offload()/join() integration, and the
// bit-identity of simulated results across GW_THREADS settings.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "core/job.h"
#include "gwdfs/fs.h"
#include "util/thread_pool.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(pool.stats().tasks_executed, 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, OneThreadPoolRunsInlineAtJoin) {
  // A 1-thread pool has zero workers: the task must execute on the joining
  // thread itself (the GW_THREADS=1 serial baseline).
  util::ThreadPool pool(1);
  const auto joiner = std::this_thread::get_id();
  auto f = pool.submit([joiner] { return std::this_thread::get_id() == joiner; });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, ParallelForEmptyRangeDoesNothing) {
  util::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(7, 7, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t lo, std::size_t hi, std::size_t) {
                        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                      });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestChunkException) {
  util::ThreadPool pool(4);
  try {
    pool.parallel_for(0, 128, [&](std::size_t, std::size_t, std::size_t c) {
      if (c == 3 || c == 5) throw std::runtime_error(std::to_string(c));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(ThreadPool, WorkIsStolenUnderImbalance) {
  // Sleep-heavy tasks submitted from outside the pool land in the injector;
  // workers and the joining thread drain them concurrently, so total wall
  // time stays far below the serial sum even on a single hardware core.
  util::ThreadPool pool(4);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<util::Future<int>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(pool.submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return i;
    }));
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(futures[i].get(), i);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(wall, 0.45);  // serial would be 0.6s
}

TEST(ThreadPool, TaskIdsIndependentOfThreadCount) {
  // Submission order fixes the task ids; parallel_for chunks inherit the
  // enclosing task's id — for every pool size.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    std::vector<util::Future<std::uint64_t>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(pool.submit([&pool] {
        const std::uint64_t mine = util::ThreadPool::current_task_id();
        std::atomic<bool> uniform{true};
        pool.parallel_for(0, 64, [&](std::size_t, std::size_t, std::size_t) {
          if (util::ThreadPool::current_task_id() != mine) uniform = false;
        });
        return uniform ? mine : std::uint64_t{0};
      }));
    }
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(futures[i].get(), i + 1) << "pool size " << threads;
    }
  }
}

TEST(ThreadPool, AbandonedTaskIsCancelledNotRun) {
  // Dropping every Future handle before the task ran must cancel it: task
  // closures may reference coroutine-frame state that dies with the handle
  // (regression test for a use-after-free at static destruction).
  std::atomic<bool> ran{false};
  {
    util::ThreadPool pool(1);  // zero workers: the task stays queued
    { auto f = pool.submit([&ran] { ran = true; }); }
  }
  EXPECT_FALSE(ran.load());
}

// GW_THREADS takes a whole number from 0 (hardware concurrency) to
// kMaxThreads and nothing else. The parse is tested on its own, so no test
// starts a pool of a size it refuses.
TEST(ThreadPool, ThreadCountParseAcceptsOnlyZeroToMax) {
  EXPECT_EQ(util::parse_thread_count("0"), 0u);
  EXPECT_EQ(util::parse_thread_count("1"), 1u);
  EXPECT_EQ(util::parse_thread_count("04"), 4u);
  EXPECT_EQ(util::parse_thread_count("256"), util::ThreadPool::kMaxThreads);
  for (const char* bad : {"", "-1", "+4", " 4", "4 ", "abc", "4x", "0x10",
                          "257", "5000", "100000", "18446744073709551616"}) {
    EXPECT_EQ(util::parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

// A GW_THREADS the parse refuses aborts with a message naming the variable,
// before the pool starts any thread.
TEST(ThreadPoolDeathTest, RefusedGwThreadsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"-1", "abc", "5000"}) {
    EXPECT_DEATH(
        {
          setenv("GW_THREADS", bad, 1);
          util::ThreadPool pool;
        },
        "GW_THREADS=\"[^\"]*\": expected a whole number from 0")
        << bad;
  }
}

sim::Task<> offload_one(sim::Simulation& sim, double charge, int* out) {
  auto f = sim.offload([] { return 7; });
  co_await sim.delay(charge);
  *out = co_await sim.join(std::move(f));
}

TEST(Offload, JoinDoesNotAdvanceSimulatedTime) {
  util::ThreadPool::reset_global(1);
  sim::Simulation sim;
  int value = 0;
  sim.spawn(offload_one(sim, 1.5, &value));
  sim.run();
  EXPECT_EQ(value, 7);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.offload_joins(), 1u);
}

sim::Task<> offload_sleeper(sim::Simulation& sim, int* done) {
  auto f = sim.offload([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return 1;
  });
  co_await sim.delay(1.0);  // simulated charge window
  *done += co_await sim.join(std::move(f));
}

TEST(Offload, PendingJobsOverlapAcrossSimulatedNodes) {
  // Three "nodes" each offload a 100ms job inside a simulated charge
  // window. The jobs overlap in wall-clock (they sleep on pool threads),
  // so the run takes ~1 job's time, not 3 — on any host core count.
  util::ThreadPool::reset_global(4);
  sim::Simulation sim;
  int done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) sim.spawn(offload_sleeper(sim, &done));
  sim.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  util::ThreadPool::reset_global(1);
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_LT(wall, 0.25);  // serial execution would be >= 0.3s
}

// One full 4-node wordcount job; returns everything an output can depend on.
struct JobOutcome {
  core::JobResult result;
  std::vector<util::Bytes> files;
};

JobOutcome run_wordcount_job() {
  Platform p(ClusterSpec::homogeneous(
      4, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
  dfs::Dfs fs(p, dfs::DfsConfig{});
  util::Bytes text = apps::generate_wiki_text(1 << 20, 2014);
  p.sim().spawn([](dfs::Dfs& f, util::Bytes t) -> sim::Task<> {
    co_await f.write_distributed("/in", std::move(t));
  }(fs, std::move(text)));
  p.sim().run();

  core::JobConfig cfg;
  cfg.input_paths = {"/in"};
  cfg.output_path = "/out";
  cfg.split_size = 128 << 10;
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  JobOutcome out;
  out.result = rt.run(apps::wordcount().kernels, cfg);

  for (const auto& path : out.result.output_files) {
    util::Bytes data;
    p.sim().spawn([](dfs::Dfs& f, const std::string& pth,
                     util::Bytes* d) -> sim::Task<> {
      *d = co_await f.read_all(0, pth);
    }(fs, path, &data));
    p.sim().run();
    out.files.push_back(std::move(data));
  }
  return out;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(OffloadDeterminism, WordcountBitIdenticalAcrossThreadCounts) {
  util::ThreadPool::reset_global(1);
  const JobOutcome base = run_wordcount_job();
  ASSERT_GT(base.result.stats.output_pairs, 0u);
  ASSERT_FALSE(base.files.empty());

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool::reset_global(threads);
    const JobOutcome got = run_wordcount_job();
    SCOPED_TRACE("GW_THREADS=" + std::to_string(threads));

    EXPECT_EQ(bits(got.result.elapsed_seconds),
              bits(base.result.elapsed_seconds));
    EXPECT_EQ(bits(got.result.map_phase_seconds),
              bits(base.result.map_phase_seconds));
    EXPECT_EQ(bits(got.result.merge_delay_seconds),
              bits(base.result.merge_delay_seconds));
    EXPECT_EQ(bits(got.result.reduce_phase_seconds),
              bits(base.result.reduce_phase_seconds));
    EXPECT_EQ(bits(got.result.stages.partition),
              bits(base.result.stages.partition));
    EXPECT_EQ(bits(got.result.stages.kernel), bits(base.result.stages.kernel));
    EXPECT_EQ(bits(got.result.stages.reduce_kernel),
              bits(base.result.stages.reduce_kernel));

    const core::JobStats& a = got.result.stats;
    const core::JobStats& b = base.result.stats;
    EXPECT_EQ(a.input_records, b.input_records);
    EXPECT_EQ(a.intermediate_pairs, b.intermediate_pairs);
    EXPECT_EQ(a.intermediate_bytes, b.intermediate_bytes);
    EXPECT_EQ(a.intermediate_stored, b.intermediate_stored);
    EXPECT_EQ(a.output_pairs, b.output_pairs);
    EXPECT_EQ(a.shuffle_bytes_remote, b.shuffle_bytes_remote);
    EXPECT_EQ(a.spills, b.spills);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.merge_fanin_runs, b.merge_fanin_runs);
    EXPECT_EQ(a.hash_table_probes, b.hash_table_probes);
    EXPECT_EQ(a.map_kernel.ops, b.map_kernel.ops);
    EXPECT_EQ(a.map_kernel.bytes_read, b.map_kernel.bytes_read);
    EXPECT_EQ(a.map_kernel.atomic_ops, b.map_kernel.atomic_ops);
    EXPECT_EQ(a.reduce_kernel.ops, b.reduce_kernel.ops);

    ASSERT_EQ(got.result.output_files, base.result.output_files);
    ASSERT_EQ(got.files.size(), base.files.size());
    for (std::size_t i = 0; i < got.files.size(); ++i) {
      EXPECT_EQ(got.files[i], base.files[i]) << "output file " << i;
    }
  }
  util::ThreadPool::reset_global(1);
}

}  // namespace
}  // namespace gw

// Tests for the per-node memory governor and the budgeted external
// shuffle/sort path: byte-identical outputs at every budget point, peak
// occupancy never exceeding the budget, multi-level merges under tight
// budgets, and spill/merge counter hygiene across recovery rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/wordcount.h"
#include "core/job.h"
#include "core/memory.h"
#include "gwdfs/fs.h"
#include "sim/sim.h"
#include "util/thread_pool.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

// One full 4-node wordcount job under an optional memory budget; returns
// everything the byte-identity property can depend on.
struct JobOutcome {
  core::JobResult result;
  std::vector<util::Bytes> files;
};

JobOutcome run_wordcount_job(std::uint64_t node_memory_bytes,
                             bool with_crash = false) {
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
  cfg.node_memory_bytes = node_memory_bytes;
  if (with_crash) {
    cfg.output_replication = 2;
    cfg.crash_events.push_back({.node = 1, .time = 1e-3});
  }
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

void expect_same_output(const JobOutcome& got, const JobOutcome& base) {
  EXPECT_EQ(got.result.stats.output_pairs, base.result.stats.output_pairs);
  ASSERT_EQ(got.result.output_files, base.result.output_files);
  ASSERT_EQ(got.files.size(), base.files.size());
  for (std::size_t i = 0; i < got.files.size(); ++i) {
    EXPECT_EQ(got.files[i], base.files[i]) << "output file " << i;
  }
}

TEST(MemoryGovernor, PoolBudgetsPartitionTheNodeBudget) {
  // Legacy (no combine pool): the four original pools partition the budget
  // exactly and the combine slot is a 1-byte inert placeholder, so the
  // legacy pool capacities (and event order) are untouched.
  sim::Simulation sim;
  core::MemoryGovernor gov(sim, 100 << 20);
  std::uint64_t total = 0;
  for (int i = 0; i < core::MemoryGovernor::kNumPools; ++i) {
    const auto p = static_cast<core::MemoryGovernor::Pool>(i);
    if (p == core::MemoryGovernor::Pool::kCombine) {
      EXPECT_EQ(gov.pool_budget(p), 1u);
      continue;
    }
    total += gov.pool_budget(p);
  }
  EXPECT_EQ(total, gov.budget_bytes());
  EXPECT_EQ(gov.peak_bytes(), 0u);
  EXPECT_DOUBLE_EQ(gov.stall_seconds(), 0.0);
}

TEST(MemoryGovernor, CombinePoolCarvedOutOfStoreShare) {
  // With the combine pool enabled all five pools partition the budget; the
  // carve-out comes from the store share, so map-side pools are unchanged.
  sim::Simulation sim;
  core::MemoryGovernor legacy(sim, 100 << 20);
  core::MemoryGovernor gov(sim, 100 << 20, /*with_combine_pool=*/true);
  std::uint64_t total = 0;
  for (int i = 0; i < core::MemoryGovernor::kNumPools; ++i) {
    total += gov.pool_budget(static_cast<core::MemoryGovernor::Pool>(i));
  }
  EXPECT_EQ(total, gov.budget_bytes());
  EXPECT_GT(gov.pool_budget(core::MemoryGovernor::Pool::kCombine), 1u);
  EXPECT_LT(gov.pool_budget(core::MemoryGovernor::Pool::kStore),
            legacy.pool_budget(core::MemoryGovernor::Pool::kStore));
  EXPECT_EQ(gov.pool_budget(core::MemoryGovernor::Pool::kMapIn),
            legacy.pool_budget(core::MemoryGovernor::Pool::kMapIn));
  EXPECT_EQ(gov.pool_budget(core::MemoryGovernor::Pool::kMapOut),
            legacy.pool_budget(core::MemoryGovernor::Pool::kMapOut));
}

TEST(MemoryGovernor, OversizeRequestClampsToPoolCapacity) {
  // A request larger than the whole pool is admitted at full-pool size so a
  // single oversized buffer can always be processed (no wedged producer).
  sim::Simulation sim;
  core::MemoryGovernor gov(sim, 1 << 20);
  const auto pool = core::MemoryGovernor::Pool::kStore;
  bool done = false;
  sim.spawn([](sim::Simulation&, core::MemoryGovernor& g,
               core::MemoryGovernor::Pool p, bool* flag) -> sim::Task<> {
    auto hold = co_await g.acquire(p, 1ull << 40);
    *flag = true;
  }(sim, gov, pool, &done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_LE(gov.peak_bytes(), gov.budget_bytes());
}

TEST(MemoryGovernor, AcquireBlocksOnSimClockUnderPressure) {
  // Two holders of the full store pool: the second acquire must wait on the
  // simulated clock until the first releases, and the wait is accounted as
  // governor stall time.
  sim::Simulation sim;
  core::MemoryGovernor gov(sim, 1 << 20);
  const auto pool = core::MemoryGovernor::Pool::kStore;
  const std::uint64_t all = gov.pool_budget(pool);
  double second_at = -1;
  sim.spawn([](sim::Simulation& s, core::MemoryGovernor& g,
               core::MemoryGovernor::Pool p, std::uint64_t n) -> sim::Task<> {
    auto hold = co_await g.acquire(p, n);
    co_await s.delay(2.0);
  }(sim, gov, pool, all));
  sim.spawn([](sim::Simulation& s, core::MemoryGovernor& g,
               core::MemoryGovernor::Pool p, std::uint64_t n,
               double* at) -> sim::Task<> {
    auto hold = co_await g.acquire(p, n);
    *at = s.now();
  }(sim, gov, pool, all, &second_at));
  sim.run();
  EXPECT_DOUBLE_EQ(second_at, 2.0);
  EXPECT_DOUBLE_EQ(gov.stall_seconds(), 2.0);
  EXPECT_LE(gov.peak_bytes(), gov.budget_bytes());
}

TEST(MemoryGovernor, ZeroBudgetIsUnboundedButMeasured) {
  // Budget 0: every pool is unbounded, so any acquire completes without
  // suspending (await_ready) and nothing stalls, yet every hold still
  // counts toward the peak.
  sim::Simulation sim;
  core::MemoryGovernor gov(sim, 0, /*with_combine_pool=*/true);
  EXPECT_FALSE(gov.bounded());
  std::vector<sim::Resource::Hold> holds;
  std::uint64_t held = 0;
  for (int i = 0; i < core::MemoryGovernor::kNumPools; ++i) {
    const auto p = static_cast<core::MemoryGovernor::Pool>(i);
    for (const std::uint64_t bytes :
         {std::uint64_t{1}, std::uint64_t{1} << 40}) {
      SCOPED_TRACE("pool " + std::to_string(i) + " bytes " +
                   std::to_string(bytes));
      EXPECT_TRUE(gov.fits(p, bytes));
      auto acquire = gov.acquire(p, bytes);
      ASSERT_TRUE(acquire.await_ready());
      holds.push_back(acquire.await_resume());
      held += bytes;
      EXPECT_EQ(gov.peak_bytes(), held);
    }
    EXPECT_FALSE(gov.contended(p));
  }
  // Releasing and re-acquiring less leaves the peak at the largest sum.
  holds.clear();
  auto again = gov.acquire(core::MemoryGovernor::Pool::kStore, 4096);
  ASSERT_TRUE(again.await_ready());
  const sim::Resource::Hold small = again.await_resume();
  EXPECT_EQ(gov.peak_bytes(), held);
  EXPECT_EQ(held, core::MemoryGovernor::kNumPools *
                      ((std::uint64_t{1} << 40) + 1));
  EXPECT_DOUBLE_EQ(gov.stall_seconds(), 0.0);
}

TEST(MemoryGovernedJob, ByteIdenticalOutputsAcrossBudgetsAndThreads) {
  // The paper's graceful-degradation property: shrinking the node memory
  // budget from unlimited down to a quarter of the intermediate volume may
  // cost time (spills, multi-level merges) but must never change a single
  // output byte — at any host thread count.
  util::ThreadPool::reset_global(1);
  const JobOutcome base = run_wordcount_job(0);
  ASSERT_GT(base.result.stats.output_pairs, 0u);
  ASSERT_FALSE(base.files.empty());
  EXPECT_GT(base.result.stats.peak_mem_bytes, 0u);  // unbounded, measured
  EXPECT_EQ(base.result.stats.spill_bytes, 0u);

  const std::uint64_t volume = base.result.stats.intermediate_stored;
  ASSERT_GT(volume, 0u);
  const std::uint64_t budgets[] = {4 * volume, volume, volume / 4};

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool::reset_global(threads);
    for (std::uint64_t budget : budgets) {
      SCOPED_TRACE("GW_THREADS=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      const JobOutcome got = run_wordcount_job(budget);
      expect_same_output(got, base);
      EXPECT_LE(got.result.stats.peak_mem_bytes, budget);
    }
  }
  util::ThreadPool::reset_global(1);
}

TEST(MemoryGovernedJob, TightBudgetSpillsAndMergesMultiLevel) {
  // A budget of 1/8 the intermediate volume must force external operation:
  // sorted runs spill to disk and consolidate through >= 2 merge levels,
  // with peak occupancy still under the budget and stalls accounted.
  util::ThreadPool::reset_global(1);
  const JobOutcome base = run_wordcount_job(0);
  const std::uint64_t volume = base.result.stats.intermediate_stored;
  ASSERT_GT(volume, 0u);

  const JobOutcome tight = run_wordcount_job(volume / 8);
  expect_same_output(tight, base);
  const core::JobStats& s = tight.result.stats;
  EXPECT_GT(s.spills, 0u);
  EXPECT_GT(s.spill_bytes, 0u);
  EXPECT_GE(s.merge_levels, 2u);
  EXPECT_GT(s.peak_mem_bytes, 0u);
  EXPECT_LE(s.peak_mem_bytes, volume / 8);
  EXPECT_GE(s.mem_stall_seconds, 0.0);
  // External operation costs time, never correctness.
  EXPECT_GE(tight.result.elapsed_seconds, base.result.elapsed_seconds);
}

TEST(MemoryGovernedJob, RecoveryRoundResetsSpillStateCleanly) {
  // A node crash mid-job forces a recovery round that reopens the
  // intermediate stores. The governed job must still produce the same
  // output as a governed failure-free run, and its counters must reflect a
  // consistent store state (satellite: reset()/drain hygiene).
  util::ThreadPool::reset_global(1);
  const JobOutcome base = run_wordcount_job(0);
  const std::uint64_t volume = base.result.stats.intermediate_stored;
  ASSERT_GT(volume, 0u);

  const JobOutcome crashed = run_wordcount_job(volume / 4, /*with_crash=*/true);
  EXPECT_GT(crashed.result.stats.tasks_reexecuted, 0u);
  EXPECT_EQ(crashed.result.stats.output_pairs, base.result.stats.output_pairs);
  EXPECT_LE(crashed.result.stats.peak_mem_bytes, volume / 4);
  ASSERT_EQ(crashed.files.size(), base.files.size());
  for (std::size_t i = 0; i < crashed.files.size(); ++i) {
    EXPECT_EQ(crashed.files[i], base.files[i]) << "output file " << i;
  }
}

}  // namespace
}  // namespace gw

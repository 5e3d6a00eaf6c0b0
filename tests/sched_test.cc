// Multi-tenant scheduler tests: concurrent jobs on a shared cluster must
// produce byte-identical outputs to solo runs, stay deterministic across
// GW_THREADS settings, respect admission control, avoid priority
// starvation (aging), and survive a tenant's node crashes.
#include <algorithm>
#include <bit>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/workload.h"
#include "core/pipeline.h"
#include "core/sched.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gw::core {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

Platform make_platform(int nodes) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(),
      net::NetworkProfile::qdr_infiniband_ipoib()));
}

// --- tiny inline wordcount (same app as core_job_test) ---

void wc_map(std::string_view record, MapContext& ctx) {
  std::size_t i = 0;
  while (i < record.size()) {
    while (i < record.size() &&
           !std::isalpha(static_cast<unsigned char>(record[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < record.size() &&
           std::isalpha(static_cast<unsigned char>(record[i]))) {
      ++i;
    }
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
  app.combine_associative = true;  // summing counts re-combines freely
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

void write_file(Platform& p, dfs::FileSystem& fs, const std::string& path,
                const std::string& contents) {
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   std::string c) -> sim::Task<> {
    co_await f.write(0, pa, util::Bytes(c.begin(), c.end()));
  }(fs, path, contents));
  p.sim().run();
}

util::Bytes read_file(Platform& p, dfs::FileSystem& fs,
                      const std::string& path) {
  util::Bytes out;
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   util::Bytes* o) -> sim::Task<> {
    const int node = f.block_locations(pa, 0).front();
    *o = co_await f.read_all(node, pa);
  }(fs, path, &out));
  p.sim().run();
  return out;
}

// All of a job's output files, path -> raw bytes (sorted by path).
std::map<std::string, util::Bytes> output_bytes(Platform& p,
                                                dfs::FileSystem& fs,
                                                const JobResult& r) {
  std::map<std::string, util::Bytes> out;
  for (const auto& path : r.output_files) {
    out[path] = read_file(p, fs, path);
  }
  return out;
}

std::map<std::string, std::uint64_t> output_counts(Platform& p,
                                                   dfs::FileSystem& fs,
                                                   const JobResult& r) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& path : r.output_files) {
    util::Bytes contents = read_file(p, fs, path);
    for (auto& [k, v] : read_output_file(contents)) {
      counts[k] += parse_count(v);
    }
  }
  return counts;
}

apps::WorkloadConfig small_workload(int jobs, double rate) {
  apps::WorkloadConfig wl;
  wl.jobs = jobs;
  wl.tenants = 2;
  wl.arrival_rate_jobs_per_s = rate;
  wl.seed = 11;
  wl.small_bytes = 192 << 10;
  wl.large_bytes = 512 << 10;
  wl.small_split_bytes = 64 << 10;
  wl.large_split_bytes = 128 << 10;
  return wl;
}

// Solo baseline: the same workload's jobs executed one at a time through
// the legacy single-job entry point, on a fresh identical cluster.
std::vector<std::map<std::string, util::Bytes>> run_solo(
    const apps::WorkloadConfig& wl, int nodes) {
  Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  auto requests = apps::make_mixed_workload(p, fs, wl);
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  std::vector<std::map<std::string, util::Bytes>> out;
  for (auto& req : requests) {
    JobResult r = rt.run(req.app, req.config);
    out.push_back(output_bytes(p, fs, r));
  }
  return out;
}

struct SharedRun {
  std::vector<std::map<std::string, util::Bytes>> outputs;
  std::vector<double> latencies;
  int resident_peak = 0;
  double makespan = 0;
};

SharedRun run_shared(const apps::WorkloadConfig& wl, int nodes,
                     SchedPolicy policy, int max_resident = 4) {
  Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  auto requests = apps::make_mixed_workload(p, fs, wl);
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.policy = policy;
  sc.max_resident_jobs = max_resident;
  Scheduler sched(rt, p, fs, sc);
  for (auto& req : requests) sched.submit(std::move(req));
  const double t0 = p.sim().now();
  sched.run_all();
  SharedRun out;
  out.makespan = p.sim().now() - t0;
  out.resident_peak = sched.resident_peak();
  for (const auto& j : sched.results()) {
    EXPECT_FALSE(j.rejected);
    EXPECT_FALSE(j.failed);
    out.outputs.push_back(output_bytes(p, fs, j.result));
    out.latencies.push_back(j.latency_s);
  }
  return out;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// --- byte identity: solo vs concurrent, across GW_THREADS ---

TEST(Sched, ConcurrentMixedJobsByteIdenticalToSoloAcrossThreadCounts) {
  const int kNodes = 8;
  // High offered load so all four jobs are resident together.
  const apps::WorkloadConfig wl = small_workload(4, 200.0);

  util::ThreadPool::reset_global(1);
  const auto solo = run_solo(wl, kNodes);
  ASSERT_EQ(solo.size(), 4u);
  for (const auto& job : solo) ASSERT_FALSE(job.empty());

  SharedRun base;
  bool have_base = false;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool::reset_global(threads);
    SCOPED_TRACE("GW_THREADS=" + std::to_string(threads));
    SharedRun shared = run_shared(wl, kNodes, SchedPolicy::kFifo);
    ASSERT_EQ(shared.outputs.size(), solo.size());
    EXPECT_GE(shared.resident_peak, 2);
    // Each concurrent job's output files: same names, same bytes as its
    // solo run.
    for (std::size_t i = 0; i < solo.size(); ++i) {
      EXPECT_EQ(shared.outputs[i], solo[i]) << "job " << i;
    }
    // And the whole multi-tenant timeline is GW_THREADS-invariant.
    if (!have_base) {
      base = std::move(shared);
      have_base = true;
    } else {
      EXPECT_EQ(bits(shared.makespan), bits(base.makespan));
      for (std::size_t i = 0; i < base.latencies.size(); ++i) {
        EXPECT_EQ(bits(shared.latencies[i]), bits(base.latencies[i]));
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

TEST(Sched, SingleJobThroughSchedulerMatchesSolo) {
  const int kNodes = 8;
  const apps::WorkloadConfig wl = small_workload(1, 1.0);
  const auto solo = run_solo(wl, kNodes);
  ASSERT_EQ(solo.size(), 1u);
  SharedRun shared = run_shared(wl, kNodes, SchedPolicy::kFifo);
  ASSERT_EQ(shared.outputs.size(), 1u);
  EXPECT_EQ(shared.outputs[0], solo[0]);
  EXPECT_EQ(shared.resident_peak, 1);
}

// --- admission control ---

TEST(Sched, AdmissionControlBoundsResidency) {
  const apps::WorkloadConfig wl = small_workload(4, 200.0);
  SharedRun one = run_shared(wl, 4, SchedPolicy::kFifo, /*max_resident=*/1);
  EXPECT_EQ(one.resident_peak, 1);
  SharedRun two = run_shared(wl, 4, SchedPolicy::kFifo, /*max_resident=*/2);
  EXPECT_LE(two.resident_peak, 2);
}

TEST(Sched, BoundedQueueRejectsOverflow) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  const std::string text = make_text(400, 3);
  write_file(p, fs, "/in/t", text);
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.max_resident_jobs = 1;
  sc.max_queued_jobs = 1;
  Scheduler sched(rt, p, fs, sc);
  for (int i = 0; i < 4; ++i) {
    JobRequest req;
    req.name = "wc";
    req.app = wordcount_app();
    req.config.input_paths = {"/in/t"};
    req.config.output_path = "/out/j" + std::to_string(i);
    req.config.split_size = 32 << 10;
    req.arrival_s = 0.0001 * i;  // all arrive while job 0 still runs
    sched.submit(std::move(req));
  }
  sched.run_all();
  EXPECT_GT(sched.jobs_rejected(), 0);
  EXPECT_EQ(sched.jobs_failed(), 0);
  int finished = 0;
  for (const auto& j : sched.results()) {
    if (!j.rejected) {
      EXPECT_FALSE(j.failed);
      ++finished;
    }
  }
  EXPECT_EQ(finished + sched.jobs_rejected(), 4);
}

// --- starvation guard: priority aging ---

double low_priority_admit_time(double aging_s) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/t", make_text(600, 5));
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kPriority;
  sc.max_resident_jobs = 1;
  sc.priority_aging_s = aging_s;
  Scheduler sched(rt, p, fs, sc);
  // A steady stream of urgent (class 0) jobs...
  for (int i = 0; i < 8; ++i) {
    JobRequest req;
    req.name = "hot";
    req.app = wordcount_app();
    req.config.input_paths = {"/in/t"};
    req.config.output_path = "/out/hot" + std::to_string(i);
    req.config.split_size = 32 << 10;
    req.priority = 0;
    req.arrival_s = 0.002 * i;
    sched.submit(std::move(req));
  }
  // ...and one cold batch job (class 1) arriving near the front.
  JobRequest cold;
  cold.name = "cold";
  cold.app = wordcount_app();
  cold.config.input_paths = {"/in/t"};
  cold.config.output_path = "/out/cold";
  cold.config.split_size = 32 << 10;
  cold.priority = 1;
  cold.arrival_s = 0.001;
  const int cold_id = sched.submit(std::move(cold));
  sched.run_all();
  const auto& r = sched.results()[static_cast<std::size_t>(cold_id)];
  EXPECT_FALSE(r.rejected);
  EXPECT_FALSE(r.failed);
  return r.admit_s;
}

TEST(Sched, PriorityAgingGuardsAgainstStarvation) {
  const double strict = low_priority_admit_time(0);
  const double aged = low_priority_admit_time(0.01);
  // Strict classes make the cold job wait out every hot job; aging promotes
  // it past later hot arrivals.
  EXPECT_LT(aged, strict);
}

// --- fair vs fifo: the light tenant's small jobs shouldn't queue behind
// the heavy tenant's backlog ---

TEST(Sched, FairShareHelpsLightTenantOverFifo) {
  auto light_wait = [](SchedPolicy policy) {
    Platform p = make_platform(2);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/big", make_text(4000, 7));
    write_file(p, fs, "/in/small", make_text(200, 8));
    GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    SchedulerConfig sc;
    sc.policy = policy;
    sc.max_resident_jobs = 1;
    Scheduler sched(rt, p, fs, sc);
    std::vector<int> small_ids;
    for (int i = 0; i < 6; ++i) {
      const bool heavy = i % 2 == 0;  // tenant 0 submits big jobs
      JobRequest req;
      req.name = heavy ? "big" : "small";
      req.tenant = heavy ? 0 : 1;
      req.app = wordcount_app();
      req.config.input_paths = {heavy ? "/in/big" : "/in/small"};
      req.config.output_path = "/out/j" + std::to_string(i);
      req.config.split_size = 32 << 10;
      req.arrival_s = 0.001 * i;
      const int id = sched.submit(std::move(req));
      if (!heavy) small_ids.push_back(id);
    }
    sched.run_all();
    double total = 0;
    for (int id : small_ids) {
      total += sched.results()[static_cast<std::size_t>(id)].queue_wait_s;
    }
    return total;
  };
  const double fifo = light_wait(SchedPolicy::kFifo);
  const double fair = light_wait(SchedPolicy::kFair);
  EXPECT_LT(fair, fifo);
}

// --- crashes under multi-tenancy ---

class SchedCrash : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(SchedCrash, NeighbourCrashDoesNotHangOrCorruptOtherTenants) {
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  const std::string text = make_text(1500, 9);
  write_file(p, fs, "/in/t", text);
  const auto expected = reference_counts(text);
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.policy = GetParam();
  sc.max_resident_jobs = 4;
  Scheduler sched(rt, p, fs, sc);
  for (int i = 0; i < 4; ++i) {
    JobRequest req;
    req.name = "wc" + std::to_string(i);
    req.tenant = i % 2;
    req.app = wordcount_app();
    req.config.input_paths = {"/in/t"};
    req.config.output_path = "/out/j" + std::to_string(i);
    req.config.split_size = 32 << 10;
    req.arrival_s = 0.0005 * i;
    if (i == 0) {
      // Tenant 0's first job kills node 3 early in its map phase; every
      // resident neighbour must run the fault-tolerant protocol
      // (expect_crashes) and finish correctly on the survivors.
      req.config.crash_events.push_back(
          JobConfig::CrashEvent{3, 0.004, -1});
    }
    sched.submit(std::move(req));
  }
  sched.run_all();
  ASSERT_EQ(sched.jobs_failed(), 0);
  ASSERT_EQ(sched.jobs_rejected(), 0);
  for (const auto& j : sched.results()) {
    EXPECT_EQ(output_counts(p, fs, j.result), expected) << j.name;
    EXPECT_GT(j.result.stats.output_pairs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedCrash,
                         ::testing::Values(SchedPolicy::kFifo,
                                           SchedPolicy::kFair,
                                           SchedPolicy::kPriority),
                         [](const ::testing::TestParamInfo<SchedPolicy>& i) {
                           return std::string(sched_policy_name(i.param));
                         });

// --- checkpoint-based preemption ---

struct PreemptOutcome {
  std::map<std::string, util::Bytes> victim_output;
  int preemptions = 0;
  int resumes = 0;
  int sched_preempts = 0;
  int sched_resumes = 0;
  double makespan = 0;
};

// Uninterrupted solo baseline for the preemption victim: same input bytes,
// same config, single-job entry point on an identical fresh cluster.
std::pair<std::map<std::string, util::Bytes>, double> run_victim_solo(
    std::size_t lines) {
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/big", make_text(lines, 21));
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  JobConfig cfg;
  cfg.input_paths = {"/in/big"};
  cfg.output_path = "/out/victim";
  cfg.split_size = 32 << 10;
  JobResult r = rt.run(wordcount_app(), cfg);
  auto bytes = output_bytes(p, fs, r);
  return {std::move(bytes), r.elapsed_seconds};
}

// A class-1 victim starts alone under a preempting priority scheduler; a
// class-0 job arrives at `urgent_arrival_s` and displaces it. Returns the
// victim's final (post-resume) output and the preempt/resume counters.
PreemptOutcome run_preempted(std::size_t lines, double urgent_arrival_s) {
  Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/big", make_text(lines, 21));
  write_file(p, fs, "/in/small", make_text(80, 22));
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kPriority;
  sc.max_resident_jobs = 1;
  sc.preemption = true;
  Scheduler sched(rt, p, fs, sc);
  JobRequest victim;
  victim.name = "victim";
  victim.priority = 1;
  victim.app = wordcount_app();
  victim.config.input_paths = {"/in/big"};
  victim.config.output_path = "/out/victim";
  victim.config.split_size = 32 << 10;
  const int vid = sched.submit(std::move(victim));
  JobRequest urgent;
  urgent.name = "urgent";
  urgent.priority = 0;
  urgent.app = wordcount_app();
  urgent.config.input_paths = {"/in/small"};
  urgent.config.output_path = "/out/urgent";
  urgent.config.split_size = 32 << 10;
  urgent.arrival_s = urgent_arrival_s;
  sched.submit(std::move(urgent));
  const double t0 = p.sim().now();
  sched.run_all();
  PreemptOutcome out;
  out.makespan = p.sim().now() - t0;
  EXPECT_EQ(sched.jobs_failed(), 0);
  EXPECT_EQ(sched.jobs_rejected(), 0);
  const auto& v = sched.results()[static_cast<std::size_t>(vid)];
  out.preemptions = v.preemptions;
  out.resumes = v.resumes;
  out.sched_preempts = sched.jobs_preempted();
  out.sched_resumes = sched.jobs_resumed();
  out.victim_output = output_bytes(p, fs, v.result);
  return out;
}

// The acceptance matrix: a priority submission displaces the resident
// lower-class job at {early map, mid shuffle, late reduce} points of its
// run, and the displaced job's final output stays byte-identical to the
// uninterrupted solo run at GW_THREADS {1, 2, 8}, with exact counters.
TEST(SchedPreempt, DisplacedJobByteIdenticalAcrossPhasesAndThreadCounts) {
  const std::size_t kLines = 3000;
  util::ThreadPool::reset_global(1);
  const auto [solo, solo_elapsed] = run_victim_solo(kLines);
  ASSERT_FALSE(solo.empty());
  ASSERT_GT(solo_elapsed, 0);

  for (const double frac : {0.1, 0.4, 0.7}) {
    SCOPED_TRACE("urgent arrival at " + std::to_string(frac) +
                 " of the victim's solo runtime");
    PreemptOutcome base;
    bool have_base = false;
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      util::ThreadPool::reset_global(threads);
      SCOPED_TRACE("GW_THREADS=" + std::to_string(threads));
      PreemptOutcome o = run_preempted(kLines, frac * solo_elapsed);
      // Exactly one suspension and one resumed residency.
      EXPECT_EQ(o.preemptions, 1);
      EXPECT_EQ(o.resumes, 1);
      EXPECT_EQ(o.sched_preempts, 1);
      EXPECT_EQ(o.sched_resumes, 1);
      // Same file names, same bytes as the uninterrupted run.
      EXPECT_EQ(o.victim_output, solo);
      // And the whole preempted timeline is GW_THREADS-invariant.
      if (!have_base) {
        base = std::move(o);
        have_base = true;
      } else {
        EXPECT_EQ(bits(o.makespan), bits(base.makespan));
      }
    }
  }
  util::ThreadPool::reset_global(0);
}

TEST(SchedPreempt, FifoNeverRevokes) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/t", make_text(1200, 13));
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.policy = SchedPolicy::kFifo;
  sc.max_resident_jobs = 1;
  sc.preemption = true;
  Scheduler sched(rt, p, fs, sc);
  for (int i = 0; i < 3; ++i) {
    JobRequest req;
    req.name = "wc" + std::to_string(i);
    req.app = wordcount_app();
    req.config.input_paths = {"/in/t"};
    req.config.output_path = "/out/j" + std::to_string(i);
    req.config.split_size = 32 << 10;
    req.arrival_s = 0.001 * i;
    sched.submit(std::move(req));
  }
  sched.run_all();
  EXPECT_EQ(sched.jobs_preempted(), 0);
  EXPECT_EQ(sched.jobs_resumed(), 0);
  EXPECT_EQ(sched.jobs_failed(), 0);
}

// --- elastic slot shares: the fair policy's small jobs shouldn't tail
// behind a resident large job's whole phase ---

TEST(SchedElastic, FairElasticPreemptionImprovesSmallJobTailLatency) {
  auto small_p99 = [](bool elastic) {
    Platform p = make_platform(4);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    write_file(p, fs, "/in/big", make_text(5000, 17));
    write_file(p, fs, "/in/small", make_text(150, 18));
    GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    SchedulerConfig sc;
    sc.policy = SchedPolicy::kFair;
    sc.max_resident_jobs = 2;
    sc.preemption = elastic;
    sc.elastic_slots = elastic;
    Scheduler sched(rt, p, fs, sc);
    std::vector<int> small_ids;
    for (int i = 0; i < 6; ++i) {
      const bool heavy = i < 2;  // tenant 0 front-loads two big jobs
      JobRequest req;
      req.name = heavy ? "big" : "small";
      req.tenant = heavy ? 0 : 1;
      req.app = wordcount_app();
      req.config.input_paths = {heavy ? "/in/big" : "/in/small"};
      req.config.output_path = "/out/j" + std::to_string(i);
      req.config.split_size = 32 << 10;
      req.arrival_s = 0.001 * i;
      const int id = sched.submit(std::move(req));
      if (!heavy) small_ids.push_back(id);
    }
    sched.run_all();
    EXPECT_EQ(sched.jobs_failed(), 0);
    double p99 = 0;
    for (int id : small_ids) {
      p99 = std::max(p99,
                     sched.results()[static_cast<std::size_t>(id)].latency_s);
    }
    return p99;
  };
  const double rigid = small_p99(false);
  const double elastic = small_p99(true);
  EXPECT_LT(elastic, rigid);
}

// --- port-window recycling: the old `stride * (id + 1)` scheme walked off
// the end of the port space after enough sequential jobs ---

TEST(Sched, PortWindowsRecycledAcrossManySequentialJobs) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  write_file(p, fs, "/in/t", make_text(60, 19));
  GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  SchedulerConfig sc;
  sc.max_resident_jobs = 2;
  Scheduler sched(rt, p, fs, sc);
  const int kJobs = 70;  // > 64: past where an unbounded scheme misbehaves
  for (int i = 0; i < kJobs; ++i) {
    JobRequest req;
    req.name = "wc" + std::to_string(i);
    req.app = wordcount_app();
    req.config.input_paths = {"/in/t"};
    req.config.output_path = "/out/j" + std::to_string(i);
    req.config.split_size = 16 << 10;
    req.arrival_s = 0.0005 * i;
    sched.submit(std::move(req));
  }
  sched.run_all();
  EXPECT_EQ(sched.jobs_failed(), 0);
  EXPECT_EQ(sched.jobs_rejected(), 0);
  for (const auto& j : sched.results()) {
    EXPECT_FALSE(j.result.output_files.empty()) << j.name;
  }
  // The port footprint is bounded by peak residency, not job count.
  EXPECT_LE(sched.port_windows_created(), 2);
}

}  // namespace
}  // namespace gw::core

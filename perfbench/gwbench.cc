// gwbench: one sample of a fixed gwrun configuration, measured in-process.
//
// perfbench/run.py starts this binary once per sample, each time in a fresh
// process, and aggregates the samples. One invocation runs one workload
// through the library's public entry points, exactly as `gwrun` would, and
// prints a single JSON object on stdout:
//
//   gwbench --workload=NAME [--seed=N] [--scale=full|tiny] [--check]
//           [--corrupt] [--trace=FILE]
//
//   setup_s      host seconds before the call into the run entry point
//   run_s        host seconds inside GlasswingRuntime::run,
//                Scheduler::run_all or apps::kmeans_dag
//   peak_rss_mb  getrusage peak RSS, read when the run returns
//   sim_s        the simulated result gwrun prints for the same flags
//   kernel_sim_s simulated kernel seconds summed over every device
//   digest       fnv1a over the job outputs (equal across samples)
//
// --check verifies the outputs against the apps' references after the
// measurements; --corrupt alters one output record first, so the check must
// fail. --trace adds the per-layer split: spans around every call into a
// layer (written to FILE as Chrome trace JSON), the layers' public counters
// read at the same boundaries, and replays of the hot data-plane functions
// on inputs shaped like the workload's. No layer is modified: everything is
// timed and counted from outside.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/kmeans.h"
#include "apps/pageview.h"
#include "apps/terasort.h"
#include "apps/wordcount.h"
#include "apps/workload.h"
#include "core/collector.h"
#include "core/job.h"
#include "core/kv.h"
#include "core/sched.h"
#include "util/compress.h"
#include "util/hash.h"
#include "util/thread_pool.h"

#ifndef GWB_BUILD_TYPE
#define GWB_BUILD_TYPE "unknown"
#endif
#ifndef GWB_CXX_FLAGS
#define GWB_CXX_FLAGS "unknown"
#endif

using namespace gw;

namespace {

using Clock = std::chrono::steady_clock;

// Offload pool size for every sample: two threads on a four-core host keep
// run-to-run noise low while still overlapping host work.
constexpr std::size_t kPoolThreads = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

// ---- spans -----------------------------------------------------------------

// Host-time spans recorded around the benchmark's calls into each layer.
// Kept in memory and written out once the sample ends. All spans of one
// sample share its request id (the process).
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  // Total seconds of every span named `name`; nullopt when none ran.
  std::optional<double> total(std::string_view name) const {
    std::optional<double> sum;
    for (const Span& s : spans_) {
      if (s.name == name) sum = sum.value_or(0) + (s.t1 - s.t0);
    }
    return sum;
  }

  bool save_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.t0 * 1e6,
                   (s.t1 - s.t0) * 1e6, s.id, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    double t0 = 0;
    double t1 = 0;
  };

  int open(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), id, parent, seconds_since(origin_), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = seconds_since(origin_);
    stack_.pop_back();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- JSON output -----------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    field(key, std::isfinite(v) ? buf : "null");
  }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c == '\n' ? ' ' : c);
    }
    field(key, quoted + "\"");
  }
  void boolean(const std::string& key, bool v) { field(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

// ---- simulation helpers ----------------------------------------------------

void stage(cluster::Platform& platform, dfs::Dfs& fs, const std::string& path,
           util::Bytes data) {
  platform.sim().spawn([](dfs::Dfs& f, std::string p,
                          util::Bytes d) -> sim::Task<> {
    co_await f.write_distributed(p, std::move(d));
  }(fs, path, std::move(data)));
  platform.sim().run();
}

util::Bytes read_file(cluster::Platform& platform, dfs::FileSystem& fs,
                      const std::string& path) {
  util::Bytes out;
  platform.sim().spawn([](dfs::FileSystem& f, std::string p,
                          util::Bytes* o) -> sim::Task<> {
    *o = co_await f.read_all(f.block_locations(p, 0).front(), p);
  }(fs, path, &out));
  platform.sim().run();
  return out;
}

core::PartitionFn sample_partitioner(cluster::Platform& platform,
                                     dfs::Dfs& fs, const std::string& path) {
  core::PartitionFn fn;
  platform.sim().spawn([](dfs::Dfs& f, std::string p,
                          core::PartitionFn* out) -> sim::Task<> {
    std::vector<std::string> paths = {std::move(p)};
    *out = co_await apps::sample_range_partitioner(f, 0, std::move(paths), 2000);
  }(fs, path, &fn));
  platform.sim().run();
  return fn;
}

cluster::ClusterSpec cluster_spec(int nodes) {
  return cluster::ClusterSpec::homogeneous(
      nodes, cluster::NodeSpec::das4_type1(),
      net::NetworkProfile::qdr_infiniband_ipoib());
}

// The job configuration gwrun builds from its default flags (--split-kb=256).
core::JobConfig gwrun_job_config() {
  core::JobConfig cfg;
  cfg.input_paths = {"/in/data"};
  cfg.output_path = "/out";
  cfg.split_size = 256ull << 10;
  return cfg;
}

std::uint64_t fold(std::uint64_t digest, const util::Bytes& bytes) {
  return digest * 1099511628211ull ^ util::fnv1a(bytes.data(), bytes.size());
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- layer counters --------------------------------------------------------

// Public counters of every layer, read at one boundary.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  double join_block_s = 0;
  std::uint64_t pool_tasks = 0;
  double pool_busy_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t dfs_bytes = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t kernels = 0;
  double kernel_sim_s = 0;
};

Counters read_counters(cluster::Platform& platform, dfs::Dfs& fs,
                       core::GlasswingRuntime& rt) {
  Counters c;
  sim::Simulation& s = platform.sim();
  c.events = s.events_processed();
  c.joins = s.offload_joins();
  c.join_block_s = s.offload_join_block_seconds();
  const util::ThreadPool::Stats ps = util::ThreadPool::global().stats();
  c.pool_tasks = ps.tasks_executed;
  c.pool_busy_s = ps.busy_seconds;
  for (int n = 0; n < platform.num_nodes(); ++n) {
    c.messages += platform.fabric().messages_sent(n);
    for (cl::Device* d : {&rt.device(n), &rt.reduce_device(n)}) {
      c.kernels += d->kernels_launched();
      c.kernel_sim_s += d->total_kernel_seconds();
    }
  }
  c.shuffle_bytes = platform.transport().total_bytes(net::TrafficClass::kShuffle);
  c.dfs_bytes = platform.transport().total_bytes(net::TrafficClass::kDfs);
  c.local_reads = fs.local_reads();
  c.remote_reads = fs.remote_reads();
  return c;
}

void add_stats(core::JobStats& acc, const core::JobStats& s) {
  acc.input_records += s.input_records;
  acc.hash_table_probes += s.hash_table_probes;
  acc.intermediate_pairs += s.intermediate_pairs;
  acc.intermediate_bytes += s.intermediate_bytes;
  acc.intermediate_stored += s.intermediate_stored;
  acc.merges += s.merges;
  acc.merge_fanin_runs += s.merge_fanin_runs;
  acc.spill_bytes += s.spill_bytes;
}

// Per-layer values of one sample, keyed by metric name. A layer the workload
// never calls has no entry, so it is reported as absent rather than as 0.
using Layers = std::map<std::string, double>;

struct Check {
  bool ok = true;
  std::string note;
  void fail(const std::string& why) {
    if (ok) note = why;
    ok = false;
  }
};

struct Sample {
  double setup_s = 0;
  double run_s = 0;
  double rss_mb = 0;
  // Simulated results: exact, so every sample of a seed must repeat them.
  double sim_s = 0;
  double kernel_sim_s = 0;
  std::string digest;
  int jobs_attempted = 0;
  int jobs_failed = 0;
  Check check;
  Layers layers;
};

// Records the run's counters (b before, a after) and job stats in `s`.
void record_layers(Sample& s, const Counters& b, const Counters& a,
                   const core::JobStats& st) {
  s.kernel_sim_s = a.kernel_sim_s - b.kernel_sim_s;
  Layers& out = s.layers;
  const double run_s = s.run_s;
  out["core.run_s"] = run_s;
  out["sim.join_block_s"] = a.join_block_s - b.join_block_s;
  out["sim.loop_s"] = run_s - (a.join_block_s - b.join_block_s);
  out["sim.offload_joins"] = static_cast<double>(a.joins - b.joins);
  out["sim.events"] = static_cast<double>(a.events - b.events);
  out["util.pool.busy_s"] = a.pool_busy_s - b.pool_busy_s;
  out["util.pool.tasks"] = static_cast<double>(a.pool_tasks - b.pool_tasks);
  out["core.map_records"] = static_cast<double>(st.input_records);
  out["core.collector.hash_probes"] = static_cast<double>(st.hash_table_probes);
  out["core.kv.intermediate_pairs"] = static_cast<double>(st.intermediate_pairs);
  out["core.kv.intermediate_mb"] = mib(st.intermediate_bytes);
  out["core.kv.stored_mb"] = mib(st.intermediate_stored);
  if (st.intermediate_bytes > 0) {
    out["util.lz.stored_ratio"] = static_cast<double>(st.intermediate_stored) /
                                  static_cast<double>(st.intermediate_bytes);
  }
  out["core.store.merges"] = static_cast<double>(st.merges);
  out["core.store.fanin_runs"] = static_cast<double>(st.merge_fanin_runs);
  if (st.merges > 0) {
    out["core.store.fanin"] = static_cast<double>(st.merge_fanin_runs) /
                              static_cast<double>(st.merges);
  }
  out["core.store.spill_mb"] = mib(st.spill_bytes);
  out["simnet.messages"] = static_cast<double>(a.messages - b.messages);
  out["simnet.shuffle_mb"] = mib(a.shuffle_bytes - b.shuffle_bytes);
  out["simnet.dfs_mb"] = mib(a.dfs_bytes - b.dfs_bytes);
  out["gwdfs.local_reads"] = static_cast<double>(a.local_reads - b.local_reads);
  out["gwdfs.remote_reads"] = static_cast<double>(a.remote_reads - b.remote_reads);
  out["gwcl.kernels"] = static_cast<double>(a.kernels - b.kernels);
}

// Map splits a job over `path` reads: the base of per-split replay costs.
double map_splits(const dfs::FileSystem& fs, const std::string& path,
                  std::uint64_t split_bytes) {
  return std::ceil(static_cast<double>(fs.file_size(path)) /
                   static_cast<double>(split_bytes));
}

// Counters read after the run returned (state left behind by the run).
void record_after(Layers& out, cluster::Platform& platform, dfs::Dfs& fs) {
  out["simnet.open_inboxes"] = static_cast<double>(platform.fabric().open_inboxes());
  std::uint64_t retained = 0;
  for (const std::string& p : fs.list("/")) retained += fs.file_size(p);
  out["gwdfs.retained_mb"] = mib(retained);
  out["util.trace.events"] = static_cast<double>(platform.sim().tracer().recorded());
  out["util.trace.dropped"] = static_cast<double>(platform.sim().tracer().dropped());
}

// ---- output checks ---------------------------------------------------------

// TeraSort output: sorted within and across files (in partition order),
// as many records as the input, and the input's order-independent checksum.
void check_terasort(cluster::Platform& platform, dfs::Dfs& fs,
                    const std::vector<std::string>& files,
                    const util::Bytes& input, bool corrupt, Check& check) {
  const std::uint64_t want_records = input.size() / apps::kTeraRecordSize;
  const std::uint64_t want_sum = apps::terasort_checksum(input);
  std::uint64_t records = 0;
  std::uint64_t sum = 0;
  std::string prev;
  bool ordered = true;
  for (const std::string& path : files) {
    for (auto& [key, value] : core::read_output_file(read_file(platform, fs, path))) {
      if (corrupt && records == 0) value[0] = static_cast<char>(value[0] ^ 1);
      if (key < prev) ordered = false;
      const std::string record = key + value;
      sum ^= util::fnv1a(record.data(), record.size());
      prev = std::move(key);
      ++records;
    }
  }
  if (!ordered) check.fail("terasort output is not globally ordered");
  if (records != want_records) {
    check.fail("terasort output holds " + std::to_string(records) +
               " records, want " + std::to_string(want_records));
  }
  if (sum != want_sum) check.fail("terasort output checksum differs from input");
}

// WordCount / PageviewCount output: per-key counts equal the reference.
void check_counts(cluster::Platform& platform, dfs::Dfs& fs,
                  const std::vector<std::string>& files,
                  const std::map<std::string, std::uint64_t>& want,
                  bool corrupt, Check& check) {
  std::map<std::string, std::uint64_t> got;
  for (const std::string& path : files) {
    for (auto& [key, value] : core::read_output_file(read_file(platform, fs, path))) {
      got[key] += apps::parse_u64(value);
    }
  }
  if (corrupt && !got.empty()) got.begin()->second += 1;
  if (got != want) check.fail("counts differ from the reference");
}

// ---- workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool tiny = false;
  bool check = false;
  bool corrupt = false;
  std::string trace_path;  // empty = untraced
};

// Splits of real input each job class's replay runs on (fewer when its
// input is smaller).
constexpr std::uint64_t kReplaySplits = 12;

// One class of jobs in a workload — one app on one input with one split
// size — and the work its jobs did in the measured run. The replays run
// every class on its own app and input and weight its costs by that work.
struct JobClass {
  std::string name;
  core::AppKernels app;
  bool use_combiner = true;
  std::uint64_t split_bytes = 0;
  util::Bytes input;  // the head of the class's real input
  core::JobStats work;
  double splits = 0;  // map splits its jobs read
};

// A generator the workload's set-up calls, and the bytes it made there.
struct Generated {
  std::function<util::Bytes(std::uint64_t bytes)> generate;
  std::uint64_t bytes = 0;
};

// What the replays need from a workload.
struct ReplayShape {
  std::vector<JobClass> classes;
  int nodes = 0;
  int partitions = 0;  // global reduce partitions: nodes x partitions_per_node
  std::vector<Generated> generated;
};

// At most kReplaySplits splits from the start of `path`, cut at a record end.
util::Bytes input_head(cluster::Platform& platform, dfs::FileSystem& fs,
                       const std::string& path, const core::AppKernels& app,
                       std::uint64_t split_bytes) {
  util::Bytes data = read_file(platform, fs, path);
  if (data.size() > kReplaySplits * split_bytes) {
    std::size_t end = kReplaySplits * split_bytes;
    if (app.fixed_record_size > 0) {
      end -= end % app.fixed_record_size;
    } else {
      while (end > 0 && data[end - 1] != '\n') --end;
    }
    data.resize(end);
  }
  return data;
}

// gwrun --app=terasort --nodes=64 --records=1000000
Sample run_terasort(const Options& o, SpanLog& spans, ReplayShape* shape) {
  const int nodes = o.tiny ? 8 : 64;
  const std::uint64_t records = o.tiny ? 20000 : 1000000;
  Sample s;
  const auto t0 = Clock::now();
  util::Bytes input;
  {
    SpanLog::Scope sp(spans, "apps.generate_s");
    input = apps::generate_terasort(records, o.seed);
  }
  cluster::Platform platform(cluster_spec(nodes));
  dfs::Dfs fs(platform, dfs::DfsConfig{});
  {
    SpanLog::Scope sp(spans, "gwdfs.stage_s");
    stage(platform, fs, "/in/data", std::move(input));
  }
  apps::AppSpec app = apps::terasort();
  {
    SpanLog::Scope sp(spans, "apps.sample_s");
    app.kernels.partition = sample_partitioner(platform, fs, "/in/data");
  }
  const core::JobConfig cfg = gwrun_job_config();
  core::GlasswingRuntime rt(platform, fs, cl::DeviceSpec::cpu_dual_e5620());
  s.setup_s = seconds_since(t0);

  const Counters before = read_counters(platform, fs, rt);
  const auto t1 = Clock::now();
  core::JobResult r;
  {
    SpanLog::Scope sp(spans, "core.run_s");
    r = rt.run(app.kernels, cfg);
  }
  s.run_s = seconds_since(t1);
  s.rss_mb = peak_rss_mb();
  const Counters after = read_counters(platform, fs, rt);
  s.sim_s = r.elapsed_seconds;
  s.jobs_attempted = 1;
  record_layers(s, before, after, r.stats);
  record_after(s.layers, platform, fs);
  const double splits = map_splits(fs, "/in/data", cfg.split_size);
  s.layers["core.map_splits"] = splits;

  {
    SpanLog::Scope sp(spans, "digest");
    std::uint64_t d = 0;
    for (const std::string& f : r.output_files) d = fold(d, read_file(platform, fs, f));
    s.digest = hex(d);
  }
  if (o.check) {
    SpanLog::Scope sp(spans, "check");
    const auto want_files = static_cast<std::size_t>(nodes * cfg.partitions_per_node);
    if (r.output_files.size() != want_files) {
      s.check.fail("terasort wrote " + std::to_string(r.output_files.size()) +
                   " files, want " + std::to_string(want_files));
    }
    check_terasort(platform, fs, r.output_files, read_file(platform, fs, "/in/data"),
                   o.corrupt, s.check);
    s.jobs_failed = s.check.ok ? 0 : 1;
  }
  if (shape != nullptr) {
    shape->nodes = nodes;
    shape->partitions = nodes * cfg.partitions_per_node;
    shape->classes.push_back(JobClass{
        "terasort", app.kernels, cfg.use_combiner, cfg.split_size,
        input_head(platform, fs, "/in/data", app.kernels, cfg.split_size), r.stats,
        splits});
    shape->generated.push_back(
        {[seed = o.seed](std::uint64_t bytes) {
           return apps::generate_terasort(bytes / apps::kTeraRecordSize, seed);
         },
         records * apps::kTeraRecordSize});
  }
  return s;
}

// The mixed trace is part of the workload's definition, like its node
// count: every --seed replays gwrun's default trace. Which jobs a trace
// draws and when they arrive moved host time by up to a third and peak RSS
// by up to a quarter between seeds, more than any regression bound absorbs.
constexpr std::uint64_t kMtTraceSeed = 42;

// gwrun --nodes=8 --tenants=4 --sched=fair --arrival-rate=20 --jobs=40
Sample run_mt(const Options& o, SpanLog& spans, ReplayShape* shape) {
  const int nodes = 8;
  Sample s;
  const auto t0 = Clock::now();
  cluster::Platform platform(cluster_spec(nodes));
  dfs::Dfs fs(platform, dfs::DfsConfig{});
  apps::WorkloadConfig wl;
  wl.jobs = o.tiny ? 6 : 40;
  wl.tenants = 4;
  wl.arrival_rate_jobs_per_s = 20;
  if (o.tiny) {
    wl.small_bytes = 128ull << 10;
    wl.large_bytes = 512ull << 10;
  }
  wl.seed = kMtTraceSeed;
  std::vector<core::JobRequest> requests;
  {
    SpanLog::Scope sp(spans, "apps.mixed_workload_s");
    requests = apps::make_mixed_workload(platform, fs, wl);
  }
  struct JobInput {
    std::string name;  // the job's class, e.g. "wc-small"
    std::string input;
    std::uint64_t split_bytes;
    core::AppKernels app;
    bool use_combiner;
  };
  std::vector<JobInput> inputs;
  for (const auto& req : requests) {
    inputs.push_back({req.name, req.config.input_paths.front(), req.config.split_size,
                      req.app, req.config.use_combiner});
  }
  core::GlasswingRuntime rt(platform, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::SchedulerConfig sc;
  sc.policy = core::SchedPolicy::kFair;
  sc.max_resident_jobs = 4;
  core::Scheduler sched(rt, platform, fs, sc);
  for (auto& req : requests) sched.submit(std::move(req));
  s.setup_s = seconds_since(t0);

  const Counters before = read_counters(platform, fs, rt);
  const double sim0 = platform.sim().now();
  const auto t1 = Clock::now();
  {
    SpanLog::Scope sp(spans, "core.run_s");
    sched.run_all();
  }
  s.run_s = seconds_since(t1);
  s.rss_mb = peak_rss_mb();
  const Counters after = read_counters(platform, fs, rt);
  s.sim_s = platform.sim().now() - sim0;

  core::JobStats st;
  double splits = 0;
  std::map<std::string, JobClass> classes;  // by class name
  for (const auto& j : sched.results()) {
    ++s.jobs_attempted;
    if (j.rejected || j.failed) {
      ++s.jobs_failed;
      continue;
    }
    add_stats(st, j.result.stats);
    const JobInput& in = inputs.at(static_cast<std::size_t>(j.job_id));
    const double job_splits = map_splits(fs, in.input, in.split_bytes);
    splits += job_splits;
    JobClass& c = classes[in.name];
    add_stats(c.work, j.result.stats);
    c.splits += job_splits;
  }
  record_layers(s, before, after, st);
  record_after(s.layers, platform, fs);
  s.layers["core.map_splits"] = splits;
  s.layers["core.sched.resident_peak"] = sched.resident_peak();
  s.layers["core.sched.queue_peak"] = sched.queue_peak();
  s.layers["core.sched.port_windows"] = sched.port_windows_created();
  s.layers["core.sched.jobs_failed"] = sched.jobs_failed();

  {
    SpanLog::Scope sp(spans, "digest");
    std::uint64_t d = 0;
    for (const auto& j : sched.results()) {
      for (const std::string& f : j.result.output_files) {
        d = fold(d, read_file(platform, fs, f));
      }
    }
    s.digest = hex(d);
  }
  if (o.check) {
    SpanLog::Scope sp(spans, "check");
    std::map<std::string, util::Bytes> shared;  // input path -> bytes
    std::map<std::string, std::map<std::string, std::uint64_t>> refs;
    for (const auto& j : sched.results()) {
      const JobInput& in = inputs.at(static_cast<std::size_t>(j.job_id));
      if (j.rejected || j.failed) {
        s.check.fail("job " + std::to_string(j.job_id) + " did not finish");
        continue;
      }
      if (!shared.count(in.input)) shared[in.input] = read_file(platform, fs, in.input);
      const util::Bytes& data = shared[in.input];
      const bool corrupt = o.corrupt && j.job_id == 0;
      Check job;
      if (in.name.rfind("tera", 0) == 0) {
        check_terasort(platform, fs, j.result.output_files, data, corrupt, job);
      } else {
        if (!refs.count(in.input)) {
          refs[in.input] = in.name.rfind("wc", 0) == 0 ? apps::wordcount_reference(data)
                                                        : apps::pageview_reference(data);
        }
        check_counts(platform, fs, j.result.output_files, refs[in.input], corrupt, job);
      }
      if (!job.ok) {
        ++s.jobs_failed;
        s.check.fail("job " + std::to_string(j.job_id) + " [" + in.name + "]: " + job.note);
      }
    }
  }
  if (shape != nullptr) {
    // Every class the trace ran is replayed on its own app and input.
    shape->nodes = nodes;
    shape->partitions = nodes * core::JobConfig{}.partitions_per_node;
    for (auto& [name, c] : classes) {
      const JobInput& in = *std::find_if(inputs.begin(), inputs.end(),
                                         [&](const JobInput& x) { return x.name == name; });
      c.name = name;
      c.app = in.app;
      c.use_combiner = in.use_combiner;
      c.split_bytes = in.split_bytes;
      c.input = input_head(platform, fs, in.input, in.app, in.split_bytes);
      shape->classes.push_back(std::move(c));
    }
    // make_mixed_workload generates a small and a large input of each app.
    const std::uint64_t per_app = wl.small_bytes + wl.large_bytes;
    const std::uint64_t seed = wl.seed;
    shape->generated = {
        {[seed](std::uint64_t b) { return apps::generate_wiki_text(b, seed); }, per_app},
        {[seed](std::uint64_t b) { return apps::generate_weblog(b, seed); }, per_app},
        {[seed](std::uint64_t b) {
           return apps::generate_terasort(b / apps::kTeraRecordSize, seed);
         },
         per_app},
    };
  }
  return s;
}

// gwrun --app=kmeans --nodes=8 --records=200000 --rounds=5 --pin-intermediates
Sample run_kmeans(const Options& o, SpanLog& spans, ReplayShape* shape) {
  const int nodes = 8;
  const std::uint64_t points = o.tiny ? 5000 : 200000;
  const int rounds = o.tiny ? 2 : 5;
  const apps::KmeansConfig km;
  Sample s;
  const auto t0 = Clock::now();
  util::Bytes input;
  std::vector<float> centers;
  {
    SpanLog::Scope sp(spans, "apps.generate_s");
    centers = apps::generate_centers(km, o.seed);
    input = apps::generate_points(km, points, o.seed + 1);
  }
  cluster::Platform platform(cluster_spec(nodes));
  dfs::Dfs fs(platform, dfs::DfsConfig{});
  {
    SpanLog::Scope sp(spans, "gwdfs.stage_s");
    stage(platform, fs, "/in/data", std::move(input));
  }
  const core::JobConfig cfg = gwrun_job_config();
  core::GlasswingRuntime rt(platform, fs, cl::DeviceSpec::cpu_dual_e5620());
  s.setup_s = seconds_since(t0);

  const Counters before = read_counters(platform, fs, rt);
  const auto t1 = Clock::now();
  apps::KmeansDagResult r;
  {
    SpanLog::Scope sp(spans, "core.run_s");
    r = apps::kmeans_dag(rt, platform, fs, km, centers, "/in/data", "/out",
                         rounds, cfg, core::EdgeKind::kPinned, true);
  }
  s.run_s = seconds_since(t1);
  s.rss_mb = peak_rss_mb();
  const Counters after = read_counters(platform, fs, rt);
  s.sim_s = r.dag.elapsed_seconds;
  s.jobs_attempted = 1;

  core::JobStats st;
  for (const auto& round : r.dag.rounds) add_stats(st, round.job.stats);
  record_layers(s, before, after, st);
  record_after(s.layers, platform, fs);
  const double splits = r.dag.rounds_executed * map_splits(fs, "/in/data", cfg.split_size);
  s.layers["core.map_splits"] = splits;
  s.layers["core.dag.rounds_executed"] = r.dag.rounds_executed;
  s.layers["gwdfs.pinned.cache_hit_mb"] = mib(r.dag.cache_hit_bytes);
  s.layers["gwdfs.pinned.peak_mb"] = mib(r.dag.pinned_peak_bytes);
  s.digest = hex(util::fnv1a(r.dag.final_broadcast.data(), r.dag.final_broadcast.size()));

  if (o.check) {
    SpanLog::Scope sp(spans, "check");
    // Reference: the same number of Lloyd iterations, single-threaded.
    // Empty centers keep their position, as in apps::kmeans_dag.
    const util::Bytes pts = read_file(platform, fs, "/in/data");
    std::vector<float> want = centers;
    apps::KmeansReference ref;
    for (int i = 0; i < rounds; ++i) {
      ref = apps::kmeans_reference(km, want, pts);
      for (std::size_t c = 0; c < ref.counts.size(); ++c) {
        if (ref.counts[c] == 0) continue;
        for (int j = 0; j < km.dims; ++j) {
          want[c * km.dims + j] = ref.means[c * km.dims + j];
        }
      }
    }
    std::vector<float> got = r.iterations.centers;
    std::vector<std::uint64_t> counts = r.iterations.counts;
    if (o.corrupt && !counts.empty()) counts[0] += 1;
    std::uint64_t counted = 0;
    for (std::uint64_t c : counts) counted += c;
    if (counted != points) {
      s.check.fail("kmeans counted " + std::to_string(counted) + " points, want " +
                   std::to_string(points));
    }
    if (r.iterations.iterations != rounds) s.check.fail("kmeans ran the wrong round count");
    // Float partial sums are combined in another order than in the
    // single-threaded reference, so centers agree to a tolerance. A point
    // lying almost exactly between two centers can also be assigned to the
    // other one in a later iteration; that flip moves both centers by about
    // |point - center| / count, and can cascade to a few neighbours. So
    // every center must be within kTolerance except at most 5% of them,
    // which must stay within kFlipLimit. Over 40 seeds at most 23 centers
    // were beyond kTolerance, the worst by 0.23.
    constexpr double kTolerance = 1e-2;
    constexpr double kFlipLimit = 1.0;
    double worst = 0;
    int far = 0;
    for (std::size_t c = 0; c < want.size() / km.dims && got.size() == want.size(); ++c) {
      double off = 0;
      for (std::size_t i = c * km.dims; i < (c + 1) * km.dims; ++i) {
        off = std::max(off, static_cast<double>(std::fabs(got[i] - want[i])));
      }
      worst = std::max(worst, off);
      far += off > kTolerance;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "kmeans: %d of %d centers beyond %g of the reference, worst %.3g",
                  far, km.k, kTolerance, worst);
    if (got.size() != want.size()) {
      s.check.fail("kmeans returned " + std::to_string(got.size()) + " center coordinates");
    } else if (far > km.k / 20 || worst > kFlipLimit) {
      s.check.fail(buf);
    } else if (s.check.ok) {
      s.check.note = buf;
    }
    s.jobs_failed = s.check.ok ? 0 : 1;
  }
  if (shape != nullptr) {
    shape->nodes = nodes;
    shape->partitions = nodes * cfg.partitions_per_node;
    const core::AppKernels app = apps::kmeans(km, r.iterations.centers).kernels;
    shape->classes.push_back(JobClass{
        "kmeans", app, cfg.use_combiner, cfg.split_size,
        input_head(platform, fs, "/in/data", app, cfg.split_size), st, splits});
    const std::uint64_t record = static_cast<std::uint64_t>(km.dims) * 4;
    shape->generated.push_back({[km, seed = o.seed, record](std::uint64_t bytes) {
                                  return apps::generate_points(km, bytes / record, seed + 1);
                                },
                                points * record});
  }
  return s;
}

// ---- replays ---------------------------------------------------------------

// Median over `reps` calls of fn(), which returns the seconds it timed
// (so it can leave its own set-up untimed).
double median_seconds(int reps, const std::function<double()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(fn());
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

class CaptureEmitter : public core::MapEmitter {
 public:
  explicit CaptureEmitter(core::PairList* out) : out_(out) {}
  void emit(std::string_view key, std::string_view value) override {
    out_->add(key, value);
  }

 private:
  core::PairList* out_;
};

// The map output of one split, per work-group, as the pipeline's kernel
// stage would hand it to the collector.
std::vector<core::PairList> map_split(const core::AppKernels& app,
                                      std::string_view split) {
  const std::vector<std::uint64_t> offsets = core::frame_records(app, split);
  const std::size_t groups = std::max<std::size_t>(
      1, std::min<std::size_t>(cl::Device::kDefaultWorkGroups, offsets.size()));
  std::vector<core::PairList> out(groups);
  cl::KernelCounters counters;
  for (std::size_t g = 0; g < groups; ++g) {
    CaptureEmitter emitter(&out[g]);
    core::MapContext ctx{&emitter, &counters};
    const std::size_t lo = offsets.size() * g / groups;
    const std::size_t hi = offsets.size() * (g + 1) / groups;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t end = i + 1 < offsets.size() ? offsets[i + 1] : split.size();
      app.map(split.substr(offsets[i], end - offsets[i]), ctx);
    }
  }
  return out;
}

// Splits the class's input into split_bytes pieces cut at record boundaries.
std::vector<std::string_view> splits_of(const JobClass& c) {
  std::vector<std::string_view> out;
  const std::string_view all(reinterpret_cast<const char*>(c.input.data()),
                             c.input.size());
  std::size_t pos = 0;
  while (pos < all.size()) {
    std::size_t end = std::min(all.size(), pos + c.split_bytes);
    if (c.app.fixed_record_size > 0) {
      end = pos + (end - pos) / c.app.fixed_record_size * c.app.fixed_record_size;
    } else if (end < all.size()) {
      const std::size_t nl = all.rfind('\n', end - 1);
      end = nl == std::string_view::npos || nl < pos ? end : nl + 1;
    }
    if (end == pos) break;
    out.push_back(all.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

core::MapChunkOutput finalize_on(sim::Simulation& sim, cl::Device& device,
                                 core::HashTableCollector& collector,
                                 const std::optional<core::CombineFn>& combine) {
  core::MapChunkOutput out;
  sim.spawn([](core::HashTableCollector& c, cl::Device& d,
               const std::optional<core::CombineFn>& comb,
               core::MapChunkOutput* o) -> sim::Task<> {
    *o = co_await c.finalize(d, comb, cl::LaunchConfig{});
  }(collector, device, combine, &out));
  sim.run();
  return out;
}

sim::Task<> send_all(net::Transport& t, int src, int nodes, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (int dst = 0; dst < nodes; ++dst) {
      co_await t.send(src, dst, net::kPortShuffle, net::TrafficClass::kShuffle,
                      util::Bytes(64, std::uint8_t{7}));
    }
  }
  for (int dst = 0; dst < nodes; ++dst) co_await t.finish(src, dst, net::kPortShuffle);
}

sim::Task<> drain(net::Transport& t, int node, int senders) {
  auto rx = t.receiver(node, net::kPortShuffle, senders);
  while (co_await rx.recv()) {
  }
}

sim::Task<> tick(sim::Simulation& s, int steps) {
  for (int i = 0; i < steps; ++i) co_await s.delay(1e-6 * (1 + i % 7));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Replayed host cost of one job class's data plane, per unit of its work.
struct ClassCosts {
  double map_s_per_record = 0;
  double insert_s_per_pair = 0;
  double finalize_s = 0;        // per split, with the job's combiner
  double finalize_plain_s = 0;  // per split, without a combiner
  double sort_s_per_mb = 0;
  double merge_s_per_mb = 0;
  double compress_s_per_mb = 0;
  double decompress_s_per_mb = 0;
};

// Replays one class's data plane on its own input: the app's map over
// whole splits, the hash collector's inserts and finalize, then the
// partition stage's work on the finalized output (one bucket per global
// partition, sorted, serialized, LZ-compressed), and the store's k-way
// merge of each partition's runs across the replayed splits.
ClassCosts replay_class(const JobClass& c, int partitions, SpanLog& spans) {
  constexpr int kReps = 5;
  ClassCosts cost;
  const std::vector<std::string_view> splits = splits_of(c);
  std::vector<std::vector<core::PairList>> mapped;
  {
    SpanLog::Scope sp(spans, "replay.map." + c.name);
    std::vector<double> per_record;
    for (std::string_view split : splits) {
      const auto t0 = Clock::now();
      mapped.push_back(map_split(c.app, split));
      per_record.push_back(seconds_since(t0) /
                           static_cast<double>(core::frame_records(c.app, split).size()));
    }
    cost.map_s_per_record = median(per_record);
  }
  std::uint64_t pairs = 0;
  for (const auto& groups : mapped) {
    for (const auto& g : groups) pairs += g.size();
  }

  // Finalized map output per split, with the job's combiner: what the
  // partition stage receives.
  std::vector<core::PairList> finalized;
  {
    SpanLog::Scope sp(spans, "replay.collector." + c.name);
    sim::Simulation sim;
    cl::Device device(sim, cl::DeviceSpec::cpu_dual_e5620());
    const std::optional<core::CombineFn> combine =
        c.use_combiner ? c.app.combine : std::nullopt;
    std::vector<double> insert_s, fin_s, fin_plain_s;
    for (int rep = 0; rep < kReps; ++rep) {
      double ins = 0, fin = 0, plain = 0;
      for (const auto& groups : mapped) {
        core::HashTableCollector collector(groups.size());
        cl::KernelCounters counters;
        for (const bool with_combiner : {true, false}) {
          const auto t0 = Clock::now();
          for (std::size_t g = 0; g < groups.size(); ++g) {
            for (std::size_t i = 0; i < groups[g].size(); ++i) {
              const core::KV kv = groups[g].get(i);
              collector.emit(g, kv.key, kv.value, counters);
            }
          }
          const auto t1 = Clock::now();
          core::MapChunkOutput chunk =
              finalize_on(sim, device, collector, with_combiner ? combine : std::nullopt);
          const double f = seconds_since(t1);
          if (with_combiner) {
            ins += std::chrono::duration<double>(t1 - t0).count();
            fin += f;
            if (rep == 0) finalized.push_back(std::move(chunk.pairs));
          } else {
            plain += f;
          }
        }
      }
      insert_s.push_back(ins);
      fin_s.push_back(fin / static_cast<double>(mapped.size()));
      fin_plain_s.push_back(plain / static_cast<double>(mapped.size()));
    }
    cost.insert_s_per_pair = median(insert_s) / static_cast<double>(pairs);
    cost.finalize_s = median(fin_s);
    cost.finalize_plain_s = median(fin_plain_s);
  }

  // buckets[split][partition]: the partition stage's input for each run.
  const core::PartitionFn partition =
      c.app.partition ? c.app.partition : core::default_hash_partitioner();
  std::vector<std::vector<core::PairList>> buckets;
  std::uint64_t bucket_bytes = 0;
  for (const core::PairList& pl : finalized) {
    std::vector<core::PairList> b(static_cast<std::size_t>(partitions));
    for (std::size_t i = 0; i < pl.size(); ++i) {
      const core::PairList::PairView pv = pl.pair_view(i);
      b[partition(pv.kv.key, static_cast<std::uint32_t>(partitions))].add_encoded(pv);
    }
    for (const auto& x : b) bucket_bytes += x.blob_bytes();
    buckets.push_back(std::move(b));
  }
  // runs[partition][split], raw (uncompressed) serialized runs.
  std::vector<std::vector<core::Run>> runs(static_cast<std::size_t>(partitions));
  std::uint64_t raw = 0;
  {
    SpanLog::Scope sp(spans, "replay.kv." + c.name);
    cost.sort_s_per_mb = median_seconds(kReps, [&] {
                           auto copy = buckets;
                           const auto t0 = Clock::now();
                           for (auto& b : copy) {
                             for (auto& x : b) x.sort_by_key();
                           }
                           return seconds_since(t0);
                         }) /
                         (static_cast<double>(bucket_bytes) / 1e6);
    for (auto& b : buckets) {
      for (std::size_t p = 0; p < b.size(); ++p) {
        b[p].sort_by_key();
        core::RunBuilder rb;
        for (std::size_t i = 0; i < b[p].size(); ++i) rb.add_encoded(b[p].encoded_pair(i));
        runs[p].push_back(rb.finish(false));
        raw += runs[p].back().raw_bytes;
      }
    }
    cost.merge_s_per_mb = median_seconds(kReps, [&] {
                            const auto t0 = Clock::now();
                            for (const auto& in : runs) core::merge_runs(in, false);
                            return seconds_since(t0);
                          }) /
                          (static_cast<double>(raw) / 1e6);
  }
  {
    SpanLog::Scope sp(spans, "replay.lz." + c.name);
    std::vector<util::Bytes> packed;
    cost.compress_s_per_mb = median_seconds(kReps, [&] {
                               packed.clear();
                               const auto t0 = Clock::now();
                               for (const auto& in : runs) {
                                 for (const auto& r : in) {
                                   packed.push_back(util::lz_compress(r.data));
                                 }
                               }
                               return seconds_since(t0);
                             }) /
                             (static_cast<double>(raw) / 1e6);
    cost.decompress_s_per_mb = median_seconds(kReps, [&] {
                                 const auto t0 = Clock::now();
                                 for (const auto& p : packed) (void)util::lz_decompress(p);
                                 return seconds_since(t0);
                               }) /
                               (static_cast<double>(raw) / 1e6);
  }
  return cost;
}

// Cost per unit of work of the workload's whole mix of classes: each
// class's replayed cost weighted by the work of that kind it did in the
// run. Work x this cost then sums every class's work at its own cost.
double mixed_cost(const ReplayShape& sh, const std::vector<ClassCosts>& costs,
                  const std::function<double(const JobClass&)>& work,
                  double ClassCosts::*cost) {
  double total = 0;
  double weighted = 0;
  for (std::size_t i = 0; i < sh.classes.size(); ++i) {
    const double w = work(sh.classes[i]);
    total += w;
    weighted += w * costs[i].*cost;
  }
  return total > 0 ? weighted / total : 0;
}

// Replays each job class's data plane, then the workload-wide layers: the
// input generators, the transport, the event loop and the pool.
void run_replays(const ReplayShape& sh, SpanLog& spans, Layers& out) {
  constexpr int kReps = 5;
  std::vector<ClassCosts> costs;
  for (const JobClass& c : sh.classes) {
    costs.push_back(replay_class(c, sh.partitions, spans));
    out["class." + c.name + ".intermediate_mb"] = mib(c.work.intermediate_bytes);
    out["class." + c.name + ".splits"] = c.splits;
  }
  const auto records = [](const JobClass& c) {
    return static_cast<double>(c.work.input_records);
  };
  const auto probes = [](const JobClass& c) {
    return static_cast<double>(c.work.hash_table_probes);
  };
  const auto splits = [](const JobClass& c) { return c.splits; };
  const auto bytes = [](const JobClass& c) {
    return static_cast<double>(c.work.intermediate_bytes);
  };
  // Rates are the mix's work over its time (work-weighted harmonic means).
  const auto rate = [&](const char* name, double scale, auto work, double ClassCosts::*cost) {
    const double per_unit = mixed_cost(sh, costs, work, cost);
    if (per_unit > 0) out[name] = scale / per_unit;
  };
  rate("gwcl.map_mrec_s", 1e-6, records, &ClassCosts::map_s_per_record);
  rate("core.collector.insert_mpairs_s", 1e-6, probes, &ClassCosts::insert_s_per_pair);
  rate("core.kv.sort_mb_s", 1, bytes, &ClassCosts::sort_s_per_mb);
  rate("core.kv.merge_mb_s", 1, bytes, &ClassCosts::merge_s_per_mb);
  rate("util.lz.compress_mb_s", 1, bytes, &ClassCosts::compress_s_per_mb);
  rate("util.lz.decompress_mb_s", 1, bytes, &ClassCosts::decompress_s_per_mb);
  out["core.collector.finalize_ms"] =
      mixed_cost(sh, costs, splits, &ClassCosts::finalize_s) * 1e3;
  out["core.collector.finalize_nocombine_ms"] =
      mixed_cost(sh, costs, splits, &ClassCosts::finalize_plain_s) * 1e3;
  {
    SpanLog::Scope sp(spans, "replay.apps");
    constexpr std::uint64_t kGenBytes = 4ull << 20;
    double total = 0;
    double seconds = 0;  // the set-up's generated bytes at the replayed rates
    for (const Generated& g : sh.generated) {
      std::uint64_t made = 0;
      const double t = median_seconds(3, [&] {
        const auto t0 = Clock::now();
        made = g.generate(std::min(kGenBytes, g.bytes)).size();
        return seconds_since(t0);
      });
      total += static_cast<double>(g.bytes);
      seconds += static_cast<double>(g.bytes) * t / static_cast<double>(made);
    }
    out["apps.generate_mb_s"] = total / 1e6 / seconds;
  }
  {
    // All-to-all small sends through the transport, shuffle protocol.
    SpanLog::Scope sp(spans, "replay.simnet");
    const int n = sh.nodes;
    const int rounds = std::max(1, 32768 / (n * n));
    const double t = median_seconds(3, [&] {
      cluster::Platform p(cluster_spec(n));
      const auto t0 = Clock::now();
      for (int dst = 0; dst < n; ++dst) p.sim().spawn(drain(p.transport(), dst, n));
      for (int src = 0; src < n; ++src) p.sim().spawn(send_all(p.transport(), src, n, rounds));
      p.sim().run();
      return seconds_since(t0);
    });
    out["simnet.send_kmsg_s"] = static_cast<double>(n) * n * rounds / 1e3 / t;
  }
  {
    SpanLog::Scope sp(spans, "replay.sim");
    constexpr int kProcs = 1000;
    constexpr int kSteps = 1000;
    std::uint64_t events = 0;
    const double t = median_seconds(3, [&] {
      sim::Simulation s;
      const auto t0 = Clock::now();
      for (int i = 0; i < kProcs; ++i) s.spawn(tick(s, kSteps));
      s.run();
      events = s.events_processed();
      return seconds_since(t0);
    });
    out["sim.dispatch_mevent_s"] = static_cast<double>(events) / 1e6 / t;
  }
  {
    SpanLog::Scope sp(spans, "replay.pool");
    constexpr int kTrips = 20000;
    util::ThreadPool& pool = util::ThreadPool::global();
    const double t = median_seconds(kReps, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < kTrips; ++i) pool.submit([] { return 0; }).get();
      return seconds_since(t0);
    });
    out["util.pool.roundtrip_us"] = t / kTrips * 1e6;
  }
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

int run(const Options& o) {
  using WorkloadFn = Sample (*)(const Options&, SpanLog&, ReplayShape*);
  const std::map<std::string, WorkloadFn> workloads = {
      {"terasort-64n-1m", run_terasort},
      {"mt-fair-40j", run_mt},
      {"kmeans-dag-5r", run_kmeans},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const bool traced = !o.trace_path.empty();
  util::ThreadPool::reset_global(kPoolThreads);
  SpanLog spans(traced);
  ReplayShape shape;
  Sample s;
  {
    SpanLog::Scope sp(spans, "sample");
    s = it->second(o, spans, traced ? &shape : nullptr);
  }
  if (traced) {
    run_replays(shape, spans, s.layers);
    for (const char* name : {"apps.generate_s", "apps.sample_s",
                             "apps.mixed_workload_s", "gwdfs.stage_s"}) {
      if (auto t = spans.total(name)) s.layers[name] = *t;
    }
    if (!spans.save_chrome_json(o.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_path.c_str());
      return 1;
    }
  }

  JsonObject j;
  j.str("workload", o.workload);
  j.num("seed", static_cast<double>(o.seed));
  j.str("scale", o.tiny ? "tiny" : "full");
  j.num("pool_threads", static_cast<double>(kPoolThreads));
  j.str("build_type", GWB_BUILD_TYPE);
  j.str("cxx_flags", GWB_CXX_FLAGS);
#ifdef __OPTIMIZE__
  j.boolean("optimized", true);
#else
  j.boolean("optimized", false);
#endif
  j.num("setup_s", s.setup_s);
  j.num("run_s", s.run_s);
  j.num("peak_rss_mb", s.rss_mb);
  j.num("sim_s", s.sim_s);
  j.num("kernel_sim_s", s.kernel_sim_s);
  j.str("digest", s.digest);
  j.num("jobs_attempted", s.jobs_attempted);
  j.num("jobs_failed", s.jobs_failed);
  j.boolean("checked", o.check);
  j.boolean("check_ok", s.check.ok);
  j.str("check_note", s.check.note);
  if (traced) {
    JsonObject layers;
    for (const auto& [name, v] : s.layers) layers.num(name, v);
    j.raw("layers", layers.text());
  }
  std::printf("%s\n", j.text().c_str());
  return o.check && !s.check.ok ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--workload", &v)) o.workload = v;
    else if (parse_flag(argv[i], "--seed", &v)) o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--scale", &v)) o.tiny = v == "tiny";
    else if (parse_flag(argv[i], "--trace", &v)) o.trace_path = v;
    else if (std::strcmp(argv[i], "--check") == 0) o.check = true;
    else if (std::strcmp(argv[i], "--corrupt") == 0) o.corrupt = true;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gwbench: %s\n", e.what());
    return 1;
  }
}

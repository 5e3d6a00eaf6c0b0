// gwrun: command-line driver for the Glasswing reproduction.
//
// Runs any of the six bundled applications on a simulated cluster with
// configurable shape, device and pipeline knobs, and prints the job report.
//
//   gwrun --app=wc --nodes=8 --device=gtx480 --mb=16
//   gwrun --app=terasort --nodes=16 --records=200000 --buffering=3
//   gwrun --app=kmeans --device=k20m --runtime=hadoop   # baseline compare
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/blackscholes.h"
#include "apps/kmeans.h"
#include "apps/matmul.h"
#include "apps/pageview.h"
#include "apps/prefixsum.h"
#include "apps/terasort.h"
#include "apps/wordcount.h"
#include "apps/workload.h"
#include "baselines/hadoop/hadoop.h"
#include "core/job.h"
#include "core/report.h"
#include "util/hash.h"

using namespace gw;

namespace {

struct Flags {
  std::string app = "wc";
  std::string device = "cpu";
  std::string runtime = "glasswing";
  int nodes = 4;
  int mb = 16;
  std::uint64_t records = 100000;  // terasort/kmeans/blackscholes items
  int buffering = 2;
  int partitions = 8;
  int partitioner_threads = 4;
  std::string collector = "hash";
  bool combiner = true;
  std::uint64_t split_kb = 256;
  std::uint64_t seed = 42;
  std::string trace_path;  // empty = no export
  // Network: profile plus topology/transport knobs. Defaults reproduce the
  // legacy fabric (infinite bisection, unchunked, unbounded in-flight), so
  // default output stays byte-identical.
  std::string net = "ipoib";
  double oversub = 0;
  std::uint64_t chunk_kb = 0;
  std::uint64_t credit_kb = 0;
  int rack_size = 0;
  bool net_report = false;
  // Hierarchical combining: off (legacy, byte-identical event order), node
  // (per-node combiner ahead of the wire), rack (plus per-rack aggregation;
  // needs --rack-size to describe the topology).
  std::string combine = "off";
  // Fault injection: scheduled node crashes/restarts and straggler
  // speculation. All empty/false by default. Every job runs the
  // fault-tolerant shuffle protocol regardless; on a fault-free run its
  // completion barrier and bookkeeping change no simulated result.
  std::vector<core::JobConfig::CrashEvent> crash_events;
  std::vector<std::pair<int, double>> restarts;
  bool speculate = false;
  // Per-node memory budget: 0 = unbounded pools (nothing blocks on memory,
  // peak still measured); a budget brings budgeted spills + the multi-level
  // external merge. --spill-bw overrides spill disk bandwidth.
  std::uint64_t mem_mb = 0;
  double spill_bw_mb = 0;
  // Multi-round DAG mode: --rounds chains jobs through core::JobDag
  // (kmeans: N fixed-point iterations; terasort: the 2-round sample sort;
  // prefixsum always runs its 3-round chain). --pin-intermediates keeps
  // inter-round data in node memory instead of gwdfs; --kill-round=R
  // scopes --kill-node events to logical round R.
  int rounds = 0;
  bool pin_intermediates = false;
  int kill_round = -1;
  // Multi-tenant mode (core::Scheduler): --tenants > 0 replaces the single
  // job with a seeded mixed workload (wc/pvc/terasort, small and large)
  // arriving open-loop at --arrival-rate and queued under --sched. --app
  // and the input-size flags are ignored in this mode.
  int tenants = 0;
  int jobs = 8;
  double arrival_rate = 0.5;  // jobs/s offered load
  std::string sched = "fifo";
  int max_resident = 4;
  bool preempt = false;  // checkpoint-based preemption of residents
  bool elastic = false;  // elastic per-job slot shares
};

void usage() {
  std::printf(
      "gwrun — run a Glasswing job on a simulated cluster\n\n"
      "  --app=wc|pvc|terasort|kmeans|matmul|blackscholes|prefixsum\n"
      "  --runtime=glasswing|hadoop      comparison baseline\n"
      "  --device=cpu|gtx480|gtx680|k20m|phi   (glasswing only)\n"
      "  --nodes=N          cluster size (default 4)\n"
      "  --mb=N             text input size in MiB (wc/pvc)\n"
      "  --records=N        record count (terasort/kmeans/blackscholes)\n"
      "  --buffering=1|2|3  pipeline buffering level\n"
      "  --collector=hash|pool  map output collection\n"
      "  --no-combiner      disable the combiner\n"
      "  --partitions=P --partitioner-threads=N --split-kb=K --seed=S\n"
      "  --net=ipoib|gbe    interconnect profile (QDR InfiniBand IPoIB or\n"
      "                     1 Gb Ethernet; default ipoib)\n"
      "  --oversub=F        core-switch bisection oversubscription factor\n"
      "                     (0 = infinite bisection, the legacy model)\n"
      "  --chunk-kb=K       chunk messages larger than K KiB on the wire\n"
      "                     (0 = unchunked)\n"
      "  --credit-kb=K      per-peer shuffle credit window in KiB\n"
      "                     (0 = unbounded in-flight data)\n"
      "  --rack-size=N      nodes per rack: intra-rack traffic bypasses the\n"
      "                     core switch (0 = flat topology)\n"
      "  --combine=off|node|rack  hierarchical combining: node-level\n"
      "                     combiner and/or rack-level aggregation ahead of\n"
      "                     the core switch (rack needs --rack-size; default\n"
      "                     off = legacy push shuffle)\n"
      "  --net-report       print the remote-traffic split (shuffle/DFS/\n"
      "                     control bytes, plus rack_agg when combining)\n"
      "                     after the job report\n"
      "  --kill-node=ID@T   crash node ID at simulated time T (suffix ms or\n"
      "                     s, e.g. 2@50ms); repeatable, glasswing only\n"
      "  --restart-node=ID@T  revive a killed node (empty disks) at time T;\n"
      "                     it only rejoins as a DFS re-replication target\n"
      "  --speculate        clone straggler tasks near the end of the map\n"
      "                     phase; first finisher wins\n"
      "  --mem-mb=N         per-node memory budget in MiB: budgeted spills,\n"
      "                     the multi-level external merge and a mem: line;\n"
      "                     0 (default) = unbounded, nothing blocks on memory\n"
      "  --spill-bw=MBps    disk bandwidth override for spill/merge i/o\n"
      "                     (0 = the node's disk spec)\n"
      "  --rounds=N         multi-round DAG mode (core::JobDag): kmeans runs\n"
      "                     N fixed-point iterations, terasort its 2-round\n"
      "                     sample sort, prefixsum its 3-round chain\n"
      "  --pin-intermediates  keep inter-round data pinned in node memory\n"
      "                     (and cache re-read inputs) instead of writing it\n"
      "                     back to gwdfs between rounds\n"
      "  --kill-round=R     scope --kill-node crashes to logical round R\n"
      "                     (times relative to that round's start)\n"
      "  --tenants=N        multi-tenant mode: N tenants submit a seeded\n"
      "                     mixed workload (wc/pvc/terasort) of --jobs jobs\n"
      "                     to one shared cluster (core::Scheduler)\n"
      "  --jobs=N           jobs in the multi-tenant workload (default 8)\n"
      "  --arrival-rate=R   offered load in jobs/s, Poisson arrivals\n"
      "                     (default 0.5)\n"
      "  --sched=fifo|fair|priority  admission policy (default fifo)\n"
      "  --max-resident=N   concurrent-job cap (default 4); --mem-mb gives\n"
      "                     residents a SHARED per-node memory budget\n"
      "  --preempt          checkpoint-based preemption: a deserving arrival\n"
      "                     suspends a resident at its next task boundary\n"
      "                     (committed map output stays durable; the\n"
      "                     remainder requeues and replays the ledger)\n"
      "  --elastic          elastic slot shares: per-job per-node slot pools\n"
      "                     grow/shrink at task boundaries as residency\n"
      "                     changes (fair = equal shares; priority steals)\n"
      "  --trace=FILE       export the run's simulated timeline as Chrome\n"
      "                     trace_event JSON (open in about:tracing/Perfetto)\n");
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

// Parses "ID@T" where T takes an optional ms/s suffix (no suffix: seconds),
// e.g. "2@50ms" or "0@0.3s". Exits with a message on malformed input.
std::pair<int, double> parse_node_at(const std::string& v, const char* flag) {
  const std::size_t at = v.find('@');
  char* end = nullptr;
  if (at != std::string::npos) {
    const int node = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    if (end == v.c_str() + at) {
      const std::string t = v.substr(at + 1);
      double secs = std::strtod(t.c_str(), &end);
      if (end != t.c_str()) {
        const std::string suffix = end;
        if (suffix == "ms") {
          secs /= 1000.0;
        } else if (!suffix.empty() && suffix != "s") {
          end = nullptr;
        }
        if (end != nullptr && secs >= 0) return {node, secs};
      }
    }
  }
  std::fprintf(stderr, "%s expects ID@TIME (e.g. 2@50ms), got '%s'\n", flag,
               v.c_str());
  std::exit(2);
}

cl::DeviceSpec device_spec(const std::string& name) {
  if (name == "cpu") return cl::DeviceSpec::cpu_dual_e5620();
  if (name == "gtx480") return cl::DeviceSpec::gtx480();
  if (name == "gtx680") return cl::DeviceSpec::gtx680();
  if (name == "k20m") return cl::DeviceSpec::k20m();
  if (name == "phi") return cl::DeviceSpec::xeon_phi_5110p();
  std::fprintf(stderr, "unknown device '%s'\n", name.c_str());
  std::exit(2);
}

// Exports the run's simulated timeline when --trace is given. Returns false
// (after reporting on stderr) when the file cannot be written.
bool export_trace(const Flags& flags, cluster::Platform& platform) {
  if (flags.trace_path.empty()) return true;
  if (!platform.sim().tracer().save_chrome_json(flags.trace_path)) {
    std::fprintf(stderr, "failed to write trace to %s\n",
                 flags.trace_path.c_str());
    return false;
  }
  std::printf("trace written to %s\n", flags.trace_path.c_str());
  return true;
}

// Ends every successful run: exports the trace, then prints one digest of
// the path and bytes of every file left in the DFS (inputs, outputs and
// intermediates). The bytes are read on the host, so no simulated time and
// no trace event moves. Returns gwrun's exit code.
int finish(const Flags& flags, cluster::Platform& platform,
           const dfs::Dfs& fs) {
  if (!export_trace(flags, platform)) return 1;
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = util::fnv1a("");
  for (const std::string& path : fs.list("")) {
    const util::Bytes& data = fs.host_bytes(path);
    const std::uint64_t size = data.size();
    digest = util::fnv1a(path.c_str(), path.size() + 1, digest);
    digest = util::fnv1a(&size, sizeof(size), digest);
    digest = util::fnv1a(data.data(), data.size(), digest);
    ++files;
    bytes += size;
  }
  std::printf("outputs: files=%llu bytes=%llu fnv=%016llx\n",
              static_cast<unsigned long long>(files),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(digest));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--app", &v)) flags.app = v;
    else if (parse_flag(argv[i], "--device", &v)) flags.device = v;
    else if (parse_flag(argv[i], "--runtime", &v)) flags.runtime = v;
    else if (parse_flag(argv[i], "--nodes", &v)) flags.nodes = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--mb", &v)) flags.mb = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--records", &v)) flags.records = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--buffering", &v)) flags.buffering = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--partitions", &v)) flags.partitions = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--partitioner-threads", &v)) flags.partitioner_threads = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--collector", &v)) flags.collector = v;
    else if (parse_flag(argv[i], "--split-kb", &v)) flags.split_kb = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--seed", &v)) flags.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--trace", &v)) flags.trace_path = v;
    else if (parse_flag(argv[i], "--net", &v)) flags.net = v;
    else if (parse_flag(argv[i], "--oversub", &v)) flags.oversub = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--chunk-kb", &v)) flags.chunk_kb = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--credit-kb", &v)) flags.credit_kb = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--rack-size", &v)) flags.rack_size = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--combine", &v)) flags.combine = v;
    else if (parse_flag(argv[i], "--mem-mb", &v)) flags.mem_mb = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(argv[i], "--spill-bw", &v)) flags.spill_bw_mb = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--rounds", &v)) flags.rounds = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--tenants", &v)) flags.tenants = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--jobs", &v)) flags.jobs = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--arrival-rate", &v)) flags.arrival_rate = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--sched", &v)) flags.sched = v;
    else if (parse_flag(argv[i], "--max-resident", &v)) flags.max_resident = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--kill-round", &v)) flags.kill_round = std::atoi(v.c_str());
    else if (std::strcmp(argv[i], "--pin-intermediates") == 0) flags.pin_intermediates = true;
    else if (parse_flag(argv[i], "--kill-node", &v)) {
      const auto [node, t] = parse_node_at(v, "--kill-node");
      flags.crash_events.push_back(core::JobConfig::CrashEvent{node, t, -1});
    }
    else if (parse_flag(argv[i], "--restart-node", &v)) {
      flags.restarts.push_back(parse_node_at(v, "--restart-node"));
    }
    else if (std::strcmp(argv[i], "--preempt") == 0) flags.preempt = true;
    else if (std::strcmp(argv[i], "--elastic") == 0) flags.elastic = true;
    else if (std::strcmp(argv[i], "--speculate") == 0) flags.speculate = true;
    else if (std::strcmp(argv[i], "--net-report") == 0) flags.net_report = true;
    else if (std::strcmp(argv[i], "--no-combiner") == 0) flags.combiner = false;
    else if (std::strcmp(argv[i], "--help") == 0) { usage(); return 0; }
    else { std::fprintf(stderr, "unknown flag %s\n\n", argv[i]); usage(); return 2; }
  }

  // Build the workload.
  util::Bytes input;
  apps::AppSpec app;
  const std::uint64_t text_bytes = static_cast<std::uint64_t>(flags.mb) << 20;
  if (flags.app == "wc") {
    app = apps::wordcount();
    input = apps::generate_wiki_text(text_bytes, flags.seed);
  } else if (flags.app == "pvc") {
    app = apps::pageview_count();
    input = apps::generate_weblog(text_bytes, flags.seed);
  } else if (flags.app == "terasort") {
    app = apps::terasort();
    input = apps::generate_terasort(flags.records, flags.seed);
  } else if (flags.app == "kmeans") {
    apps::KmeansConfig km;
    app = apps::kmeans(km, apps::generate_centers(km, flags.seed));
    input = apps::generate_points(km, flags.records, flags.seed + 1);
  } else if (flags.app == "matmul") {
    apps::MatmulConfig mm{.n = 512, .tile = 128};
    app = apps::matmul(mm);
    input = apps::generate_tile_pairs(mm, flags.seed, flags.seed + 1);
  } else if (flags.app == "blackscholes") {
    app = apps::black_scholes();
    input = apps::generate_options(flags.records, flags.seed);
  } else if (flags.app == "prefixsum") {
    // DAG-only workload; the kernels are built per round by the driver.
    input = apps::generate_prefix_input(flags.records, flags.seed);
  } else {
    std::fprintf(stderr, "unknown app '%s'\n\n", flags.app.c_str());
    usage();
    return 2;
  }

  net::NetworkProfile network;
  if (flags.net == "ipoib") {
    network = net::NetworkProfile::qdr_infiniband_ipoib();
  } else if (flags.net == "gbe") {
    network = net::NetworkProfile::gigabit_ethernet();
  } else {
    std::fprintf(stderr, "unknown network profile '%s'\n", flags.net.c_str());
    return 2;
  }
  network.bisection_oversubscription = flags.oversub;
  network.max_chunk_bytes = flags.chunk_kb << 10;
  network.credit_bytes = flags.credit_kb << 10;
  network.rack_size = flags.rack_size;

  core::CombineMode combine_mode = core::CombineMode::kOff;
  if (flags.combine == "node") {
    combine_mode = core::CombineMode::kNode;
  } else if (flags.combine == "rack") {
    combine_mode = core::CombineMode::kRack;
  } else if (flags.combine != "off") {
    std::fprintf(stderr, "unknown combine mode '%s'\n", flags.combine.c_str());
    return 2;
  }

  cluster::Platform platform(cluster::ClusterSpec::homogeneous(
      flags.nodes, cluster::NodeSpec::das4_type1(), std::move(network)));
  dfs::Dfs fs(platform, dfs::DfsConfig{});

  if (flags.tenants > 0) {
    if (flags.runtime == "hadoop") {
      std::fprintf(stderr, "--tenants needs the glasswing runtime\n");
      return 2;
    }
    if (flags.sched != "fifo" && flags.sched != "fair" &&
        flags.sched != "priority") {
      std::fprintf(stderr, "unknown policy '%s' (fifo|fair|priority)\n",
                   flags.sched.c_str());
      return 2;
    }
    apps::WorkloadConfig wl;
    wl.jobs = flags.jobs;
    wl.tenants = flags.tenants;
    wl.arrival_rate_jobs_per_s = flags.arrival_rate;
    wl.seed = flags.seed;
    std::vector<core::JobRequest> requests =
        apps::make_mixed_workload(platform, fs, wl);

    core::GlasswingRuntime rt(platform, fs, device_spec(flags.device));
    core::SchedulerConfig sc;
    sc.policy = core::parse_sched_policy(flags.sched);
    sc.max_resident_jobs = flags.max_resident;
    sc.node_memory_bytes = flags.mem_mb << 20;
    sc.preemption = flags.preempt;
    sc.elastic_slots = flags.elastic;
    core::Scheduler sched(rt, platform, fs, sc);
    for (auto& req : requests) sched.submit(std::move(req));
    const double t0 = platform.sim().now();
    sched.run_all();
    const double makespan = platform.sim().now() - t0;

    std::printf("%d tenants, %d jobs on %d nodes (%s), policy %s, "
                "%.2f jobs/s offered\n",
                flags.tenants, flags.jobs, flags.nodes, flags.device.c_str(),
                flags.sched.c_str(), flags.arrival_rate);
    for (const auto& j : sched.results()) {
      if (j.rejected) {
        std::printf("job %d [%s] tenant=%d REJECTED at %.3fs\n", j.job_id,
                    j.name.c_str(), j.tenant, j.arrival_s);
        continue;
      }
      std::string extra;
      if (j.preemptions > 0) {
        extra += " preempted=" + std::to_string(j.preemptions);
      }
      if (j.combine_degraded) extra += " combine-degraded";
      if (j.failed) extra += " FAILED";
      std::printf("job %d [%s] tenant=%d arrive=%.3fs wait=%.3fs "
                  "latency=%.3fs%s\n",
                  j.job_id, j.name.c_str(), j.tenant, j.arrival_s,
                  j.queue_wait_s, j.latency_s, extra.c_str());
    }
    for (const auto& t : sched.tenant_stats()) {
      std::printf("tenant %d: jobs=%d service=%.3fs wait=%.3fs\n", t.tenant,
                  t.jobs_finished, t.service_s, t.wait_s);
    }
    core::print_sched_line(sched, sc.policy, makespan);
    if (sched.jobs_failed() > 0) {
      export_trace(flags, platform);
      return 1;
    }
    return finish(flags, platform, fs);
  }

  platform.sim().spawn([](dfs::Dfs& f, util::Bytes data) -> sim::Task<> {
    co_await f.write_distributed("/in/data", std::move(data));
  }(fs, std::move(input)));
  platform.sim().run();

  const bool dag_mode = flags.rounds > 0 || flags.app == "prefixsum";
  if (flags.app == "terasort" && !dag_mode) {
    platform.sim().spawn([](dfs::Dfs& f, core::PartitionFn* out) -> sim::Task<> {
      std::vector<std::string> paths = {"/in/data"};
      *out = co_await apps::sample_range_partitioner(f, 0, std::move(paths),
                                                     2000);
    }(fs, &app.kernels.partition));
    platform.sim().run();
  }

  std::printf("%s: %s on %d nodes (%s), input %.1f MiB\n", flags.runtime.c_str(),
              flags.app.c_str(), flags.nodes,
              flags.runtime == "hadoop" ? "16 slots/node" : flags.device.c_str(),
              fs.file_size("/in/data") / 1048576.0);

  // Match each --restart-node to its --kill-node by node id.
  for (const auto& [node, t] : flags.restarts) {
    bool matched = false;
    for (auto& e : flags.crash_events) {
      if (e.node != node) continue;
      if (t <= e.time) {
        std::fprintf(stderr, "--restart-node=%d@%g precedes its crash\n",
                     node, t);
        return 2;
      }
      e.restart_time = t;
      matched = true;
      break;
    }
    if (!matched) {
      std::fprintf(stderr, "--restart-node=%d without a --kill-node for it\n",
                   node);
      return 2;
    }
  }
  const bool faulty = !flags.crash_events.empty() || flags.speculate;

  if (dag_mode && flags.runtime == "hadoop") {
    std::fprintf(stderr, "--rounds/--app=prefixsum need the glasswing runtime\n");
    return 2;
  }
  if (dag_mode && !flags.crash_events.empty() && flags.kill_round < 0) {
    std::fprintf(stderr, "--kill-node in DAG mode needs --kill-round=R\n");
    return 2;
  }
  if (flags.kill_round >= 0 && (!dag_mode || flags.crash_events.empty())) {
    std::fprintf(stderr, "--kill-round needs DAG mode and a --kill-node\n");
    return 2;
  }

  if (flags.runtime == "hadoop") {
    hadoop::HadoopConfig cfg;
    cfg.input_paths = {"/in/data"};
    cfg.output_path = "/out";
    cfg.split_size = flags.split_kb << 10;
    cfg.use_combiner = flags.combiner;
    cfg.crash_events = flags.crash_events;
    cfg.speculate = flags.speculate;
    hadoop::HadoopRuntime rt(platform, fs);
    hadoop::HadoopResult r;
    // The baseline rejects fault configs with a typed error; surface it as
    // a clean CLI failure instead of an uncaught exception.
    try {
      r = rt.run(app.kernels, cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("elapsed %.3fs  (map %.3fs, shuffle+reduce %.3fs)\n",
                r.elapsed_seconds, r.map_phase_seconds,
                r.reduce_phase_seconds);
    std::printf("%llu records, %llu intermediate pairs, %llu output pairs\n",
                static_cast<unsigned long long>(r.input_records),
                static_cast<unsigned long long>(r.intermediate_pairs),
                static_cast<unsigned long long>(r.output_pairs));
    if (flags.net_report) {
      std::printf("net: shuffle=%llu dfs=%llu control=%llu bytes\n",
                  static_cast<unsigned long long>(r.net_shuffle_bytes),
                  static_cast<unsigned long long>(r.net_dfs_bytes),
                  static_cast<unsigned long long>(r.net_control_bytes));
    }
    return finish(flags, platform, fs);
  }

  core::JobConfig cfg;
  cfg.input_paths = {"/in/data"};
  cfg.output_path = "/out";
  cfg.split_size = flags.split_kb << 10;
  cfg.buffering = flags.buffering;
  cfg.partitions_per_node = flags.partitions;
  cfg.partitioner_threads = flags.partitioner_threads;
  cfg.output_mode = flags.collector == "pool" ? core::OutputMode::kSharedPool
                                              : core::OutputMode::kHashTable;
  cfg.use_combiner = flags.combiner;
  cfg.combine_mode = combine_mode;
  if (!dag_mode) cfg.crash_events = flags.crash_events;
  cfg.speculate = flags.speculate;
  cfg.node_memory_bytes = flags.mem_mb << 20;
  cfg.spill_bandwidth_bytes_per_s = flags.spill_bw_mb * 1e6;

  core::GlasswingRuntime rt(platform, fs, device_spec(flags.device));

  if (dag_mode) {
    const core::EdgeKind edge = flags.pin_intermediates
                                    ? core::EdgeKind::kPinned
                                    : core::EdgeKind::kCheckpoint;
    core::DagConfig dc;
    dc.input_paths = {"/in/data"};
    dc.output_root = "/out";
    dc.base = cfg;
    dc.pin_inputs = flags.pin_intermediates;
    for (const auto& e : flags.crash_events) {
      dc.round_crashes.push_back({flags.kill_round, e});
    }
    core::DagResult dr;
    try {
      if (flags.app == "kmeans") {
        apps::KmeansConfig km;
        dr = apps::kmeans_dag(rt, platform, fs, km,
                              apps::generate_centers(km, flags.seed),
                              "/in/data", "/out", flags.rounds, cfg, edge,
                              flags.pin_intermediates,
                              /*pin_budget_bytes=*/0,
                              std::move(dc.round_crashes))
                 .dag;
      } else if (flags.app == "terasort") {
        dr = apps::terasort_dag(rt, platform, fs, std::move(dc), edge);
      } else if (flags.app == "prefixsum") {
        dr = apps::prefix_sums_dag(rt, platform, fs, std::move(dc),
                                   apps::PrefixSumConfig{}, edge, edge);
      } else {
        std::fprintf(stderr, "--rounds: app '%s' has no multi-round form\n",
                     flags.app.c_str());
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("elapsed %.3fs over %zu rounds\n", dr.elapsed_seconds,
                dr.rounds.size());
    for (const auto& rr : dr.rounds) {
      std::printf("round %d [%s]: elapsed %.3fs  %llu output pairs in %zu "
                  "files\n",
                  rr.round, rr.name.c_str(), rr.job.elapsed_seconds,
                  static_cast<unsigned long long>(rr.job.stats.output_pairs),
                  rr.outputs.size());
    }
    core::print_dag_line(dr);
    if (flags.net_report) {
      core::JobStats agg;
      for (const auto& rr : dr.rounds) {
        agg.net_shuffle_bytes += rr.job.stats.net_shuffle_bytes;
        agg.net_dfs_bytes += rr.job.stats.net_dfs_bytes;
        agg.net_control_bytes += rr.job.stats.net_control_bytes;
        agg.net_rack_agg_bytes += rr.job.stats.net_rack_agg_bytes;
      }
      core::print_traffic_split_line("net", agg);
    }
    return finish(flags, platform, fs);
  }
  core::JobResult r;
  try {
    r = rt.run(app.kernels, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("elapsed %.3fs  (map %.3fs, merge delay %.3fs, reduce %.3fs)\n",
              r.elapsed_seconds, r.map_phase_seconds, r.merge_delay_seconds,
              r.reduce_phase_seconds);
  std::printf("stages: input %.3f | stage %.3f | kernel %.3f | retrieve %.3f "
              "| partition %.3f\n",
              r.stages.input, r.stages.stage, r.stages.kernel,
              r.stages.retrieve, r.stages.partition);
  std::printf("%llu records -> %llu intermediate pairs -> %llu output pairs "
              "in %zu files\n",
              static_cast<unsigned long long>(r.stats.input_records),
              static_cast<unsigned long long>(r.stats.intermediate_pairs),
              static_cast<unsigned long long>(r.stats.output_pairs),
              r.output_files.size());
  if (faulty) {
    std::printf(
        "faults: reexec=%llu reassigned=%llu rounds=%llu rereplicated=%llu "
        "lost_replicas=%llu dup_dropped=%llu spec_wins=%llu spec_losses=%llu\n",
        static_cast<unsigned long long>(r.stats.tasks_reexecuted),
        static_cast<unsigned long long>(r.stats.partitions_reassigned),
        static_cast<unsigned long long>(r.stats.recovery_rounds),
        static_cast<unsigned long long>(r.stats.blocks_rereplicated),
        static_cast<unsigned long long>(r.stats.dfs_replicas_lost),
        static_cast<unsigned long long>(r.stats.duplicate_runs_dropped),
        static_cast<unsigned long long>(r.stats.speculative_wins),
        static_cast<unsigned long long>(r.stats.speculative_losses));
  }
  if (cfg.governed()) {
    core::print_mem_line(cfg.node_memory_bytes, r.stats);
  }
  if (combine_mode != core::CombineMode::kOff) {
    core::print_combine_line(r.stats);
  }
  if (flags.net_report) {
    core::print_traffic_split_line("net", r.stats);
  }
  return finish(flags, platform, fs);
}

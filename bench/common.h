// Shared scaffolding for the reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§IV). Times are SIMULATED seconds from the deterministic DES
// clock (reported to google-benchmark via manual timing); datasets are
// scaled-down versions of the paper's inputs with the same key statistics,
// so the SHAPE of each result (who wins, by what factor, where crossovers
// fall) is the reproduction target, not absolute numbers.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/common.h"
#include "baselines/gpmr/gpmr.h"
#include "baselines/hadoop/hadoop.h"
#include "cluster/cluster.h"
#include "core/job.h"
#include "core/report.h"
#include "gwdfs/fs.h"

namespace gw::bench {

// Benchmark input scale: data sizes default to a laptop-friendly scale-down
// of the paper's datasets; override with GW_BENCH_SCALE (a multiplier).
inline double scale() {
  if (const char* env = std::getenv("GW_BENCH_SCALE")) {
    return std::atof(env);
  }
  return 1.0;
}

inline std::uint64_t scaled_bytes(std::uint64_t base) {
  return static_cast<std::uint64_t>(static_cast<double>(base) * scale());
}

inline cluster::Platform make_platform(
    int nodes, cluster::NodeSpec spec = cluster::NodeSpec::das4_type1(),
    net::NetworkProfile network = net::NetworkProfile::qdr_infiniband_ipoib()) {
  return cluster::Platform(cluster::ClusterSpec::homogeneous(
      nodes, std::move(spec), std::move(network)));
}

inline void stage_input(cluster::Platform& p, dfs::FileSystem& fs,
                        const std::string& path, util::Bytes contents) {
  // HDFS inputs are staged like TeraGen/distcp would: block replicas spread
  // over the whole cluster, no writer affinity. LocalFs inputs are fully
  // replicated (the GPMR experimental layout).
  if (auto* hdfs = dynamic_cast<dfs::Dfs*>(&fs)) {
    p.sim().spawn([](dfs::Dfs& f, std::string pa, util::Bytes c) -> sim::Task<> {
      co_await f.write_distributed(pa, std::move(c));
    }(*hdfs, path, std::move(contents)));
    p.sim().run();
    return;
  }
  p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                   util::Bytes c) -> sim::Task<> {
    co_await f.write(0, pa, std::move(c));
  }(fs, path, std::move(contents)));
  p.sim().run();
  if (auto* local = dynamic_cast<dfs::LocalFs*>(&fs)) {
    local->replicate_everywhere(path);
  }
}

// Accumulates (x, seconds) series and prints the paper-style summary:
// execution times (falling) and speedups over the 1st x (rising). Points
// added with add_timed() also report the host wall-clock spent producing
// them — the cost of actually running the simulation, which the offload
// pool shrinks on multicore hosts while the simulated column stays
// bit-identical.
class SeriesTable {
 public:
  explicit SeriesTable(std::string x_label) : x_label_(std::move(x_label)) {}

  void add(const std::string& series, double x, double seconds,
           double wall_seconds = -1) {
    data_[series].push_back(Point{x, seconds, wall_seconds});
  }

  // Runs fn() (returning simulated seconds), measures the host wall-clock
  // around it, and records both. Returns the simulated seconds.
  template <typename Fn>
  double add_timed(const std::string& series, double x, Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    const double seconds = fn();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    add(series, x, seconds, wall);
    return seconds;
  }

  void print(const char* title) const {
    std::printf("\n=== %s ===\n", title);
    std::printf("%-12s", x_label_.c_str());
    for (const auto& [name, points] : data_) {
      std::printf(" %16s %9s %9s", (name + "(s)").c_str(), "speedup",
                  "wall(s)");
    }
    std::printf("\n");
    // Collect the x values of the longest series.
    std::vector<double> xs;
    for (const auto& [name, points] : data_) {
      if (points.size() > xs.size()) {
        xs.clear();
        for (auto& p : points) xs.push_back(p.x);
      }
    }
    for (double x : xs) {
      std::printf("%-12g", x);
      for (const auto& [name, points] : data_) {
        double t = -1, base = -1, wall = -1;
        for (auto& p : points) {
          if (p.x == x) {
            t = p.sim_s;
            wall = p.wall_s;
          }
          if (base < 0) base = p.sim_s;  // first point of the series
        }
        if (t >= 0) {
          std::printf(" %16.3f %9.2f", t, base / t);
          if (wall >= 0) {
            std::printf(" %9.3f", wall);
          } else {
            std::printf(" %9s", "-");
          }
        } else {
          std::printf(" %16s %9s %9s", "-", "-", "-");
        }
      }
      std::printf("\n");
    }
  }

  double at(const std::string& series, double x) const {
    for (auto& p : data_.at(series)) {
      if (p.x == x) return p.sim_s;
    }
    return -1;
  }

 private:
  struct Point {
    double x;
    double sim_s;
    double wall_s;  // host wall-clock; < 0 when not measured
  };
  std::string x_label_;
  std::map<std::string, std::vector<Point>> data_;
};

// Paper-style map-pipeline breakdown table body: one column per
// configuration, one row per stage busy time. Rows come from
// JobResult::stages, which job.cc reduces from the trace
// (trace::Tracer::occupancy) — benches no longer aggregate spans
// themselves. Stage/Retrieve rows only matter on discrete-memory devices;
// `show_staging` toggles them (§IV-B2). Callers print their own title line.
inline void print_stage_breakdown(const std::vector<const char*>& columns,
                                  const std::vector<const core::JobResult*>& rs,
                                  bool show_staging) {
  std::printf("%-16s", "");
  for (const char* c : columns) std::printf(" %10s", c);
  std::printf("\n");
  auto row = [&](const char* label, auto get) {
    std::printf("%-16s", label);
    for (const core::JobResult* r : rs) std::printf(" %10.3f", get(*r));
    std::printf("\n");
  };
  row("Input", [](const core::JobResult& r) { return r.stages.input; });
  if (show_staging) {
    row("Stage", [](const core::JobResult& r) { return r.stages.stage; });
  }
  row("Kernel", [](const core::JobResult& r) { return r.stages.kernel; });
  if (show_staging) {
    row("Retrieve", [](const core::JobResult& r) { return r.stages.retrieve; });
  }
  row("Partitioning",
      [](const core::JobResult& r) { return r.stages.partition; });
  row("Map elapsed",
      [](const core::JobResult& r) { return r.stages.map_elapsed; });
  row("Merge delay",
      [](const core::JobResult& r) { return r.merge_delay_seconds; });
  row("Reduce time",
      [](const core::JobResult& r) { return r.reduce_phase_seconds; });
}

// One-line host-path summary for a finished job: intermediate-store merge
// activity (count, average fan-in, spills), the memory-governor columns
// (spilled bytes, merge-tree depth, peak occupancy, stall time; unbounded
// runs stall nowhere), and collector hash-probe work.
inline void print_host_path_summary(const char* label,
                                    const core::JobResult& r) {
  const double fanin =
      r.stats.merges > 0 ? static_cast<double>(r.stats.merge_fanin_runs) /
                               static_cast<double>(r.stats.merges)
                         : 0.0;
  std::printf(
      "host-path[%s]: merges=%llu avg-fanin=%.1f spills=%llu "
      "spill-mb=%.1f merge-levels=%llu peak-mem-mb=%.1f mem-stall=%.3fs "
      "hash-probes=%llu\n",
      label, static_cast<unsigned long long>(r.stats.merges), fanin,
      static_cast<unsigned long long>(r.stats.spills),
      static_cast<double>(r.stats.spill_bytes) / 1048576.0,
      static_cast<unsigned long long>(r.stats.merge_levels),
      static_cast<double>(r.stats.peak_mem_bytes) / 1048576.0,
      r.stats.mem_stall_seconds,
      static_cast<unsigned long long>(r.stats.hash_table_probes));
}

// One-line remote-traffic split for a finished job: what the transport put
// on the wire per class (shuffle vs DFS block traffic vs control frames,
// plus rack_agg when hierarchical combining moved bytes). Format shared
// with gwrun via core/report.h.
inline void print_traffic_split(const char* label, const core::JobResult& r) {
  std::string head = "net-split[";
  head += label;
  head += ']';
  core::print_traffic_split_line(head.c_str(), r.stats);
}

// --- one-shot job runners (fresh platform + filesystem per point) ---

struct RunOpts {
  cl::DeviceSpec device = cl::DeviceSpec::cpu_dual_e5620();
  bool local_fs = false;  // LocalFs with fully-replicated input (GPMR layout)
  cluster::NodeSpec node = cluster::NodeSpec::das4_type1();
  net::NetworkProfile network = net::NetworkProfile::qdr_infiniband_ipoib();
};

inline double run_glasswing(int nodes, const core::AppKernels& app,
                            const util::Bytes& input, core::JobConfig cfg,
                            RunOpts opts = {},
                            core::JobResult* out = nullptr) {
  cluster::Platform p = make_platform(nodes, opts.node, opts.network);
  std::unique_ptr<dfs::FileSystem> fs;
  if (opts.local_fs) {
    fs = std::make_unique<dfs::LocalFs>(p);
  } else {
    fs = std::make_unique<dfs::Dfs>(p, dfs::DfsConfig{});
  }
  if (cfg.input_paths.empty()) cfg.input_paths = {"/in/data"};
  if (cfg.output_path.empty()) cfg.output_path = "/out";
  stage_input(p, *fs, cfg.input_paths[0], input);
  core::GlasswingRuntime rt(p, *fs, opts.device);
  core::JobResult result = rt.run(app, cfg);
  if (out != nullptr) *out = result;
  return result.elapsed_seconds;
}

inline double run_glasswing_cpu(int nodes, const core::AppKernels& app,
                                const util::Bytes& input,
                                core::JobConfig cfg,
                                core::JobResult* out = nullptr) {
  return run_glasswing(nodes, app, input, std::move(cfg), RunOpts{}, out);
}

inline double run_hadoop(int nodes, const core::AppKernels& app,
                         const util::Bytes& input, hadoop::HadoopConfig cfg,
                         hadoop::HadoopResult* out = nullptr) {
  cluster::Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  if (cfg.input_paths.empty()) cfg.input_paths = {"/in/data"};
  if (cfg.output_path.empty()) cfg.output_path = "/out";
  stage_input(p, fs, cfg.input_paths[0], input);
  hadoop::HadoopRuntime rt(p, fs);
  hadoop::HadoopResult result = rt.run(app, cfg);
  if (out != nullptr) *out = result;
  return result.elapsed_seconds;
}

inline gpmr::GpmrResult run_gpmr(int nodes, const core::AppKernels& app,
                                 const util::Bytes& input,
                                 gpmr::GpmrConfig cfg,
                                 cl::DeviceSpec device = cl::DeviceSpec::gtx480()) {
  cluster::Platform p = make_platform(nodes);
  dfs::LocalFs fs(p);
  if (cfg.input_paths.empty()) cfg.input_paths = {"/in/data"};
  stage_input(p, fs, cfg.input_paths[0], input);
  gpmr::GpmrRuntime rt(p, fs, std::move(device));
  return rt.run(app, cfg);
}

// Registers a single-shot manual-time benchmark.
template <typename Fn>
void register_point(const std::string& name, Fn fn) {
  benchmark::RegisterBenchmark(name.c_str(), [fn](benchmark::State& state) {
    for (auto _ : state) {
      const double seconds = fn(state);
      state.SetIterationTime(seconds);
    }
  })->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);
}

}  // namespace gw::bench

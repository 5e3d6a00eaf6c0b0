// Shared human-readable report lines for finished jobs, used by the gwrun
// CLI and the bench drivers so every front-end prints the same
// grep-stable formats. The exact strings are load-bearing: the Golden
// ctests (tests/golden/) pin them byte for byte and assert on some.
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/api.h"
#include "core/dag.h"
#include "core/sched.h"

namespace gw::core {

// Memory-governor summary; callers print it only for governed runs.
inline void print_mem_line(std::uint64_t budget_bytes, const JobStats& s) {
  std::printf(
      "mem: budget=%lluMiB peak=%.1fMiB spill=%.1fMiB spills=%llu "
      "merge_levels=%llu stalls=%.3fs\n",
      static_cast<unsigned long long>(budget_bytes >> 20),
      static_cast<double>(s.peak_mem_bytes) / 1048576.0,
      static_cast<double>(s.spill_bytes) / 1048576.0,
      static_cast<unsigned long long>(s.spills),
      static_cast<unsigned long long>(s.merge_levels),
      s.mem_stall_seconds);
}

// Remote-traffic split per transport class. `head` is the line prefix
// ("net" for gwrun, "net-split[label]" for benches). The rack_agg column
// appears only when the rack tier actually moved bytes, so every
// non-combining run keeps its legacy byte-identical output.
inline void print_traffic_split_line(const char* head, const JobStats& s) {
  std::printf("%s: shuffle=%llu dfs=%llu control=%llu", head,
              static_cast<unsigned long long>(s.net_shuffle_bytes),
              static_cast<unsigned long long>(s.net_dfs_bytes),
              static_cast<unsigned long long>(s.net_control_bytes));
  if (s.net_rack_agg_bytes > 0) {
    std::printf(" rack_agg=%llu",
                static_cast<unsigned long long>(s.net_rack_agg_bytes));
  }
  std::printf(" bytes\n");
}

// Hierarchical-combining summary; callers print it when a combine mode was
// requested. in/out are the bytes entering/leaving the combine passes
// across both tiers; the ratio is the traffic the tiers eliminated.
inline void print_combine_line(const JobStats& s) {
  const double ratio =
      s.combine_in_bytes > 0
          ? 1.0 - static_cast<double>(s.combine_out_bytes) /
                      static_cast<double>(s.combine_in_bytes)
          : 0.0;
  std::printf("combine: in=%.1fMiB out=%.1fMiB saved=%.1f%% rack_agg=%.1fMiB\n",
              static_cast<double>(s.combine_in_bytes) / 1048576.0,
              static_cast<double>(s.combine_out_bytes) / 1048576.0,
              100.0 * ratio,
              static_cast<double>(s.net_rack_agg_bytes) / 1048576.0);
}

// Multi-round DAG summary: executed/replayed round counts and what the
// pinned intermediate store held and saved. Golden rows assert on it.
inline void print_dag_line(const DagResult& r) {
  std::printf(
      "dag: rounds=%zu executed=%d replays=%d pinned_peak=%.1fMiB "
      "pin_spills=%llu cache_hits=%.1fMiB elapsed=%.3fs\n",
      r.rounds.size(), r.rounds_executed, r.replays,
      static_cast<double>(r.pinned_peak_bytes) / 1048576.0,
      static_cast<unsigned long long>(r.pin_spills),
      static_cast<double>(r.cache_hit_bytes) / 1048576.0, r.elapsed_seconds);
}

// Nearest-rank quantile over job sojourn times (finished jobs only).
inline double sched_latency_quantile(const std::vector<ScheduledJob>& jobs,
                                     double q) {
  std::vector<double> lat;
  for (const auto& j : jobs) {
    if (!j.rejected && !j.failed) lat.push_back(j.latency_s);
  }
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = std::min(
      lat.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(lat.size())));
  return lat[idx];
}

// Multi-tenant scheduler summary. Golden rows assert on "sched:"; keep
// the format stable.
inline void print_sched_line(const Scheduler& s, SchedPolicy policy,
                             double makespan_s) {
  int finished = 0;
  for (const auto& j : s.results()) {
    if (!j.rejected && !j.failed) ++finished;
  }
  std::printf(
      "sched: policy=%s jobs=%d finished=%d rejected=%d failed=%d "
      "resident_peak=%d queue_peak=%d p50=%.3fs p99=%.3fs makespan=%.3fs "
      "throughput=%.3fjobs/s preempts=%d resumes=%d degraded=%d\n",
      sched_policy_name(policy), s.jobs_submitted(), finished,
      s.jobs_rejected(), s.jobs_failed(), s.resident_peak(), s.queue_peak(),
      sched_latency_quantile(s.results(), 0.50),
      sched_latency_quantile(s.results(), 0.99), makespan_s,
      makespan_s > 0 ? finished / makespan_s : 0.0, s.jobs_preempted(),
      s.jobs_resumed(), s.combine_degraded_jobs());
}

}  // namespace gw::core

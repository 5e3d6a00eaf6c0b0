// Multi-tenant job scheduler: N concurrent jobs share one cluster.
//
// The paper's runtime is "structured in the form of a light-weight software
// library" (§I) around a single job; real clusters run many. core::Scheduler
// generalizes the job layer to a shared-cluster model: jobs arrive on the
// simulated clock (open-loop, from a deterministic TrafficGen or explicit
// arrival times), wait in a JobQueue under an admission policy, and execute
// concurrently through GlasswingRuntime::run_async — each confined to its
// own port namespace and trace scope, time-sharing per-node map/reduce slot
// gates and (optionally) per-node memory governors.
//
// Determinism: everything runs on the one single-threaded simulation. Given
// the same submissions, the admission order, slot interleavings and every
// job's output bytes are reproducible run-to-run and independent of
// GW_THREADS, like the rest of the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/job.h"
#include "gwdfs/fs.h"
#include "sim/sim.h"
#include "util/rng.h"

namespace gw::core {

// Queue-ordering policy for admission (who runs when a slot frees up).
//   kFifo     — arrival order, regardless of tenant or size.
//   kFair     — least-service-first: pick the queued job whose tenant has
//               accumulated the least residency time so far (ties broken by
//               arrival order). Small/interactive tenants overtake a tenant
//               monopolizing the cluster with large jobs.
//   kPriority — strict priority classes (lower value = more urgent), ties
//               by arrival; optional aging promotes long-waiting jobs so a
//               hot class cannot starve a cold one forever.
enum class SchedPolicy { kFifo = 0, kFair = 1, kPriority = 2 };

// "fifo" | "fair" | "priority" (asserts on anything else).
SchedPolicy parse_sched_policy(std::string_view name);
const char* sched_policy_name(SchedPolicy policy);

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kFifo;
  // Admission control: at most this many jobs resident (admitted, running)
  // at once; further arrivals queue.
  int max_resident_jobs = 4;
  // Queue bound: an arrival finding this many jobs already queued is
  // rejected (counted, never run). 0 = unbounded queue.
  int max_queued_jobs = 0;
  // Shared per-node memory budget carved across ALL resident jobs (one
  // governor per node, handed to every job via JobEnv). 0 = each job uses
  // its own per-job governor iff its JobConfig asks for one.
  std::uint64_t node_memory_bytes = 0;
  // kPriority only: every full interval a job waits promotes it one
  // priority class (0 = no aging, strict classes). Aging is computed in
  // integer microsecond ticks of the simulated clock, so two evaluations
  // of the same queue in one admission pass can never disagree near an
  // interval boundary.
  double priority_aging_s = 0;

  // --- checkpoint-based preemption ---
  // A deserving arrival may suspend a resident job at its next task
  // boundary: the job winds down cleanly (in-flight work committed to the
  // map-output ledger), its remainder requeues as a resumable entry that
  // replays through the ledger, and its slots / port window / governor
  // shares free deterministically. kPriority displaces the least urgent
  // strictly-lower-class resident; kFair displaces a resident of the most
  // over-served tenant; kFifo never revokes.
  bool preemption = false;

  // --- elastic slot reallocation ---
  // Per-JOB per-node slot pools replace the shared phase gates: slots gate
  // individual tasks (one map split / one reduce partition per slot) and
  // the scheduler resizes each resident's share as residency changes —
  // grow when co-residents finish, shrink (at task boundaries) when new
  // jobs are admitted. kFair targets equal instantaneous shares; kPriority
  // lets the most urgent class steal up to half of a node's slots from
  // lower classes.
  bool elastic_slots = false;
};

// One job submission. arrival_s is on the simulated clock; submissions must
// all be registered (submit()) before run_all() starts the event loop.
struct JobRequest {
  std::string name;  // reporting label, e.g. "wc-small"
  AppKernels app;
  JobConfig config;
  int tenant = 0;
  int priority = 0;  // SchedPolicy::kPriority class; lower = more urgent
  // Arrival relative to the scheduler's epoch (sim.now() at construction),
  // so input staging that already advanced the clock doesn't show up as
  // queueing delay.
  double arrival_s = 0;
  dfs::FileSystem* fs_override = nullptr;  // null = the scheduler-bound fs
};

// Per-job outcome: queueing delays plus the usual JobResult. All times are
// relative to the scheduler epoch.
struct ScheduledJob {
  int job_id = -1;
  std::string name;
  int tenant = 0;
  int priority = 0;
  double arrival_s = 0;
  double admit_s = 0;
  double finish_s = 0;
  double queue_wait_s = 0;  // admit - arrival
  double latency_s = 0;     // finish - arrival (sojourn time)
  bool rejected = false;    // bounced by max_queued_jobs
  bool failed = false;      // run_async threw (unrecoverable data loss)
  // Strict tie-break key: dense rank in order of actual arrival on the
  // simulated clock (first enqueue; kept across suspensions). Every policy
  // breaks ties by it, so equal-class / equal-service jobs admit in
  // arrival order regardless of queue churn.
  int arrival_seq = -1;
  int preemptions = 0;  // times this job was suspended mid-run
  int resumes = 0;      // residencies that replayed a suspended remainder
  // The job asked for combining but the runtime forced a weaker mode
  // (shared governor, or a checkpoint-preemptable job): surfaced here so
  // the degradation is never silent.
  bool combine_degraded = false;
  JobResult result;  // valid iff !rejected && !failed
};

struct TenantStats {
  int tenant = 0;
  int jobs_finished = 0;
  double service_s = 0;  // total residency (finish - admit) across its jobs
  double wait_s = 0;     // total queue wait across its jobs
};

// The scheduler. Owns the shared slot gates and governors; drives the
// platform's simulation in run_all().
class Scheduler {
 public:
  Scheduler(GlasswingRuntime& runtime, cluster::Platform& platform,
            dfs::FileSystem& fs, SchedulerConfig config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers a job to arrive at req.arrival_s. Returns the job id it will
  // run under (dense, in submission order); the id fixes the job's port
  // namespace and trace scope. Call before run_all().
  int submit(JobRequest req);

  // Runs the event loop until every submitted job reached a terminal state
  // (finished, failed or rejected). Asserts on a hang.
  void run_all();

  const std::vector<ScheduledJob>& results() const { return results_; }
  std::vector<TenantStats> tenant_stats() const;

  int jobs_submitted() const { return static_cast<int>(requests_.size()); }
  int jobs_rejected() const { return rejected_; }
  int jobs_failed() const { return failed_; }
  // High-water mark of concurrently resident jobs.
  int resident_peak() const { return resident_peak_; }
  // Longest queue observed (including the job about to be admitted).
  int queue_peak() const { return queue_peak_; }
  // Total suspensions (sum of per-job preemptions) and resumed residencies.
  int jobs_preempted() const { return preempt_count_; }
  int jobs_resumed() const { return resume_count_; }
  // Jobs whose requested combine mode was silently forced weaker — now
  // counted and surfaced (see ScheduledJob::combine_degraded).
  int combine_degraded_jobs() const { return combine_degraded_count_; }
  // Distinct port windows ever created. Windows are recycled through a
  // free-list when a job leaves residency, so this is bounded by peak
  // residency — not by the total job count (the old `stride * (id + 1)`
  // scheme exhausted the port space after enough sequential jobs).
  int port_windows_created() const { return windows_created_; }

 private:
  // Per-residency execution state for one admitted job: the JobEnv handed
  // to run_async (with the job's recycled port window) and its elastic
  // per-node slot pools (if enabled). Destroyed when the job leaves
  // residency (finish, failure or suspension); the resumable remainder
  // lives in preempts_[id].
  struct Residency {
    double since = 0;  // sim.now() - epoch_ at (re)admission
    std::vector<std::unique_ptr<sim::Resource>> map_slots;
    std::vector<std::unique_ptr<sim::Resource>> reduce_slots;
    JobEnv env;
  };

  sim::Task<void> arrive(int id);
  sim::Task<void> run_job(int id);
  void pump();
  std::size_t pick_next() const;  // index into queue_, by policy
  void maybe_preempt();           // request a wind-down for one resident
  void recompute_shares();        // resize elastic slot pools to policy
  int alloc_window();
  void free_window(int window);
  double tenant_service(int tenant) const;
  // tenant_service plus the in-flight residency time of the tenant's
  // currently resident jobs (service_s only updates at residency end, which
  // would make a first-residency monopolist look idle to the fair policy).
  double tenant_service_live(int tenant) const;

  GlasswingRuntime& runtime_;
  cluster::Platform& platform_;
  dfs::FileSystem& fs_;
  SchedulerConfig config_;

  // Shared execution environment every residency's JobEnv starts from.
  std::vector<std::unique_ptr<sim::Resource>> map_slots_;
  std::vector<std::unique_ptr<sim::Resource>> reduce_slots_;
  std::vector<std::unique_ptr<MemoryGovernor>> governors_;
  JobEnv env_;

  std::vector<JobRequest> requests_;
  std::vector<ScheduledJob> results_;
  // Resumable-remainder handles, parallel to requests_ (null unless
  // config_.preemption). Persist across suspensions; a Residency is
  // per-admission.
  std::vector<std::unique_ptr<PreemptControl>> preempts_;
  std::vector<int> queue_;         // queued job ids, arrival order
  std::vector<int> resident_ids_;  // resident job ids, admission order
  std::map<int, Residency> running_;
  std::map<int, TenantStats> tenants_;
  std::vector<int> free_windows_;  // recycled port windows, smallest first

  double epoch_ = 0;  // sim.now() at construction; arrival origin
  bool any_crashes_ = false;  // some submission injects node crashes
  int resident_ = 0;
  int resident_peak_ = 0;
  int queue_peak_ = 0;
  int completed_ = 0;  // terminal states: finished + failed + rejected
  int rejected_ = 0;
  int failed_ = 0;
  int next_arrival_seq_ = 0;
  int windows_created_ = 0;
  int preempt_count_ = 0;
  int resume_count_ = 0;
  int combine_degraded_count_ = 0;
};

// Deterministic open-loop arrival process: exponential interarrival times
// (Poisson arrivals) at `jobs_per_s`, from the repo's seeded xoshiro stream.
// Same seed + rate => the same arrival timeline, bit-for-bit.
class TrafficGen {
 public:
  TrafficGen(std::uint64_t seed, double jobs_per_s);

  // Advances the arrival clock by one exponential interarrival gap and
  // returns the new absolute arrival time (seconds).
  double next_arrival_s();

  // Uniform pick in [0, n) for workload mixing (kept here so a traffic
  // trace is one seed, not two).
  std::uint64_t pick(std::uint64_t n);

  double offered_load_jobs_per_s() const { return rate_; }

 private:
  util::Rng rng_;
  double rate_;
  double clock_ = 0;
};

}  // namespace gw::core

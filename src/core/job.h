// Glasswing job runtime: the public entry point of the framework.
//
// A GlasswingRuntime binds a cluster Platform, a FileSystem and a compute
// DeviceSpec, and executes MapReduce jobs: on every node it instantiates the
// map pipeline, the intermediate-data manager with its merger threads and
// shuffle receiver, and — once merging finishes — the reduce pipeline
// (execution model of §III: map and merge run concurrently per node; reduce
// starts after the merge phase completes).
//
// Glasswing is "structured in the form of a light-weight software library"
// (§I): construct a runtime, call run(), read the JobResult.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/pipeline.h"
#include "gwcl/device.h"
#include "gwdfs/fs.h"

namespace gw::core {

class MemoryGovernor;

// Where a job runs: its port window and trace scope, and what it shares
// with co-resident jobs. A default JobEnv is what run() uses: port window 0,
// unscoped trace names, ungated pipelines and per-job governors.
// core::Scheduler hands every resident job its own: a recycled port window,
// a "j<id>." trace scope, the per-node map/reduce slot gates concurrent jobs
// time-share each node through, optionally per-node memory governors shared
// across tenants (one budget per node, not per job), and with preemption
// the job's PreemptControl.
struct JobEnv {
  int job_id = -1;  // scheduler job id; -1 = a job run through run()
  // First port of the job's window [port_base, port_base + kPortJobStride).
  // Every job service (shuffle, rack-agg, broadcast, recovery rounds) is
  // addressed at port_base + its net::Port value; DFS traffic stays on the
  // shared kPortDfs.
  int port_base = net::kPortJobStride;
  // Prefix for the job's trace names (e.g. "j3."); empty = unscoped.
  std::string trace_scope;
  // Another tenant on the shared cluster injects node crashes, so a crash
  // can reach this job without any crash_events of its own.
  bool expect_crashes = false;
  std::vector<sim::Resource*> map_slots;     // per node; empty = ungated
  std::vector<sim::Resource*> reduce_slots;  // per node; empty = ungated
  std::vector<MemoryGovernor*> governors;    // per node; empty = per-job
  // Elastic mode: the slot vectors are per-JOB pools the scheduler resizes
  // as residency changes, and slots gate individual tasks (one split / one
  // reduce partition per slot) instead of whole phases.
  bool elastic = false;
  // Non-null = the job is preemptable; also carries resume state when the
  // job was previously suspended (preemptions > 0).
  PreemptControl* preempt = nullptr;

  bool scheduled() const { return job_id >= 0; }
};

class GlasswingRuntime {
 public:
  // One compute device per node, built from `device`; CPU-type devices share
  // the node's host cores (so kernels contend with pipeline host threads).
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   cl::DeviceSpec device);

  // Per-phase device selection ("map and reduce tasks can be executed on
  // CPUs or GPUs", §II): e.g. map on the GPU, reduce on the CPU.
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   cl::DeviceSpec map_device, cl::DeviceSpec reduce_device);

  // Heterogeneous clusters ("some, but not all, nodes have GPUs", §II):
  // one device spec per node; the dynamic split scheduler load-balances,
  // so faster nodes naturally process more splits.
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   std::vector<cl::DeviceSpec> per_node_devices);

  // Runs the job to completion on the platform's simulation and returns the
  // measured result. Output correctness: files under config.output_path,
  // one per non-empty partition, readable with read_output_file().
  //
  // Drives run_async() with a default JobEnv (port window 0), then drains
  // the event loop — events the job left behind, such as a crash scheduled
  // after it finished, still fire but do not count toward the result — and
  // asserts the whole fabric quiesced. A job whose coroutines are still
  // parked when the queue drains aborts as hung.
  //
  // `fs_override` replaces the bound filesystem for this job only; the DAG
  // runtime passes its PinnedFs overlay so rounds read and write through
  // the pinned intermediate store. Null = the constructor-bound fs.
  JobResult run(const AppKernels& app, JobConfig config,
                dfs::FileSystem* fs_override = nullptr);

  // The job lifecycle as a coroutine: setup, the per-node pipelines, then
  // teardown of the job's own port window (purge of crashed nodes'
  // inboxes, expected-sender records, quiesce check) and result assembly.
  // It completes when the job's last node finishes, and it never drives
  // the event loop, so N concurrent invocations (core::Scheduler) share the
  // platform's simulation, each in the port window and trace scope `env`
  // assigns. `env` must outlive the returned task.
  sim::Task<JobResult> run_async(AppKernels app, JobConfig config,
                                 const JobEnv& env,
                                 dfs::FileSystem* fs_override = nullptr);

  cl::Device& device(int node) { return *map_devices_.at(node); }
  cl::Device& reduce_device(int node) { return *reduce_devices_.at(node); }

 private:
  std::vector<std::unique_ptr<cl::Device>> make_devices(
      const cl::DeviceSpec& spec);

  cluster::Platform& platform_;
  dfs::FileSystem& fs_;
  std::vector<std::unique_ptr<cl::Device>> map_devices_;
  std::vector<std::unique_ptr<cl::Device>> reduce_devices_;
};

}  // namespace gw::core

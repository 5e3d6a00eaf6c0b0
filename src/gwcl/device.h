// OpenCL-shaped compute-device abstraction.
//
// Glasswing executes user map/reduce functions as OpenCL kernels on CPUs,
// GPUs and accelerators (paper §II "OpenCL", §III-A). This environment has
// no OpenCL driver or GPU, so the layer substitutes a measured-cost model:
//
//  * Work-items are REAL C++ functors executed on the host thread pool; they
//    count what they do (simple ops, device-memory bytes touched, atomic
//    operations, hash probes) into KernelStats.
//  * The Device charges simulated time for those measured counters using an
//    analytic device model (compute units x per-lane rate, memory bandwidth,
//    kernel-launch overhead, atomic cost) — so application-dependent effects
//    like hash-table contention (paper Table II) arise from real probe
//    counts, not guesses.
//  * Discrete devices (GPUs, Xeon Phi) have a PCIe staging model and their
//    own execution queue; CPU devices use unified host memory (the paper
//    disables the Stage/Retrieve pipeline stages there) and optionally share
//    the node's host-core resource so kernel threads contend with
//    partitioner/merger threads exactly as §IV-B2 describes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/sim.h"
#include "util/thread_pool.h"

namespace gw::cl {

enum class DeviceType { kCpu, kGpu, kAccelerator };

struct DeviceSpec {
  std::string name;
  DeviceType type = DeviceType::kCpu;
  int compute_units = 1;             // parallel hardware lanes
  double ops_per_lane_per_s = 1e9;   // simple-operation throughput per lane
  double mem_bandwidth_bytes_per_s = 20e9;
  std::uint64_t mem_capacity_bytes = 2ull << 30;
  double pcie_bandwidth_bytes_per_s = 0;  // 0 for host-resident devices
  double kernel_launch_overhead_s = 10e-6;
  double atomic_op_cost_s = 10e-9;   // per atomic, divided across lanes
  bool unified_memory = true;
  // NVidia's OpenCL driver serializes memory transfers with kernel
  // execution to a degree; the paper observes "artificially high times for
  // non-dominant stages" from this coupling (§IV-B2). When set, staging
  // transfers also occupy the kernel queue.
  bool transfer_kernel_coupling = false;

  // Dual Xeon E5620 (Type-1 node): 16 hw threads at 2.4 GHz.
  static DeviceSpec cpu_dual_e5620();
  // Dual Xeon E5-2640 (Type-2 node): 24 hw threads at 2.5 GHz.
  static DeviceSpec cpu_dual_e5_2640();
  // NVidia GTX480 (Fermi): 480 lanes at 1.4 GHz, 177 GB/s, 1.5 GB.
  static DeviceSpec gtx480();
  // NVidia GTX680 (Kepler): 1536 lanes at 1.0 GHz, 192 GB/s, 2 GB.
  static DeviceSpec gtx680();
  // NVidia K20m (Kepler GK110): 2496 lanes at 0.7 GHz, 208 GB/s, 5 GB.
  static DeviceSpec k20m();
  // Intel Xeon Phi 5110P: 60 cores x 4 threads, wide SIMD, 320 GB/s GDDR5;
  // high OpenCL launch overhead.
  static DeviceSpec xeon_phi_5110p();
};

// Counters measured while really executing a kernel's work-items.
struct KernelStats {
  std::uint64_t work_items = 0;
  std::uint64_t ops = 0;           // simple arithmetic/compare operations
  std::uint64_t bytes_read = 0;    // device-memory reads
  std::uint64_t bytes_written = 0; // device-memory writes
  std::uint64_t atomic_ops = 0;    // CAS/fetch-add (collector allocations)
  std::uint64_t hash_probes = 0;   // hash-table probe steps (subset of ops)

  KernelStats& operator+=(const KernelStats& o) {
    work_items += o.work_items;
    ops += o.ops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    atomic_ops += o.atomic_ops;
    hash_probes += o.hash_probes;
    return *this;
  }
};

// Per-work-item counter sink, cheap to update from inner loops. One
// instance per work-group, reduced into KernelStats in group order
// afterwards.
class KernelCounters {
 public:
  void charge_ops(std::uint64_t n) { stats_.ops += n; }
  void charge_read(std::uint64_t bytes) { stats_.bytes_read += bytes; }
  void charge_write(std::uint64_t bytes) { stats_.bytes_written += bytes; }
  void charge_atomic(std::uint64_t n = 1) { stats_.atomic_ops += n; }
  void charge_hash_probe(std::uint64_t n = 1) {
    stats_.hash_probes += n;
    stats_.ops += n;
  }
  void charge_item() { stats_.work_items += 1; }

  const KernelStats& stats() const { return stats_; }

 private:
  KernelStats stats_;
};

struct LaunchConfig {
  // Number of OpenCL threads scheduled; the paper calls thread count and
  // work division "often the only parameters necessary to tune" (§I).
  // 0 = one thread per hardware lane.
  int threads = 0;
};

class Device {
 public:
  // `shared_cores` (may be null) is the node's host-core resource; CPU-type
  // devices execute kernels on it so device kernels contend with host
  // threads. Discrete devices ignore it. `trace_node` attributes the
  // device's kernel/PCIe trace tracks to a simulated node.
  Device(sim::Simulation& sim, DeviceSpec spec,
         sim::Resource* shared_cores = nullptr, int trace_node = 0);

  const DeviceSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  bool unified_memory() const { return spec_.unified_memory; }

  using WorkItemFn = std::function<void(std::size_t item, KernelCounters&)>;
  using GroupWorkItemFn =
      std::function<void(std::size_t item, std::size_t group, KernelCounters&)>;

  // Work-items are partitioned into a FIXED number of groups (independent of
  // host parallelism) so that per-group state and counters are byte-for-byte
  // deterministic on any machine; groups are distributed over host threads.
  static constexpr std::size_t kDefaultWorkGroups = 64;

  // Really executes `items` work-items on the host thread pool (collecting
  // counters), then charges the modelled kernel time. Returns the measured
  // stats. Kernels on one device serialize (single command queue).
  // NOTE: functors are taken BY VALUE: these are lazily-started coroutines,
  // so reference parameters to caller temporaries would dangle before the
  // kernel executes.
  sim::Task<KernelStats> run_kernel(std::size_t items, WorkItemFn fn,
                                    LaunchConfig cfg = {});

  // As run_kernel, but work-items know their group index, and per-group
  // counters are reduced in group order. `groups` must be > 0.
  sim::Task<KernelStats> run_kernel_grouped(std::size_t items,
                                            std::size_t groups,
                                            GroupWorkItemFn fn,
                                            LaunchConfig cfg = {});

  // Offload-engine kernel primitive: `job` is a pure function doing the
  // kernel's real host work and returning its measured counters. It is
  // submitted to the host pool at the simulated launch instant; the
  // coroutine then acquires the command queue and joins the job only where
  // the stats-derived charge is consumed, so other nodes' events keep
  // dispatching while the job runs.
  using KernelJobFn = std::function<KernelStats()>;
  sim::Task<KernelStats> run_kernel_job(KernelJobFn job, LaunchConfig cfg = {});

  // The real-execution body of run_kernel_grouped: runs `items` work-items
  // in `groups` fixed groups (fanned out over the pool) and reduces the
  // per-group counters in group order. Usable inside a caller-composed
  // run_kernel_job closure to fold extra host work into the same kernel job.
  static KernelStats execute_grouped(std::size_t items, std::size_t groups,
                                     const GroupWorkItemFn& fn);

  // Charges time for a kernel whose counters were measured elsewhere.
  sim::Task<> charge_kernel(const KernelStats& stats, LaunchConfig cfg = {});

  // Host->device / device->host transfer of `bytes` (pipeline Stage and
  // Retrieve stages). Zero-cost no-ops for unified-memory devices.
  sim::Task<> stage_in(std::uint64_t bytes);
  sim::Task<> stage_out(std::uint64_t bytes);

  // Pure model evaluation (no resources, no clock): the time the given
  // counters would take at the given launch width. Exposed for tests.
  double model_kernel_seconds(const KernelStats& stats,
                              LaunchConfig cfg = {}) const;

  std::uint64_t kernels_launched() const { return kernels_launched_; }
  double total_kernel_seconds() const { return total_kernel_seconds_; }
  double total_transfer_seconds() const { return total_transfer_seconds_; }

 private:
  sim::Task<> transfer(std::uint64_t bytes);
  sim::Task<> lane_work(double seconds);
  sim::Task<> charge_locked(double seconds, LaunchConfig cfg);
  int effective_lanes(LaunchConfig cfg) const;

  sim::Simulation& sim_;
  DeviceSpec spec_;
  sim::Resource* shared_cores_;
  trace::TrackRef kernel_track_;
  trace::TrackRef pcie_track_;
  std::int32_t kernel_name_ = -1;
  std::int32_t transfer_name_ = -1;
  std::unique_ptr<sim::Resource> queue_;  // kernel execution, capacity 1
  std::unique_ptr<sim::Resource> pcie_;   // staging transfers, capacity 1
  std::uint64_t kernels_launched_ = 0;
  double total_kernel_seconds_ = 0;
  double total_transfer_seconds_ = 0;
};

}  // namespace gw::cl

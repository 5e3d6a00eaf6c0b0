#include "gwcl/device.h"

#include <algorithm>
#include <vector>

#include "util/error.h"

namespace gw::cl {

DeviceSpec DeviceSpec::cpu_dual_e5620() {
  DeviceSpec s;
  s.name = "CPU-2xE5620";
  s.type = DeviceType::kCpu;
  s.compute_units = 16;       // 8 physical cores, HT on
  // Achieved per-lane rate for generic OpenCL kernels (not peak issue).
  s.ops_per_lane_per_s = 0.55e9;
  s.mem_bandwidth_bytes_per_s = 25e9;
  s.mem_capacity_bytes = 24ull << 30;
  s.pcie_bandwidth_bytes_per_s = 0;
  s.kernel_launch_overhead_s = 30e-6;
  s.atomic_op_cost_s = 18e-9;  // cache-line ping-pong across sockets
  s.unified_memory = true;
  s.transfer_kernel_coupling = false;
  return s;
}

DeviceSpec DeviceSpec::cpu_dual_e5_2640() {
  DeviceSpec s = cpu_dual_e5620();
  s.name = "CPU-2xE5-2640";
  s.compute_units = 24;
  s.ops_per_lane_per_s = 0.60e9;
  s.mem_bandwidth_bytes_per_s = 42e9;
  s.mem_capacity_bytes = 64ull << 30;
  return s;
}

DeviceSpec DeviceSpec::gtx480() {
  DeviceSpec s;
  s.name = "GTX480";
  s.type = DeviceType::kGpu;
  s.compute_units = 480;
  // ~10-20% of peak: what generic (non-hand-tuned) kernels achieve.
  s.ops_per_lane_per_s = 0.30e9;
  s.mem_bandwidth_bytes_per_s = 177e9;
  s.mem_capacity_bytes = 1536ull << 20;
  s.pcie_bandwidth_bytes_per_s = 5.5e9;  // PCIe 2.0 x16 effective
  s.kernel_launch_overhead_s = 60e-6;    // OpenCL enqueue + driver
  s.atomic_op_cost_s = 1.2e-9;           // Fermi global atomics, many banks
  s.unified_memory = false;
  s.transfer_kernel_coupling = true;     // NVidia driver behaviour, §IV-B2
  return s;
}

DeviceSpec DeviceSpec::gtx680() {
  DeviceSpec s = gtx480();
  s.name = "GTX680";
  s.compute_units = 1536;
  s.ops_per_lane_per_s = 0.18e9;
  s.mem_bandwidth_bytes_per_s = 192e9;
  s.mem_capacity_bytes = 2048ull << 20;
  s.atomic_op_cost_s = 0.4e-9;  // Kepler atomics are much faster
  return s;
}

DeviceSpec DeviceSpec::k20m() {
  DeviceSpec s = gtx480();
  s.name = "K20m";
  s.compute_units = 2496;
  s.ops_per_lane_per_s = 0.16e9;
  s.mem_bandwidth_bytes_per_s = 208e9;
  s.mem_capacity_bytes = 5120ull << 20;
  s.pcie_bandwidth_bytes_per_s = 6.0e9;
  s.atomic_op_cost_s = 0.35e-9;
  return s;
}

DeviceSpec DeviceSpec::xeon_phi_5110p() {
  DeviceSpec s;
  s.name = "XeonPhi-5110P";
  s.type = DeviceType::kAccelerator;
  s.compute_units = 240;            // 60 cores x 4 threads
  s.ops_per_lane_per_s = 0.25e9;    // achieved rate; SIMD folded in
  s.mem_bandwidth_bytes_per_s = 200e9;  // achievable fraction of 320 GB/s
  s.mem_capacity_bytes = 8192ull << 20;
  s.pcie_bandwidth_bytes_per_s = 5.0e9;
  s.kernel_launch_overhead_s = 300e-6;  // Intel OpenCL MIC runtime overhead
  s.atomic_op_cost_s = 8e-9;
  s.unified_memory = false;
  s.transfer_kernel_coupling = false;
  return s;
}

Device::Device(sim::Simulation& sim, DeviceSpec spec,
               sim::Resource* shared_cores, int trace_node)
    : sim_(sim), spec_(std::move(spec)), shared_cores_(shared_cores) {
  queue_ = std::make_unique<sim::Resource>(sim_, 1);
  pcie_ = std::make_unique<sim::Resource>(sim_, 1);
  // Registered once at construction; Tracer::clear() keeps tracks, so the
  // refs stay valid across jobs on the same platform.
  auto& tr = sim_.tracer();
  kernel_track_ = tr.track(trace_node, "device:" + spec_.name);
  pcie_track_ = tr.track(trace_node, "pcie:" + spec_.name);
  kernel_name_ = tr.intern("kernel");
  transfer_name_ = tr.intern("pcie");
}

int Device::effective_lanes(LaunchConfig cfg) const {
  if (cfg.threads <= 0) return spec_.compute_units;
  return std::min(cfg.threads, spec_.compute_units);
}

double Device::model_kernel_seconds(const KernelStats& stats,
                                    LaunchConfig cfg) const {
  const double lanes = effective_lanes(cfg);
  const double compute = static_cast<double>(stats.ops) /
                         (spec_.ops_per_lane_per_s * lanes);
  const double memory =
      static_cast<double>(stats.bytes_read + stats.bytes_written) /
      spec_.mem_bandwidth_bytes_per_s;
  const double atomics = static_cast<double>(stats.atomic_ops) *
                         spec_.atomic_op_cost_s / lanes;
  return spec_.kernel_launch_overhead_s + std::max(compute, memory) + atomics;
}

sim::Task<KernelStats> Device::run_kernel(std::size_t items, WorkItemFn fn,
                                          LaunchConfig cfg) {
  // Named local, not a temporary in the co_await full-expression (closure
  // types have implicit constructors — see the payload rule in sim/sim.h).
  GroupWorkItemFn grouped =
      [fn = std::move(fn)](std::size_t i, std::size_t, KernelCounters& c) {
        fn(i, c);
      };
  co_return co_await run_kernel_grouped(items, kDefaultWorkGroups,
                                        std::move(grouped), cfg);
}

KernelStats Device::execute_grouped(std::size_t items, std::size_t groups,
                                    const GroupWorkItemFn& fn) {
  // Real execution on the host pool. The group decomposition is fixed, so
  // per-group side effects and counters are independent of how many host
  // threads happen to exist; counter reduction is associative.
  std::vector<util::CacheAligned<KernelCounters>> per_group(groups);
  if (items > 0) {
    util::ThreadPool::global().parallel_for(
        0, groups, [&](std::size_t glo, std::size_t ghi, std::size_t) {
          for (std::size_t g = glo; g < ghi; ++g) {
            KernelCounters& c = per_group[g].value;
            const std::size_t lo = items * g / groups;
            const std::size_t hi = items * (g + 1) / groups;
            for (std::size_t i = lo; i < hi; ++i) {
              c.charge_item();
              fn(i, g, c);
            }
          }
        });
  }
  KernelStats stats;
  for (const auto& c : per_group) stats += c.value.stats();
  return stats;
}

sim::Task<KernelStats> Device::run_kernel_grouped(std::size_t items,
                                                  std::size_t groups,
                                                  GroupWorkItemFn fn,
                                                  LaunchConfig cfg) {
  GW_CHECK(groups > 0);
  // Named local for the same payload-rule reason as in run_kernel above.
  KernelJobFn job = [items, groups, fn = std::move(fn)] {
    return execute_grouped(items, groups, fn);
  };
  co_return co_await run_kernel_job(std::move(job), cfg);
}

sim::Task<KernelStats> Device::run_kernel_job(KernelJobFn job,
                                              LaunchConfig cfg) {
  // The real work starts now (on the pool); the simulated charge is joined
  // only once the command queue grants execution and the stats are needed.
  auto future = sim_.offload(std::move(job));
  ++kernels_launched_;
  auto queue_hold = co_await queue_->acquire();
  const KernelStats stats = co_await sim_.join(std::move(future));
  const double seconds = model_kernel_seconds(stats, cfg);
  total_kernel_seconds_ += seconds;
  sim_.tracer().begin(kernel_track_, trace::Kind::kKernel, kernel_name_,
                      sim_.now(), stats.ops);
  co_await charge_locked(seconds, cfg);
  sim_.tracer().end(kernel_track_, trace::Kind::kKernel, kernel_name_,
                    sim_.now());
  co_return stats;
}

sim::Task<> Device::charge_kernel(const KernelStats& stats, LaunchConfig cfg) {
  const double seconds = model_kernel_seconds(stats, cfg);
  ++kernels_launched_;
  total_kernel_seconds_ += seconds;

  auto queue_hold = co_await queue_->acquire();
  sim_.tracer().begin(kernel_track_, trace::Kind::kKernel, kernel_name_,
                      sim_.now(), stats.ops);
  co_await charge_locked(seconds, cfg);
  sim_.tracer().end(kernel_track_, trace::Kind::kKernel, kernel_name_,
                    sim_.now());
}

// Models kernel execution time while the command queue is held.
sim::Task<> Device::charge_locked(double seconds, LaunchConfig cfg) {
  if (spec_.type == DeviceType::kCpu && shared_cores_ != nullptr) {
    // CPU kernels timeshare the node's host threads with partitioner and
    // merger threads: spread lane-seconds over `lanes` sliced workers.
    const int lanes = std::min<int>(
        effective_lanes(cfg), static_cast<int>(shared_cores_->capacity()));
    const double per_lane_seconds =
        seconds * effective_lanes(cfg) / std::max(lanes, 1);
    sim::TaskGroup group(sim_);
    for (int l = 0; l < lanes; ++l) {
      group.spawn(lane_work(per_lane_seconds));
    }
    co_await group.wait();
  } else {
    co_await sim_.delay(seconds);
  }
}

sim::Task<> Device::lane_work(double seconds) {
  constexpr double kQuantum = 0.02;
  double remaining = seconds;
  while (remaining > 0) {
    const double slice = std::min(remaining, kQuantum);
    auto core = co_await shared_cores_->acquire();
    co_await sim_.delay(slice);
    remaining -= slice;
  }
}

sim::Task<> Device::transfer(std::uint64_t bytes) {
  const double seconds =
      10e-6 + static_cast<double>(bytes) / spec_.pcie_bandwidth_bytes_per_s;
  total_transfer_seconds_ += seconds;
  if (spec_.transfer_kernel_coupling) {
    // Driver serializes transfers with kernel execution.
    auto queue_hold = co_await queue_->acquire();
    auto pcie_hold = co_await pcie_->acquire();
    sim_.tracer().begin(pcie_track_, trace::Kind::kTransfer, transfer_name_,
                        sim_.now(), bytes);
    co_await sim_.delay(seconds);
    sim_.tracer().end(pcie_track_, trace::Kind::kTransfer, transfer_name_,
                      sim_.now());
  } else {
    auto pcie_hold = co_await pcie_->acquire();
    sim_.tracer().begin(pcie_track_, trace::Kind::kTransfer, transfer_name_,
                        sim_.now(), bytes);
    co_await sim_.delay(seconds);
    sim_.tracer().end(pcie_track_, trace::Kind::kTransfer, transfer_name_,
                      sim_.now());
  }
}

sim::Task<> Device::stage_in(std::uint64_t bytes) {
  if (spec_.unified_memory) co_return;
  co_await transfer(bytes);
}

sim::Task<> Device::stage_out(std::uint64_t bytes) {
  if (spec_.unified_memory) co_return;
  co_await transfer(bytes);
}

}  // namespace gw::cl

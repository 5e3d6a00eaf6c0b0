#include "cluster/cluster.h"

#include "util/error.h"

namespace gw::cluster {

DiskSpec DiskSpec::sata_raid0() {
  return DiskSpec{"2xSATA-RAID0", 210e6, 190e6, 8e-3};
}

DiskSpec DiskSpec::sata_single() {
  return DiskSpec{"SATA", 110e6, 100e6, 8e-3};
}

NodeSpec NodeSpec::das4_type1() {
  return NodeSpec{"DAS4-Type1", 16, 2.4, 24ull << 30, DiskSpec::sata_raid0()};
}

NodeSpec NodeSpec::das4_type2() {
  return NodeSpec{"DAS4-Type2", 24, 2.5, 64ull << 30, DiskSpec::sata_raid0()};
}

ClusterSpec ClusterSpec::homogeneous(int n, NodeSpec node,
                                     net::NetworkProfile net_profile) {
  ClusterSpec spec;
  spec.nodes.assign(static_cast<std::size_t>(n), std::move(node));
  spec.network = std::move(net_profile);
  return spec;
}

Node::Node(sim::Simulation& sim, int id, NodeSpec spec)
    : sim_(sim), id_(id), spec_(std::move(spec)) {
  disk_ = std::make_unique<sim::Resource>(sim_, 1);
  host_cores_ = std::make_unique<sim::Resource>(sim_, spec_.hw_threads);
}

sim::Task<> Node::disk_stream_read(std::uint64_t bytes, double seek_fraction,
                                   double bw_bytes_per_s) {
  const double bw =
      bw_bytes_per_s > 0 ? bw_bytes_per_s : spec_.disk.read_bw_bytes_per_s;
  disk_bytes_read_ += bytes;
  auto hold = co_await disk_->acquire();
  co_await sim_.delay(seek_fraction * spec_.disk.seek_latency_s +
                      static_cast<double>(bytes) / bw);
}

sim::Task<> Node::disk_stream_write(std::uint64_t bytes, double seek_fraction,
                                    double bw_bytes_per_s) {
  const double bw =
      bw_bytes_per_s > 0 ? bw_bytes_per_s : spec_.disk.write_bw_bytes_per_s;
  disk_bytes_written_ += bytes;
  auto hold = co_await disk_->acquire();
  co_await sim_.delay(seek_fraction * spec_.disk.seek_latency_s +
                      static_cast<double>(bytes) / bw);
}

sim::Task<> Node::cpu_work(double seconds, double quantum) {
  GW_CHECK(seconds >= 0 && quantum > 0);
  double remaining = seconds;
  while (remaining > 0) {
    const double slice = std::min(remaining, quantum);
    auto core = co_await host_cores_->acquire();
    co_await sim_.delay(slice);
    remaining -= slice;
  }
}

Platform::Platform(ClusterSpec spec) : spec_(std::move(spec)) {
  GW_CHECK_MSG(!spec_.nodes.empty(), "cluster needs at least one node");
  fabric_ = std::make_unique<net::Fabric>(
      sim_, static_cast<int>(spec_.nodes.size()), spec_.network);
  transport_ = std::make_unique<net::Transport>(*fabric_);
  for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
    nodes_.push_back(
        std::make_unique<Node>(sim_, static_cast<int>(i), spec_.nodes[i]));
  }
}

}  // namespace gw::cluster

// Cluster platform: nodes, disks, host cores, interconnect.
//
// Mirrors the paper's DAS-4 testbed (§IV): Type-1 nodes (dual quad-core
// Xeon E5620 @ 2.4 GHz, 24 GB RAM, 2x1 TB software RAID, 16 of them carry an
// NVidia GTX480) and Type-2 nodes (dual 6-core Xeon E5-2640, 64 GB, NVidia
// K20m). The Platform owns the Simulation, per-node disk and host-core
// resources, and the network Fabric; higher layers (DFS, devices, runtimes)
// attach to it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/sim.h"
#include "simnet/fabric.h"
#include "simnet/transport.h"

namespace gw::cluster {

struct DiskSpec {
  std::string name;
  double read_bw_bytes_per_s;
  double write_bw_bytes_per_s;
  double seek_latency_s;

  // Two 1 TB 7200rpm disks in software RAID-0 (Type-1 nodes).
  static DiskSpec sata_raid0();
  // Single 7200rpm disk.
  static DiskSpec sata_single();
};

struct NodeSpec {
  std::string name;
  int hw_threads;         // cores incl. hyperthreading (paper runs 16/24-wide)
  double core_ghz;        // per-core clock, feeds the CPU device model
  std::uint64_t ram_bytes;
  DiskSpec disk;

  // Dual quad-core Intel Xeon E5620 2.4 GHz, HT on -> 16 hw threads, 24 GB.
  static NodeSpec das4_type1();
  // Dual 6-core Xeon E5-2640 2.5 GHz, HT on -> 24 hw threads, 64 GB.
  static NodeSpec das4_type2();
};

struct ClusterSpec {
  std::vector<NodeSpec> nodes;
  net::NetworkProfile network = net::NetworkProfile::qdr_infiniband_ipoib();

  static ClusterSpec homogeneous(int n, NodeSpec node,
                                 net::NetworkProfile net_profile);
};

// Per-node simulated hardware.
class Node {
 public:
  Node(sim::Simulation& sim, int id, NodeSpec spec);

  int id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }

  // Unit-capacity disk; operations serialize (RAID striping is folded into
  // the bandwidth figure).
  sim::Resource& disk() { return *disk_; }
  // Host hardware threads; CPU-side work acquires slots here, which is what
  // creates the paper's contention effects between kernel threads,
  // partitioner threads and merger threads (§IV-B).
  sim::Resource& host_cores() { return *host_cores_; }

  // Charges a disk read/write of `bytes`: streaming at `bw_bytes_per_s`
  // (<= 0 = the disk spec's bandwidth; spill traffic may override it) plus
  // `seek_fraction` of a full seek. 1.0 is a random access; sequential,
  // page-cache-friendly patterns pay less, since scaled-down datasets read
  // in small chunks would otherwise pay one full seek per chunk, which real
  // systems amortize over sequential block streaming. Use
  // amortized_seek(bytes) for "one seek per ~8 MB of contiguous I/O".
  sim::Task<> disk_stream_read(std::uint64_t bytes, double seek_fraction = 0,
                               double bw_bytes_per_s = 0);
  sim::Task<> disk_stream_write(std::uint64_t bytes, double seek_fraction = 0,
                                double bw_bytes_per_s = 0);

  static double amortized_seek(std::uint64_t bytes) {
    const double f = static_cast<double>(bytes) / (8 << 20);
    return f < 1.0 ? f : 1.0;
  }

  // Runs `seconds` of single-threaded CPU work, timesharing the host cores
  // in `quantum` slices so long computations degrade gracefully under
  // contention instead of monopolizing a core resource.
  sim::Task<> cpu_work(double seconds, double quantum = 0.02);

  std::uint64_t disk_bytes_read() const { return disk_bytes_read_; }
  std::uint64_t disk_bytes_written() const { return disk_bytes_written_; }

 private:
  sim::Simulation& sim_;
  int id_;
  NodeSpec spec_;
  std::unique_ptr<sim::Resource> disk_;
  std::unique_ptr<sim::Resource> host_cores_;
  std::uint64_t disk_bytes_read_ = 0;
  std::uint64_t disk_bytes_written_ = 0;
};

class Platform {
 public:
  explicit Platform(ClusterSpec spec);

  sim::Simulation& sim() { return sim_; }
  net::Fabric& fabric() { return *fabric_; }
  net::Transport& transport() { return *transport_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int id) { return *nodes_.at(id); }
  const ClusterSpec& spec() const { return spec_; }

 private:
  ClusterSpec spec_;
  sim::Simulation sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace gw::cluster

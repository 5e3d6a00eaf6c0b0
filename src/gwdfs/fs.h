// Filesystem abstraction for job input/output.
//
// Two implementations:
//  * Dfs      — HDFS-like block store with replication, locality-aware
//               reads and a libhdfs/JNI client-overhead model. The paper
//               runs all Glasswing-vs-Hadoop comparisons on HDFS (§IV-A)
//               and shows HDFS overhead explicitly in Fig 3(d).
//  * LocalFs  — per-node local filesystem, used by the GPMR comparison
//               (fully replicated inputs, §IV-A) and the single-node
//               pipeline analyses (§IV-B).
//
// File contents are real bytes; all access costs are charged to the owning
// node's disk and the fabric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/sim.h"
#include "util/bytes.h"

namespace gw::dfs {

// Thrown when every replica of a block was lost to node crashes: the data
// is unrecoverable and the caller must fail the read (or regenerate the
// file from upstream state, as the job layer does for map output).
class DataLossError : public util::Error {
 public:
  explicit DataLossError(std::string what) : util::Error(std::move(what)) {}
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Creates `path` with the given contents, called from `node`, and
  // consumes `data`. A write that fails with net::NodeDownError (a replica
  // died mid-pipeline) leaves `data` untouched, so the caller can retry
  // with the same buffer. `data` must outlive the returned task.
  virtual sim::Task<> write(int node, const std::string& path,
                            util::Bytes&& data) = 0;

  // Reads [offset, offset+len) of `path` from `node`.
  virtual sim::Task<util::Bytes> read(int node, const std::string& path,
                                      std::uint64_t offset,
                                      std::uint64_t len) = 0;

  sim::Task<util::Bytes> read_all(int node, const std::string& path) {
    return read(node, path, 0, file_size(path));
  }

  // Metadata (namenode) operations; cheap, modelled as free.
  virtual bool exists(const std::string& path) const = 0;
  virtual std::uint64_t file_size(const std::string& path) const = 0;
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;
  // Unlinks `path` if present (no error when absent). The DAG runtime
  // deletes a replayed round's outputs before re-executing it; write()
  // refuses to overwrite, so stale results must be removed first.
  virtual void remove(const std::string& path) { (void)path; }

  // Nodes holding a replica of byte-range block `index` of `path`.
  virtual std::vector<int> block_locations(const std::string& path,
                                           std::uint64_t index) const = 0;
  virtual std::uint64_t block_size() const = 0;
  virtual const char* name() const = 0;
};

struct DfsConfig {
  std::uint64_t block_size = 8ull << 20;  // scaled-down HDFS 64 MB block
  int replication = 3;                    // common practice, as in the paper
  // Client-side libhdfs/JNI overhead: per call, and per byte crossing the
  // Java/native boundary ("Java/native switches and data transfers through
  // JNI", §IV-A2). ~0.5 GB/s effective JNI copy rate — "HDFS comes with
  // considerable overhead".
  double client_call_overhead_s = 400e-6;
  double client_per_byte_overhead_s = 2.0e-9;
};

class Dfs : public FileSystem {
 public:
  // Registers a crash listener with the platform's simulation: when a node
  // dies, its replicas are dropped from every block at the crash instant
  // (reads fall over to survivors immediately) and under-replicated blocks
  // are re-replicated in the background onto live nodes, charging real disk
  // and wire time. With no crash scheduled none of this runs.
  Dfs(cluster::Platform& platform, DfsConfig config);
  ~Dfs() override;

  sim::Task<> write(int node, const std::string& path,
                    util::Bytes&& data) override;
  sim::Task<util::Bytes> read(int node, const std::string& path,
                              std::uint64_t offset, std::uint64_t len) override;

  bool exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  std::vector<int> block_locations(const std::string& path,
                                   std::uint64_t index) const override;
  std::uint64_t block_size() const override { return config_.block_size; }
  const char* name() const override { return "hdfs"; }

  // The file's bytes, read on the host: no simulated time, no transfer and
  // no trace event.
  const util::Bytes& host_bytes(const std::string& path) const;

  // Overrides the replication factor for files written after the call
  // (TeraSort output uses replication 1, §IV-A1).
  void set_replication(int replication);

  // Writes `path` as an EXTERNAL client (no datanode affinity): HDFS places
  // the first replica of each block on a rotating node instead of pinning
  // it to the writer. Used to stage benchmark inputs the way TeraGen /
  // distcp would lay them out across the cluster.
  sim::Task<> write_distributed(const std::string& path, util::Bytes data);

  std::uint64_t local_reads() const { return local_reads_; }
  std::uint64_t remote_reads() const { return remote_reads_; }

  // --- fault-tolerance observability ---
  // Block replicas dropped because their node crashed.
  std::uint64_t replicas_lost() const { return replicas_lost_; }
  // Background copies completed to restore replication after a crash.
  std::uint64_t blocks_rereplicated() const { return blocks_rereplicated_; }

 private:
  struct FileMeta {
    util::Bytes data;
    std::vector<std::vector<int>> replicas;  // per block
  };

  std::uint64_t num_blocks(const FileMeta& meta) const;
  std::vector<int> place_block(int writer, const std::string& path,
                               std::uint64_t index) const;
  bool alive(int node) const { return platform_.sim().node_alive(node); }
  void on_crash(int node);
  sim::Task<> rereplicate(std::string path, std::uint64_t block, int src,
                          int dst, std::uint64_t len);

  cluster::Platform& platform_;
  DfsConfig config_;
  std::map<std::string, FileMeta> files_;
  std::uint64_t local_reads_ = 0;
  std::uint64_t remote_reads_ = 0;
  std::uint64_t replicas_lost_ = 0;
  std::uint64_t blocks_rereplicated_ = 0;
  int crash_listener_id_ = -1;
  std::map<int, trace::TrackRef> rerep_tracks_;  // per destination node
  std::int32_t rerep_name_ = -1;
};

struct LocalFsConfig {
  double open_overhead_s = 50e-6;  // syscall/open cost per access
};

// Node-local filesystem: every node has an independent namespace; reading a
// path from a node that does not host it throws.
class LocalFs : public FileSystem {
 public:
  LocalFs(cluster::Platform& platform, LocalFsConfig config = {});

  sim::Task<> write(int node, const std::string& path,
                    util::Bytes&& data) override;
  sim::Task<util::Bytes> read(int node, const std::string& path,
                              std::uint64_t offset, std::uint64_t len) override;

  bool exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  std::vector<int> block_locations(const std::string& path,
                                   std::uint64_t index) const override;
  std::uint64_t block_size() const override;
  const char* name() const override { return "localfs"; }

  // Copies `path` onto every node's local namespace (the GPMR experimental
  // setup fully replicates inputs, §IV-A); charges no time, representing
  // pre-staged data.
  void replicate_everywhere(const std::string& path);

 private:
  struct Entry {
    std::shared_ptr<const util::Bytes> data;  // shared across replicas
    std::vector<int> nodes;                   // hosts, sorted
  };

  cluster::Platform& platform_;
  LocalFsConfig config_;
  std::map<std::string, Entry> files_;
};

}  // namespace gw::dfs

#include "gwdfs/fs.h"

#include <algorithm>

#include "simnet/transport.h"
#include "util/error.h"
#include "util/hash.h"

namespace gw::dfs {

Dfs::Dfs(cluster::Platform& platform, DfsConfig config)
    : platform_(platform), config_(config) {
  GW_CHECK(config_.block_size > 0);
  GW_CHECK(config_.replication >= 1);
  rerep_name_ = platform_.sim().tracer().intern("dfs.rereplicate");
  crash_listener_id_ = platform_.sim().add_crash_listener(
      [this](int node, bool alive) {
        if (!alive) on_crash(node);
        // A restart revives the node EMPTY: lost replicas do not come back;
        // the node only becomes a placement target again.
      });
}

Dfs::~Dfs() {
  platform_.sim().remove_crash_listener(crash_listener_id_);
}

void Dfs::set_replication(int replication) {
  GW_CHECK(replication >= 1);
  config_.replication = replication;
}

std::uint64_t Dfs::num_blocks(const FileMeta& meta) const {
  return (meta.data.size() + config_.block_size - 1) / config_.block_size;
}

std::vector<int> Dfs::place_block(int writer, const std::string& path,
                                  std::uint64_t index) const {
  // First replica on the writer (HDFS policy); the rest rotate from a
  // per-block deterministic offset so data spreads evenly. Dead nodes are
  // never placement targets (with no crash scheduled every node is alive
  // and the rotation is unchanged).
  const int n = platform_.num_nodes();
  int live = 0;
  for (int i = 0; i < n; ++i) {
    if (alive(i)) ++live;
  }
  const int replicas = std::min(config_.replication, std::max(1, live));
  std::vector<int> out;
  out.reserve(replicas);
  out.push_back(writer);
  const std::uint64_t h = util::fnv1a(path) ^ util::mix64(index);
  int next = static_cast<int>(h % static_cast<std::uint64_t>(n));
  for (int scanned = 0;
       static_cast<int>(out.size()) < replicas && scanned < n; ++scanned) {
    if (alive(next) &&
        std::find(out.begin(), out.end(), next) == out.end()) {
      out.push_back(next);
    }
    next = (next + 1) % n;
  }
  return out;
}

sim::Task<> Dfs::write(int node, const std::string& path,
                       util::Bytes&& data) {
  if (exists(path)) util::throw_error("dfs write: path exists: " + path);
  auto& sim = platform_.sim();

  FileMeta meta;
  const std::uint64_t size = data.size();
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, (size + config_.block_size - 1) / config_.block_size);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    meta.replicas.push_back(place_block(node, path, b));
  }
  // Charge the client JNI boundary for the whole payload once.
  co_await sim.delay(config_.client_call_overhead_s +
                     config_.client_per_byte_overhead_s *
                         static_cast<double>(size));

  // Per block: replication pipeline — the writer streams to replica 1, which
  // streams to replica 2, etc.; every replica also writes its disk. Blocks
  // are written back-to-back (HDFS streams a file sequentially) but the
  // replica-side work is concurrent per block.
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint64_t lo = b * config_.block_size;
    const std::uint64_t len = std::min(config_.block_size, size - lo);
    const auto& replicas = meta.replicas[b];
    sim::TaskGroup group(sim);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      if (r > 0) {
        group.spawn(platform_.transport().transfer(
            replicas[r - 1], replicas[r], net::kPortDfs,
            net::TrafficClass::kDfs, len));
      }
      group.spawn(platform_.node(replicas[r])
                      .disk_stream_write(len, cluster::Node::amortized_seek(len)));
    }
    co_await group.wait();
  }
  // Take the payload only once every block is written: a pipeline that
  // failed above left the caller's buffer intact for a retry.
  meta.data = std::move(data);
  files_.emplace(path, std::move(meta));
}

sim::Task<> Dfs::write_distributed(const std::string& path, util::Bytes data) {
  if (exists(path)) util::throw_error("dfs write: path exists: " + path);
  auto& sim = platform_.sim();
  const int n = platform_.num_nodes();
  const int replicas = std::min(config_.replication, n);

  FileMeta meta;
  meta.data = std::move(data);
  const std::uint64_t size = meta.data.size();
  const std::uint64_t blocks = std::max<std::uint64_t>(
      1, (size + config_.block_size - 1) / config_.block_size);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    // Rotating placement: no node hosts a disproportionate share. Dead
    // nodes are skipped (identical rotation when every node is alive).
    std::vector<int> locs;
    const std::uint64_t h = util::fnv1a(path) ^ util::mix64(b * 2654435761ull);
    int next = static_cast<int>(h % static_cast<std::uint64_t>(n));
    for (int scanned = 0;
         static_cast<int>(locs.size()) < replicas && scanned < n; ++scanned) {
      if (alive(next) &&
          std::find(locs.begin(), locs.end(), next) == locs.end()) {
        locs.push_back(next);
      }
      next = (next + 1) % n;
    }
    GW_CHECK_MSG(!locs.empty(), "dfs write: no live node to place block");
    meta.replicas.push_back(std::move(locs));
  }

  // Per block: replica disk writes + pipeline transfers, concurrently
  // across blocks (the external client streams blocks to distinct nodes).
  sim::TaskGroup group(sim);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint64_t lo = b * config_.block_size;
    const std::uint64_t len = std::min(config_.block_size, size - lo);
    const auto& locs = meta.replicas[b];
    for (std::size_t r = 0; r < locs.size(); ++r) {
      if (r > 0) {
        group.spawn(platform_.transport().transfer(
            locs[r - 1], locs[r], net::kPortDfs, net::TrafficClass::kDfs,
            len));
      }
      group.spawn(platform_.node(locs[r])
                      .disk_stream_write(len, cluster::Node::amortized_seek(len)));
    }
  }
  co_await group.wait();
  files_.emplace(path, std::move(meta));
}

sim::Task<util::Bytes> Dfs::read(int node, const std::string& path,
                                 std::uint64_t offset, std::uint64_t len) {
  auto it = files_.find(path);
  if (it == files_.end()) util::throw_error("dfs read: no such file: " + path);
  const FileMeta& meta = it->second;
  GW_CHECK_MSG(offset + len <= meta.data.size(), "dfs read out of range");
  auto& sim = platform_.sim();

  co_await sim.delay(config_.client_call_overhead_s +
                     config_.client_per_byte_overhead_s *
                         static_cast<double>(len));

  // Touch every block overlapping the range; prefer a local replica.
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;
  while (pos < end) {
    const std::uint64_t b = pos / config_.block_size;
    const std::uint64_t block_end = (b + 1) * config_.block_size;
    const std::uint64_t chunk = std::min(end, block_end) - pos;
    const auto& replicas = meta.replicas.at(b);
    const bool local =
        std::find(replicas.begin(), replicas.end(), node) != replicas.end();
    // Sequential block streaming: seeks amortize over contiguous I/O.
    const double seek = cluster::Node::amortized_seek(chunk);
    if (local) {
      ++local_reads_;
      co_await platform_.node(node).disk_stream_read(chunk, seek);
    } else {
      // First LIVE replica serves the block; crashed holders are useless
      // even if a racing write left them listed. A source that dies between
      // the disk read and the wire leg fails the fetch over to the next
      // live replica (re-reading there), so a crash mid-fetch costs the
      // client a retry, never the block.
      for (;;) {
        int remote = -1;
        for (int r : replicas) {
          if (alive(r)) {
            remote = r;
            break;
          }
        }
        if (remote < 0) {
          throw DataLossError("dfs read: every replica of block " +
                              std::to_string(b) + " of " + path +
                              " was lost to crashes");
        }
        ++remote_reads_;
        co_await platform_.node(remote).disk_stream_read(chunk, seek);
        if (!alive(node)) break;
        // A dead client gets no wire leg: the fetch it initiated before the
        // crash just evaporates; its zombie computation is discarded anyway.
        try {
          co_await platform_.transport().transfer(
              remote, node, net::kPortDfs, net::TrafficClass::kDfs, chunk);
        } catch (const net::NodeDownError&) {
          if (!alive(node)) break;  // the client itself died mid-fetch
          continue;  // the source died under us: crash pruning already
                     // dropped it from `replicas`; try the next survivor
        }
        break;
      }
    }
    pos += chunk;
  }

  util::Bytes out(meta.data.begin() + static_cast<std::ptrdiff_t>(offset),
                  meta.data.begin() + static_cast<std::ptrdiff_t>(offset + len));
  co_return out;
}

void Dfs::on_crash(int node) {
  // Drop the dead node from every block's replica list at the crash
  // instant (reads fall over to survivors immediately), then re-replicate
  // each under-replicated block in the background. files_ is an ordered
  // map, so the (path, block) scan — and with it the whole recovery event
  // sequence — is deterministic.
  auto& sim = platform_.sim();
  const int n = platform_.num_nodes();
  for (auto& [path, meta] : files_) {
    for (std::uint64_t b = 0; b < meta.replicas.size(); ++b) {
      auto& replicas = meta.replicas[b];
      auto it = std::find(replicas.begin(), replicas.end(), node);
      if (it == replicas.end()) continue;
      replicas.erase(it);
      ++replicas_lost_;
      if (replicas.empty()) continue;  // data lost; reads throw DataLossError
      // Pick a copy source (first live survivor) and a target via the same
      // deterministic rotation as initial placement, skipping holders and
      // dead nodes.
      int src = -1;
      for (int r : replicas) {
        if (alive(r)) {
          src = r;
          break;
        }
      }
      if (src < 0) continue;
      const std::uint64_t h = util::fnv1a(path) ^ util::mix64(b);
      int next = static_cast<int>(h % static_cast<std::uint64_t>(n));
      int dst = -1;
      for (int scanned = 0; scanned < n; ++scanned) {
        if (alive(next) &&
            std::find(replicas.begin(), replicas.end(), next) ==
                replicas.end()) {
          dst = next;
          break;
        }
        next = (next + 1) % n;
      }
      if (dst < 0) continue;  // no live node without a copy
      const std::uint64_t size = meta.data.size();
      const std::uint64_t lo = b * config_.block_size;
      const std::uint64_t len =
          std::min(config_.block_size, size > lo ? size - lo : 0);
      if (len == 0) continue;
      sim.spawn(rereplicate(path, b, src, dst, len));
    }
  }
}

sim::Task<> Dfs::rereplicate(std::string path, std::uint64_t block, int src,
                             int dst, std::uint64_t len) {
  trace::Tracer& tr = platform_.sim().tracer();
  auto track_it = rerep_tracks_.find(dst);
  if (track_it == rerep_tracks_.end()) {
    track_it =
        rerep_tracks_.emplace(dst, tr.track(dst, "dfs.rereplicate")).first;
  }
  const trace::TrackRef track = track_it->second;
  bool copied = false;
  try {
    co_await platform_.node(src).disk_stream_read(
        len, cluster::Node::amortized_seek(len));
    // Backoff-aware: the target may itself crash while the copy is queued.
    co_await platform_.transport().retry_transfer(
        src, dst, net::kPortDfs, net::TrafficClass::kDfs, len);
    co_await platform_.node(dst).disk_stream_write(
        len, cluster::Node::amortized_seek(len));
    copied = true;
  } catch (const net::NodeDownError&) {
    // Source or target died mid-copy; a later crash listener pass will
    // handle the new failure. This copy is abandoned.
  }
  // Instant, not a span: copies to one destination overlap freely, and a
  // track admits only one open span at a time.
  tr.instant(track, trace::Kind::kRecovery, rerep_name_,
             platform_.sim().now(), len);
  if (!copied) co_return;
  auto it = files_.find(path);
  if (it == files_.end()) co_return;  // file deleted meanwhile
  auto& replicas = it->second.replicas.at(block);
  if (std::find(replicas.begin(), replicas.end(), dst) == replicas.end() &&
      alive(dst)) {
    replicas.push_back(dst);
    ++blocks_rereplicated_;
  }
}

bool Dfs::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

std::uint64_t Dfs::file_size(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) util::throw_error("dfs size: no such file: " + path);
  return it->second.data.size();
}

const util::Bytes& Dfs::host_bytes(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) util::throw_error("dfs bytes: no such file: " + path);
  return it->second.data;
}

std::vector<std::string> Dfs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, meta] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

void Dfs::remove(const std::string& path) { files_.erase(path); }

std::vector<int> Dfs::block_locations(const std::string& path,
                                      std::uint64_t index) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    util::throw_error("dfs locations: no such file: " + path);
  }
  return it->second.replicas.at(index);
}

LocalFs::LocalFs(cluster::Platform& platform, LocalFsConfig config)
    : platform_(platform), config_(config) {}

sim::Task<> LocalFs::write(int node, const std::string& path,
                           util::Bytes&& data) {
  auto& entry = files_[path];
  if (!entry.nodes.empty() && entry.data != nullptr &&
      std::find(entry.nodes.begin(), entry.nodes.end(), node) !=
          entry.nodes.end()) {
    util::throw_error("localfs write: path exists on node: " + path);
  }
  const std::uint64_t size = data.size();
  entry.data = std::make_shared<const util::Bytes>(std::move(data));
  entry.nodes.push_back(node);
  std::sort(entry.nodes.begin(), entry.nodes.end());
  co_await platform_.sim().delay(config_.open_overhead_s);
  co_await platform_.node(node).disk_stream_write(
      size, cluster::Node::amortized_seek(size));
}

sim::Task<util::Bytes> LocalFs::read(int node, const std::string& path,
                                     std::uint64_t offset, std::uint64_t len) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    util::throw_error("localfs read: no such file: " + path);
  }
  const Entry& entry = it->second;
  if (std::find(entry.nodes.begin(), entry.nodes.end(), node) ==
      entry.nodes.end()) {
    util::throw_error("localfs read: file not hosted on node: " + path);
  }
  GW_CHECK_MSG(offset + len <= entry.data->size(), "localfs read out of range");
  co_await platform_.sim().delay(config_.open_overhead_s);
  co_await platform_.node(node).disk_stream_read(
      len, cluster::Node::amortized_seek(len));
  util::Bytes out(entry.data->begin() + static_cast<std::ptrdiff_t>(offset),
                  entry.data->begin() + static_cast<std::ptrdiff_t>(offset + len));
  co_return out;
}

bool LocalFs::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

std::uint64_t LocalFs::file_size(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    util::throw_error("localfs size: no such file: " + path);
  }
  return it->second.data->size();
}

std::vector<std::string> LocalFs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

void LocalFs::remove(const std::string& path) { files_.erase(path); }

std::vector<int> LocalFs::block_locations(const std::string& path,
                                          std::uint64_t /*index*/) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    util::throw_error("localfs locations: no such file: " + path);
  }
  return it->second.nodes;
}

std::uint64_t LocalFs::block_size() const {
  // Whole file is one locality unit.
  return ~0ull;
}

void LocalFs::replicate_everywhere(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    util::throw_error("localfs replicate: no such file: " + path);
  }
  it->second.nodes.clear();
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    it->second.nodes.push_back(n);
  }
}

}  // namespace gw::dfs

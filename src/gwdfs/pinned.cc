#include "gwdfs/pinned.h"

#include <algorithm>
#include <utility>

#include "simnet/transport.h"
#include "util/error.h"

namespace gw::dfs {

PinnedFs::PinnedFs(cluster::Platform& platform, FileSystem& base,
                   std::uint64_t node_budget_bytes)
    : platform_(platform), base_(base), budget_(node_budget_bytes) {
  node_bytes_.assign(static_cast<std::size_t>(platform_.num_nodes()), 0);
  crash_listener_id_ = platform_.sim().add_crash_listener(
      [this](int node, bool alive) {
        if (!alive) on_crash(node);
      });
}

PinnedFs::~PinnedFs() {
  if (crash_listener_id_ >= 0) {
    platform_.sim().remove_crash_listener(crash_listener_id_);
  }
}

bool PinnedFs::fits(int node, std::uint64_t bytes) const {
  if (budget_ == 0) return true;
  return node_bytes_[static_cast<std::size_t>(node)] + bytes <= budget_;
}

void PinnedFs::account(int node, std::uint64_t bytes) {
  std::uint64_t& held = node_bytes_[static_cast<std::size_t>(node)];
  held += bytes;
  peak_ = std::max(peak_, held);
}

void PinnedFs::drop_cached(const std::string& path) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (std::get<1>(it->first) == path) {
      node_bytes_[static_cast<std::size_t>(std::get<0>(it->first))] -=
          it->second.size();
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void PinnedFs::on_crash(int node) {
  // Pinned outputs hosted on the dead node are unrecoverable: keep the
  // tombstone so reads throw DataLossError and the DAG driver can rewind.
  for (auto& [path, file] : files_) {
    if (file.host != node || file.lost) continue;
    node_bytes_[static_cast<std::size_t>(node)] -= file.data.size();
    file.data = util::Bytes();
    file.lost = true;
    ++lost_files_;
  }
  // Cached input ranges just vanish with the node's memory; the base fs
  // still has the data, so this costs re-reads, not correctness.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (std::get<0>(it->first) == node) {
      node_bytes_[static_cast<std::size_t>(node)] -= it->second.size();
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<> PinnedFs::write(int node, const std::string& path,
                            util::Bytes&& data) {
  drop_cached(path);
  if (!pin_writes_) {
    co_await base_.write(node, path, std::move(data));
    co_return;
  }
  // Replays overwrite: drop any stale (possibly lost) pin first.
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (!it->second.lost) {
      node_bytes_[static_cast<std::size_t>(it->second.host)] -=
          it->second.data.size();
    }
    files_.erase(it);
  }
  if (!fits(node, data.size())) {
    // Budget full: spill through to the base fs (a checkpoint write in
    // all but name). The file stays crash-safe, just not free.
    ++pin_spills_;
    base_.remove(path);
    co_await base_.write(node, path, std::move(data));
    co_return;
  }
  // Pinning keeps the writer's already-materialized buffer: no disk, no
  // wire, no copy — the whole point of the pinned edge.
  account(node, data.size());
  files_[path] = PinFile{std::move(data), node, false};
  co_return;
}

sim::Task<util::Bytes> PinnedFs::read(int node, const std::string& path,
                                      std::uint64_t offset,
                                      std::uint64_t len) {
  auto it = files_.find(path);
  if (it != files_.end()) {
    PinFile& file = it->second;
    if (file.lost || !platform_.sim().node_alive(file.host)) {
      throw DataLossError("pinned data lost: " + path);
    }
    GW_CHECK_MSG(offset + len <= file.data.size(),
                 "pinned read past end: " + path);
    if (file.host != node) {
      // Remote pull: charge the wire as DFS-class traffic. A NodeDownError
      // here means the reader itself died mid-request; the zombie's result
      // is discarded by the pipeline, so hand the bytes back uncharged.
      try {
        co_await platform_.transport().transfer(
            file.host, node, net::kPortDfs, net::TrafficClass::kDfs, len);
        remote_pin_bytes_ += len;
      } catch (const net::NodeDownError&) {
        if (!platform_.sim().node_alive(file.host)) {
          throw DataLossError("pinned data lost: " + path);
        }
      }
    }
    co_return util::Bytes(
        file.data.begin() + static_cast<std::ptrdiff_t>(offset),
        file.data.begin() + static_cast<std::ptrdiff_t>(offset + len));
  }
  if (cache_reads_) {
    const CacheKey key{node, path, offset, len};
    auto hit = cache_.find(key);
    if (hit != cache_.end()) {
      cache_hit_bytes_ += len;
      co_return hit->second;
    }
    util::Bytes data = co_await base_.read(node, path, offset, len);
    if (fits(node, data.size())) {
      account(node, data.size());
      cache_[key] = data;
    }
    co_return data;
  }
  co_return co_await base_.read(node, path, offset, len);
}

bool PinnedFs::exists(const std::string& path) const {
  auto it = files_.find(path);
  if (it != files_.end()) return !it->second.lost;
  return base_.exists(path);
}

std::uint64_t PinnedFs::file_size(const std::string& path) const {
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (it->second.lost) {
      throw DataLossError("pinned data lost: " + path);
    }
    return it->second.data.size();
  }
  return base_.file_size(path);
}

std::vector<std::string> PinnedFs::list(const std::string& prefix) const {
  std::vector<std::string> out = base_.list(prefix);
  for (const auto& [path, file] : files_) {
    if (file.lost) continue;
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void PinnedFs::remove(const std::string& path) {
  drop_cached(path);
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (!it->second.lost) {
      node_bytes_[static_cast<std::size_t>(it->second.host)] -=
          it->second.data.size();
    }
    files_.erase(it);
  }
  base_.remove(path);
}

std::vector<int> PinnedFs::block_locations(const std::string& path,
                                           std::uint64_t index) const {
  auto it = files_.find(path);
  if (it != files_.end()) {
    if (it->second.lost) {
      throw DataLossError("pinned data lost: " + path);
    }
    return {it->second.host};
  }
  return base_.block_locations(path, index);
}

bool PinnedFs::pinned(const std::string& path) const {
  auto it = files_.find(path);
  return it != files_.end() && !it->second.lost;
}

bool PinnedFs::lost(const std::string& path) const {
  auto it = files_.find(path);
  return it != files_.end() && it->second.lost;
}

std::uint64_t PinnedFs::pinned_bytes(int node) const {
  return node_bytes_.at(static_cast<std::size_t>(node));
}

}  // namespace gw::dfs

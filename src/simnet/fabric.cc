#include "simnet/fabric.h"

#include <algorithm>

#include "util/error.h"

namespace gw::net {

NetworkProfile NetworkProfile::gigabit_ethernet() {
  return NetworkProfile{"1GbE", 117.0e6, 100e-6, 10e-6};
}

NetworkProfile NetworkProfile::qdr_infiniband_ipoib() {
  return NetworkProfile{"QDR-IPoIB", 1.0e9, 25e-6, 5e-6};
}

Fabric::Fabric(sim::Simulation& sim, int num_nodes, NetworkProfile profile)
    : sim_(sim), num_nodes_(num_nodes), profile_(std::move(profile)) {
  GW_CHECK(num_nodes > 0);
  GW_CHECK(profile_.bisection_oversubscription >= 0);
  GW_CHECK(profile_.rack_size >= 0);
  nodes_.resize(num_nodes);
  stats_.resize(num_nodes);
  trace::Tracer& tr = sim_.tracer();
  link_tx_name_ = tr.intern("net.tx");
  link_rx_name_ = tr.intern("net.rx");
  for (int n = 0; n < num_nodes; ++n) {
    nodes_[n].tx = std::make_unique<sim::Resource>(sim_, 1);
    nodes_[n].rx = std::make_unique<sim::Resource>(sim_, 1);
    nodes_[n].tx_track = tr.track(n, "net.tx");
    nodes_[n].rx_track = tr.track(n, "net.rx");
  }
  if (profile_.bisection_oversubscription > 0) {
    const auto flows = static_cast<std::int64_t>(
        static_cast<double>(num_nodes) / profile_.bisection_oversubscription);
    core_ = std::make_unique<sim::Resource>(sim_,
                                            std::max<std::int64_t>(1, flows));
  }
}

sim::Task<> Fabric::send(int src, int dst, int port, util::Bytes payload,
                         std::vector<std::uint64_t> tags) {
  return send_impl(src, dst, port, std::move(payload), false, std::move(tags));
}

sim::Task<> Fabric::send_eos(int src, int dst, int port) {
  // The marker is semantic; its 4-byte payload reproduces the wire cost of
  // the u32 EOF sentinel messages it replaced.
  return send_impl(src, dst, port, util::Bytes(4), true);
}

sim::Task<> Fabric::send_impl(int src, int dst, int port, util::Bytes payload,
                              bool eos, std::vector<std::uint64_t> tags) {
  GW_CHECK(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_);
  const std::size_t bytes = payload.size();
  auto& st = stats_[src];
  st.msgs_tx++;
  st.bytes_tx += bytes;
  // NIC/switch holds (when remote and unchunked) stay live across the inbox
  // handoff, so a queued sender wakes only after the receiver was scheduled
  // — the same release order the fabric has always had.
  sim::Resource::Hold tx_hold;
  sim::Resource::Hold rx_hold;
  sim::Resource::Hold core_hold;
  if (src != dst) {
    stats_[dst].bytes_rx += bytes;
    if (crosses_core(src, dst)) core_bytes_ += bytes;
    if (profile_.max_chunk_bytes > 0 && bytes > profile_.max_chunk_bytes) {
      co_await occupy_chunked(src, dst, bytes);
    } else {
      // Propagation, then cut-through occupancy of sender TX and receiver RX.
      co_await sim_.delay(profile_.latency_s);
      tx_hold = co_await nodes_[src].tx->acquire();
      rx_hold = co_await nodes_[dst].rx->acquire();
      if (core_ && crosses_core(src, dst)) core_hold = co_await core_->acquire();
      const double wire_time = profile_.per_message_overhead_s +
                               static_cast<double>(bytes) /
                                   profile_.bandwidth_bytes_per_s;
      trace::Tracer& tr = sim_.tracer();
      tr.begin(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_,
               sim_.now(), bytes);
      tr.begin(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_,
               sim_.now(), bytes);
      co_await sim_.delay(wire_time);
      tr.end(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_,
             sim_.now());
      tr.end(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_,
             sim_.now());
    }
  }
  Message msg(src, port, std::move(payload), eos, std::move(tags));
  co_await inbox(dst, port).put(&msg);
}

sim::Task<> Fabric::transfer(int src, int dst, std::uint64_t bytes) {
  GW_CHECK(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_);
  if (src == dst) co_return;
  stats_[src].msgs_tx++;
  stats_[src].bytes_tx += bytes;
  stats_[dst].bytes_rx += bytes;
  if (crosses_core(src, dst)) core_bytes_ += bytes;
  if (profile_.max_chunk_bytes > 0 && bytes > profile_.max_chunk_bytes) {
    co_await occupy_chunked(src, dst, bytes);
    co_return;
  }
  co_await sim_.delay(profile_.latency_s);
  auto tx_hold = co_await nodes_[src].tx->acquire();
  auto rx_hold = co_await nodes_[dst].rx->acquire();
  sim::Resource::Hold core_hold;
  if (core_ && crosses_core(src, dst)) core_hold = co_await core_->acquire();
  const double wire_time = profile_.per_message_overhead_s +
                           static_cast<double>(bytes) /
                               profile_.bandwidth_bytes_per_s;
  trace::Tracer& tr = sim_.tracer();
  tr.begin(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_, sim_.now(),
           bytes);
  tr.begin(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_, sim_.now(),
           bytes);
  co_await sim_.delay(wire_time);
  tr.end(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_, sim_.now());
  tr.end(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_, sim_.now());
}

sim::Task<> Fabric::occupy_chunked(int src, int dst, std::uint64_t bytes) {
  co_await sim_.delay(profile_.latency_s);
  trace::Tracer& tr = sim_.tracer();
  std::uint64_t remaining = bytes;
  bool first = true;
  while (remaining > 0) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(remaining, profile_.max_chunk_bytes);
    // Per-chunk acquisition: NIC and switch capacity release between
    // chunks, so concurrent flows interleave on shared links instead of
    // queueing behind whole messages.
    auto tx_hold = co_await nodes_[src].tx->acquire();
    auto rx_hold = co_await nodes_[dst].rx->acquire();
    sim::Resource::Hold core_hold;
    if (core_ && crosses_core(src, dst)) core_hold = co_await core_->acquire();
    const double wire_time =
        (first ? profile_.per_message_overhead_s : 0.0) +
        static_cast<double>(chunk) / profile_.bandwidth_bytes_per_s;
    tr.begin(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_,
             sim_.now(), chunk);
    tr.begin(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_,
             sim_.now(), chunk);
    co_await sim_.delay(wire_time);
    tr.end(nodes_[src].tx_track, trace::Kind::kLink, link_tx_name_, sim_.now());
    tr.end(nodes_[dst].rx_track, trace::Kind::kLink, link_rx_name_, sim_.now());
    first = false;
    remaining -= chunk;
  }
}

sim::Channel<Message>& Fabric::inbox(int node, int port) {
  auto key = std::make_pair(node, port);
  auto it = inboxes_.find(key);
  if (it == inboxes_.end()) {
    // Large capacity: inboxes model receive buffers; backpressure is
    // exercised at the NIC, not the inbox.
    it = inboxes_
             .emplace(key, std::make_unique<sim::Channel<Message>>(sim_, 1 << 20))
             .first;
    // A close that arrived before the port was opened applies now, so a
    // late receiver observes end-of-stream instead of blocking forever.
    if (pre_closed_.erase(key) > 0) it->second->close();
  }
  return *it->second;
}

void Fabric::close_port(int node, int port) {
  const auto key = std::make_pair(node, port);
  auto it = inboxes_.find(key);
  if (it != inboxes_.end()) {
    it->second->close();  // Channel::close is idempotent
  } else {
    pre_closed_.insert(key);  // remember without materializing a channel
  }
}

void Fabric::release_port(int node, int port) {
  const auto key = std::make_pair(node, port);
  pre_closed_.erase(key);
  auto it = inboxes_.find(key);
  if (it == inboxes_.end()) return;
  GW_CHECK_MSG(it->second->size() == 0,
               "release_port would drop undelivered messages");
  it->second->close();  // stray blocked receivers see end-of-stream
  inboxes_.erase(it);
}

std::size_t Fabric::open_inboxes(int port_lo, int port_hi) const {
  std::size_t n = 0;
  for (const auto& [key, ch] : inboxes_) {
    if (key.second >= port_lo && key.second < port_hi) ++n;
  }
  return n;
}

std::size_t Fabric::purge_node(int node, int port_lo, int port_hi) {
  for (auto it = pre_closed_.begin(); it != pre_closed_.end();) {
    const bool ours = it->first == node && it->second >= port_lo &&
                      it->second < port_hi;
    it = ours ? pre_closed_.erase(it) : std::next(it);
  }
  std::size_t dropped = 0;
  for (auto it = inboxes_.begin(); it != inboxes_.end();) {
    const auto& [n, port] = it->first;
    if (n != node || port < port_lo || port >= port_hi) {
      ++it;
      continue;
    }
    dropped += it->second->size();
    it->second->close();
    it = inboxes_.erase(it);
  }
  return dropped;
}

void Fabric::check_quiesced() const {
  GW_CHECK_MSG(pre_closed_.empty(),
               "fabric pre_closed_ did not drain: a port was closed before "
               "open and never opened or released");
  for (const auto& [key, ch] : inboxes_) {
    GW_CHECK_MSG(ch->size() == 0, "fabric inbox holds undelivered messages");
  }
}

void Fabric::check_quiesced(int port_lo, int port_hi) const {
  for (const auto& key : pre_closed_) {
    GW_CHECK_MSG(key.second < port_lo || key.second >= port_hi,
                 "fabric pre_closed_ did not drain inside the job's port "
                 "range: a port was closed before open and never opened or "
                 "released");
  }
  for (const auto& [key, ch] : inboxes_) {
    if (key.second < port_lo || key.second >= port_hi) continue;
    GW_CHECK_MSG(ch->size() == 0,
                 "fabric inbox holds undelivered messages in the job's port "
                 "range");
  }
}

std::uint64_t Fabric::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.bytes_tx;
  return total;
}

}  // namespace gw::net

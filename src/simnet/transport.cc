#include "simnet/transport.h"

#include <algorithm>

#include "util/error.h"

namespace gw::net {

namespace {
// Wire size of an EOS control frame: the u32 EOF sentinel it replaced.
constexpr std::uint64_t kEosFrameBytes = 4;
}  // namespace

const char* traffic_class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kShuffle: return "shuffle";
    case TrafficClass::kDfs: return "dfs";
    case TrafficClass::kControl: return "control";
    case TrafficClass::kRackAgg: return "rack-agg";
  }
  return "?";
}

Transport::Transport(Fabric& fabric) : fabric_(fabric) {
  per_node_.resize(static_cast<std::size_t>(fabric_.num_nodes()));
}

void Transport::account(int src, int dst, int port, TrafficClass tc,
                        std::uint64_t bytes) {
  if (src == dst) return;  // local moves are free and uncounted
  auto& c = per_node_[static_cast<std::size_t>(src)][static_cast<int>(tc)];
  c.bytes += bytes;
  c.msgs += 1;
  auto& p = per_port_[port];
  p.bytes += bytes;
  p.msgs += 1;
}

sim::Resource* Transport::credits(int src, int dst, int port) {
  const std::uint64_t window = fabric_.profile().credit_bytes;
  if (window == 0 || src == dst) return nullptr;
  const auto key = std::make_tuple(src, dst, port);
  auto it = credits_.find(key);
  if (it == credits_.end()) {
    it = credits_
             .emplace(key, std::make_unique<sim::Resource>(
                               fabric_.sim(),
                               static_cast<std::int64_t>(window)))
             .first;
  }
  return it->second.get();
}

std::int64_t Transport::credit_units(std::uint64_t bytes) const {
  // A message never needs more than the whole window (a send larger than
  // the window simply serializes the stream).
  const std::uint64_t window = fabric_.profile().credit_bytes;
  return static_cast<std::int64_t>(
      std::max<std::uint64_t>(1, std::min(bytes, window)));
}

void Transport::check_alive(int src, int dst) const {
  const sim::Simulation& sim = fabric_.sim();
  if (!sim.node_alive(src)) throw NodeDownError(src);
  if (!sim.node_alive(dst)) throw NodeDownError(dst);
}

sim::Task<> Transport::send(int src, int dst, int port, TrafficClass tc,
                            util::Bytes payload,
                            std::vector<std::uint64_t> tags) {
  return deliver(src, dst, port, tc, std::move(payload), std::move(tags),
                 /*drop_if_down=*/false);
}

sim::Task<> Transport::send_or_drop(int src, int dst, int port,
                                    TrafficClass tc, util::Bytes payload,
                                    std::vector<std::uint64_t> tags) {
  return deliver(src, dst, port, tc, std::move(payload), std::move(tags),
                 /*drop_if_down=*/true);
}

sim::Task<> Transport::deliver(int src, int dst, int port, TrafficClass tc,
                               util::Bytes payload,
                               std::vector<std::uint64_t> tags,
                               bool drop_if_down) {
  const sim::Simulation& sim = fabric_.sim();
  if (drop_if_down && !(sim.node_alive(src) && sim.node_alive(dst))) {
    co_return;
  }
  check_alive(src, dst);
  const std::uint64_t bytes = payload.size();
  account(src, dst, port, tc, bytes);
  if (sim::Resource* window = credits(src, dst, port)) {
    // Acquire window space, then hand ownership to the message: the
    // Receiver returns these units when it consumes the payload.
    auto hold = co_await window->acquire(credit_units(bytes));
    hold.forget();
  }
  co_await fabric_.send(src, dst, port, std::move(payload), std::move(tags));
}

sim::Task<> Transport::transfer(int src, int dst, int port, TrafficClass tc,
                                std::uint64_t bytes) {
  check_alive(src, dst);
  account(src, dst, port, tc, bytes);
  if (sim::Resource* window = credits(src, dst, port)) {
    // No payload reaches a Receiver, so the credit hold self-releases once
    // the wire occupancy completes.
    auto hold = co_await window->acquire(credit_units(bytes));
    co_await fabric_.transfer(src, dst, bytes);
    co_return;
  }
  co_await fabric_.transfer(src, dst, bytes);
}

sim::Task<> Transport::retry_transfer(int src, int dst, int port,
                                      TrafficClass tc, std::uint64_t bytes,
                                      RetryPolicy policy) {
  GW_CHECK(policy.attempts >= 1);
  double backoff = policy.backoff_s;
  for (int attempt = 0;; ++attempt) {
    try {
      co_await transfer(src, dst, port, tc, bytes);
      co_return;
    } catch (const NodeDownError&) {
      if (attempt + 1 >= policy.attempts) throw;
    }
    co_await fabric_.sim().delay(backoff);
    backoff *= policy.multiplier;
  }
}

sim::Task<> Transport::finish(int src, int dst, int port) {
  check_alive(src, dst);
  // EOS frames are control traffic and consume no credits: they must be
  // deliverable even when a stream's window is exhausted.
  account(src, dst, port, TrafficClass::kControl, kEosFrameBytes);
  auto it = expected_.find(std::make_pair(dst, port));
  if (it != expected_.end()) {
    it->second.erase(src);
    if (it->second.empty()) expected_.erase(it);
  }
  co_await fabric_.send_eos(src, dst, port);
}

void Transport::expect_senders(int dst, int port,
                               const std::vector<int>& senders) {
  auto& set = expected_[std::make_pair(dst, port)];
  for (int s : senders) set.insert(s);
  if (set.empty()) expected_.erase(std::make_pair(dst, port));
}

sim::Task<> Transport::compensate_crash(int dead) {
  // Collect first, then await: the awaits must not race registry mutation.
  // Two compensations happen per crash:
  //   * streams a live node receives: one EOS on the dead sender's behalf;
  //   * streams the DEAD node receives: EOS for every outstanding sender,
  //     so the orphaned receiver drains, terminates and releases its port
  //     (survivors skip real sends to dead destinations).
  std::vector<std::tuple<int, int, int>> inject;  // (dst, port, count)
  for (auto it = expected_.begin(); it != expected_.end();) {
    const auto [dst, port] = it->first;
    if (dst == dead) {
      inject.emplace_back(dst, port, static_cast<int>(it->second.size()));
      it = expected_.erase(it);
      continue;
    }
    if (it->second.count(dead) > 0) {
      inject.emplace_back(dst, port, 1);
      it->second.erase(dead);
      if (it->second.empty()) {
        it = expected_.erase(it);
        continue;
      }
    }
    ++it;
  }
  for (const auto& [dst, port, count] : inject) {
    for (int i = 0; i < count; ++i) {
      // Metadata injection: delivered straight to the inbox, no wire time
      // and no accounting — the frame never crossed the network.
      co_await fabric_.inbox(dst, port).send(
          Message(dead, port, util::Bytes(), true));
    }
  }
}

void Transport::clear_expected(int port_lo, int port_hi) {
  for (auto it = expected_.begin(); it != expected_.end();) {
    const int port = it->first.second;
    it = (port >= port_lo && port < port_hi) ? expected_.erase(it)
                                             : std::next(it);
  }
}

Transport::Receiver::Receiver(Transport& transport, int node, int port,
                              int expected_eos)
    : transport_(&transport),
      node_(node),
      port_(port),
      expected_(expected_eos) {
  GW_CHECK(expected_eos >= 0);
  // Materialize the inbox up front so messages arriving before the first
  // recv() land in this receiver's channel.
  transport_->fabric_.inbox(node_, port_);
}

sim::Task<std::optional<Message>> Transport::Receiver::recv() {
  GW_CHECK_MSG(!done_, "transport recv after end-of-stream");
  sim::Channel<Message>& ch = transport_->fabric_.inbox(node_, port_);
  for (;;) {
    std::optional<Message> msg;
    co_await ch.next(&msg);
    if (!msg) {  // port was force-closed under us
      done_ = true;
      co_return std::nullopt;
    }
    if (msg->eos) {
      if (++eos_ >= expected_) {
        done_ = true;
        transport_->fabric_.release_port(node_, port_);
        co_return std::nullopt;
      }
      continue;
    }
    if (sim::Resource* window = transport_->credits(msg->src, node_, port_)) {
      window->release(transport_->credit_units(msg->payload.size()));
    }
    co_return std::move(msg);
  }
}

std::uint64_t Transport::bytes_sent(int node, TrafficClass tc) const {
  return per_node_[static_cast<std::size_t>(node)][static_cast<int>(tc)].bytes;
}

std::uint64_t Transport::messages_sent(int node, TrafficClass tc) const {
  return per_node_[static_cast<std::size_t>(node)][static_cast<int>(tc)].msgs;
}

std::uint64_t Transport::total_bytes(TrafficClass tc) const {
  std::uint64_t total = 0;
  for (const auto& n : per_node_) total += n[static_cast<int>(tc)].bytes;
  return total;
}

std::uint64_t Transport::port_bytes(int port) const {
  auto it = per_port_.find(port);
  return it == per_port_.end() ? 0 : it->second.bytes;
}

std::uint64_t Transport::port_messages(int port) const {
  auto it = per_port_.find(port);
  return it == per_port_.end() ? 0 : it->second.msgs;
}

}  // namespace gw::net

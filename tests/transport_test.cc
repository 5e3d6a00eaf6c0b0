// Tests for net::Transport: traffic-class accounting, end-of-stream
// framing, credit-based flow control, and receiver protocol checks.
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "simnet/transport.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;
using net::NetworkProfile;
using net::TrafficClass;
using net::Transport;

Platform make_platform(int nodes,
                       NetworkProfile profile = NetworkProfile::qdr_infiniband_ipoib()) {
  return Platform(
      ClusterSpec::homogeneous(nodes, NodeSpec::das4_type1(), profile));
}

TEST(Transport, AccountsPerClassAndPort) {
  Platform p = make_platform(2);
  auto traffic = [](Platform& pl) -> sim::Task<> {
    Transport& tp = pl.transport();
    co_await tp.send(0, 1, net::kPortShuffle, TrafficClass::kShuffle,
                     util::Bytes(1000));
    co_await tp.transfer(0, 1, net::kPortDfs, TrafficClass::kDfs, 500);
    co_await tp.send(1, 1, net::kPortShuffle, TrafficClass::kShuffle,
                     util::Bytes(9999));  // local: free and uncounted
  };
  p.sim().spawn(traffic(p));
  p.sim().run();
  Transport& tp = p.transport();
  EXPECT_EQ(tp.bytes_sent(0, TrafficClass::kShuffle), 1000u);
  EXPECT_EQ(tp.bytes_sent(0, TrafficClass::kDfs), 500u);
  EXPECT_EQ(tp.bytes_sent(0, TrafficClass::kControl), 0u);
  EXPECT_EQ(tp.bytes_sent(1, TrafficClass::kShuffle), 0u);
  EXPECT_EQ(tp.total_bytes(TrafficClass::kShuffle), 1000u);
  EXPECT_EQ(tp.total_bytes(TrafficClass::kDfs), 500u);
  EXPECT_EQ(tp.port_bytes(net::kPortShuffle), 1000u);
  EXPECT_EQ(tp.port_bytes(net::kPortDfs), 500u);
  EXPECT_EQ(tp.messages_sent(0, TrafficClass::kShuffle), 1u);
  EXPECT_EQ(tp.port_messages(net::kPortDfs), 1u);
}

TEST(Transport, TagsRideOutOfBand) {
  // Dedup tags travel on the delivered Message, not in the payload: they
  // arrive unchanged and neither the transport nor the fabric counts them.
  const std::vector<std::uint64_t> tags = {3, 1ull << 40, 7};
  Platform p = make_platform(2);
  auto sender = [](Platform& pl,
                   std::vector<std::uint64_t> t) -> sim::Task<> {
    co_await pl.transport().send(0, 1, net::kPortShuffle,
                                 TrafficClass::kShuffle, util::Bytes(1000),
                                 std::move(t));
  };
  auto receiver = [](Platform& pl, std::vector<std::uint64_t>* got,
                     std::size_t* payload) -> sim::Task<> {
    auto msg = co_await pl.fabric().inbox(1, net::kPortShuffle).recv();
    *got = msg->tags;
    *payload = msg->payload.size();
  };
  std::vector<std::uint64_t> got;
  std::size_t payload = 0;
  p.sim().spawn(sender(p, tags));
  p.sim().spawn(receiver(p, &got, &payload));
  p.sim().run();
  EXPECT_EQ(got, tags);
  EXPECT_EQ(payload, 1000u);
  EXPECT_EQ(p.transport().port_bytes(net::kPortShuffle), 1000u);
  EXPECT_EQ(p.fabric().bytes_sent(0), 1000u);
}

TEST(Transport, EosTerminatesReceiverAndReleasesInbox) {
  Platform p = make_platform(3);
  int received = 0;
  bool done = false;
  auto sender = [](Platform& pl, int src) -> sim::Task<> {
    Transport& tp = pl.transport();
    co_await tp.send(src, 0, net::kPortShuffle, TrafficClass::kShuffle,
                     util::Bytes(64));
    co_await tp.finish(src, 0, net::kPortShuffle);
  };
  auto receiver = [](Platform& pl, int* n, bool* done_out) -> sim::Task<> {
    Transport::Receiver rx =
        pl.transport().receiver(0, net::kPortShuffle, /*expected_eos=*/3);
    for (;;) {
      auto msg = co_await rx.recv();
      if (!msg) break;
      ++*n;
    }
    EXPECT_EQ(rx.eos_seen(), 3);
    EXPECT_TRUE(rx.done());
    *done_out = true;
  };
  p.sim().spawn(receiver(p, &received, &done));
  for (int src = 0; src < 3; ++src) p.sim().spawn(sender(p, src));
  p.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(received, 3);
  // At end-of-stream the drained inbox is dropped from the fabric map.
  EXPECT_EQ(p.fabric().open_inboxes(), 0u);
  // EOS frames are remote control traffic (node 0's own marker is local).
  EXPECT_EQ(p.transport().total_bytes(TrafficClass::kControl), 8u);
}

TEST(Transport, CreditWindowBoundsInFlightBytes) {
  // 1 MiB window, 4 x 512 KiB sends from the same stream: two fill the
  // window and land in the inbox; the other two block until the receiver
  // consumes and returns credits.
  NetworkProfile prof{"test", 1e9, 0.0, 0.0};
  prof.credit_bytes = 1 << 20;
  Platform p = make_platform(2, prof);
  int sends_done = 0;
  auto sender = [](Platform& pl, int* done) -> sim::Task<> {
    co_await pl.transport().send(0, 1, net::kPortShuffle,
                                 TrafficClass::kShuffle,
                                 util::Bytes(512 << 10));
    ++*done;
  };
  for (int i = 0; i < 4; ++i) p.sim().spawn(sender(p, &sends_done));
  p.sim().run();
  EXPECT_EQ(sends_done, 2);
  EXPECT_EQ(p.fabric().inbox(1, net::kPortShuffle).size(), 2u);

  // Draining the stream returns credits and unblocks the remaining sends.
  int received = 0;
  auto receiver = [](Platform& pl, int* n) -> sim::Task<> {
    Transport::Receiver rx =
        pl.transport().receiver(1, net::kPortShuffle, /*expected_eos=*/1);
    for (;;) {
      auto msg = co_await rx.recv();
      if (!msg) break;
      EXPECT_EQ(msg->payload.size(), 512u << 10);
      ++*n;
    }
  };
  p.sim().spawn(receiver(p, &received));
  p.sim().run();  // receiver drains all four, then blocks awaiting EOS
  EXPECT_EQ(sends_done, 4);
  EXPECT_EQ(received, 4);

  auto finisher = [](Platform& pl) -> sim::Task<> {
    co_await pl.transport().finish(0, 1, net::kPortShuffle);
  };
  p.sim().spawn(finisher(p));
  p.sim().run();
  EXPECT_EQ(p.fabric().open_inboxes(), 0u);
}

TEST(Transport, CreditsOffAddsNoThrottling) {
  Platform p = make_platform(2);  // credit_bytes = 0: unbounded in-flight
  int sends_done = 0;
  auto sender = [](Platform& pl, int* done) -> sim::Task<> {
    co_await pl.transport().send(0, 1, net::kPortShuffle,
                                 TrafficClass::kShuffle,
                                 util::Bytes(512 << 10));
    ++*done;
  };
  for (int i = 0; i < 4; ++i) p.sim().spawn(sender(p, &sends_done));
  p.sim().run();
  EXPECT_EQ(sends_done, 4);
  EXPECT_EQ(p.fabric().inbox(1, net::kPortShuffle).size(), 4u);
}

TEST(TransportDeathTest, RecvAfterEndOfStreamAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Platform p = make_platform(1);
        auto script = [](Platform& pl) -> sim::Task<> {
          co_await pl.transport().finish(0, 0, net::kPortShuffle);
          Transport::Receiver rx =
              pl.transport().receiver(0, net::kPortShuffle, 1);
          auto msg = co_await rx.recv();
          EXPECT_FALSE(msg.has_value());
          co_await rx.recv();  // protocol bug: stream already ended
        };
        p.sim().spawn(script(p));
        p.sim().run();
      },
      "recv after end-of-stream");
}

}  // namespace
}  // namespace gw

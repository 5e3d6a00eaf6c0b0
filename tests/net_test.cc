// Tests for the simulated network fabric and cluster platform.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "simnet/fabric.h"

namespace gw {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;
using net::Fabric;
using net::Message;
using net::NetworkProfile;

Platform make_platform(int nodes,
                       NetworkProfile profile = NetworkProfile::qdr_infiniband_ipoib()) {
  return Platform(
      ClusterSpec::homogeneous(nodes, NodeSpec::das4_type1(), profile));
}

TEST(Fabric, DeliversPayloadIntact) {
  Platform p = make_platform(2);
  util::Bytes payload = {1, 2, 3, 4, 5};
  util::Bytes received;
  auto sender = [](Platform& pl, util::Bytes data) -> sim::Task<> {
    co_await pl.fabric().send(0, 1, net::kPortShuffle, std::move(data));
  };
  auto receiver = [](Platform& pl, util::Bytes* out) -> sim::Task<> {
    auto msg = co_await pl.fabric().inbox(1, net::kPortShuffle).recv();
    EXPECT_TRUE(msg.has_value());  // ASSERT_* returns, which coroutines forbid
    if (!msg) co_return;
    EXPECT_EQ(msg->src, 0);
    *out = std::move(msg->payload);
  };
  p.sim().spawn(sender(p, payload));
  p.sim().spawn(receiver(p, &received));
  p.sim().run();
  EXPECT_EQ(received, payload);
}

TEST(Fabric, TransferTimeMatchesBandwidthPlusLatency) {
  NetworkProfile prof{"test", 100e6, 1e-3, 0.0};
  Platform p = make_platform(2, prof);
  auto sender = [](Platform& pl) -> sim::Task<> {
    co_await pl.fabric().transfer(0, 1, 50'000'000);  // 0.5 s at 100 MB/s
  };
  p.sim().spawn(sender(p));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 0.501, 1e-9);
}

TEST(Fabric, LocalSendIsFree) {
  Platform p = make_platform(2);
  auto sender = [](Platform& pl) -> sim::Task<> {
    co_await pl.fabric().send(0, 0, net::kPortShuffle, util::Bytes(1 << 20));
  };
  p.sim().spawn(sender(p));
  p.sim().run();
  EXPECT_DOUBLE_EQ(p.sim().now(), 0.0);
  EXPECT_EQ(p.fabric().inbox(0, net::kPortShuffle).size(), 1u);
}

TEST(Fabric, SenderNicSerializesOutgoingTraffic) {
  NetworkProfile prof{"test", 100e6, 0.0, 0.0};
  Platform p = make_platform(3, prof);
  // Two 1-second transfers from node 0 must serialize on its TX unit.
  auto sender = [](Platform& pl, int dst) -> sim::Task<> {
    co_await pl.fabric().transfer(0, dst, 100'000'000);
  };
  p.sim().spawn(sender(p, 1));
  p.sim().spawn(sender(p, 2));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 2.0, 1e-9);
}

TEST(Fabric, DisjointPairsRunInParallel) {
  NetworkProfile prof{"test", 100e6, 0.0, 0.0};
  Platform p = make_platform(4, prof);
  auto sender = [](Platform& pl, int src, int dst) -> sim::Task<> {
    co_await pl.fabric().transfer(src, dst, 100'000'000);
  };
  p.sim().spawn(sender(p, 0, 1));
  p.sim().spawn(sender(p, 2, 3));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 1.0, 1e-9);
}

TEST(Fabric, StatsAccumulate) {
  Platform p = make_platform(2);
  auto sender = [](Platform& pl) -> sim::Task<> {
    co_await pl.fabric().transfer(0, 1, 1000);
    co_await pl.fabric().transfer(0, 1, 500);
  };
  p.sim().spawn(sender(p));
  p.sim().run();
  EXPECT_EQ(p.fabric().bytes_sent(0), 1500u);
  EXPECT_EQ(p.fabric().bytes_received(1), 1500u);
  EXPECT_EQ(p.fabric().messages_sent(0), 2u);
  EXPECT_EQ(p.fabric().total_bytes_sent(), 1500u);
}

TEST(Fabric, ClosePortWakesReceiver) {
  Platform p = make_platform(1);
  bool saw_eof = false;
  auto receiver = [](Platform& pl, bool* eof) -> sim::Task<> {
    auto msg = co_await pl.fabric().inbox(0, net::kPortShuffle).recv();
    *eof = !msg.has_value();
  };
  auto closer = [](Platform& pl) -> sim::Task<> {
    co_await pl.sim().delay(1.0);
    pl.fabric().close_port(0, net::kPortShuffle);
  };
  p.sim().spawn(receiver(p, &saw_eof));
  p.sim().spawn(closer(p));
  p.sim().run();
  EXPECT_TRUE(saw_eof);
}

TEST(Fabric, LocalTransferIsFree) {
  Platform p = make_platform(2);
  auto mover = [](Platform& pl) -> sim::Task<> {
    co_await pl.fabric().transfer(1, 1, 100 << 20);
  };
  p.sim().spawn(mover(p));
  p.sim().run();
  EXPECT_DOUBLE_EQ(p.sim().now(), 0.0);
}

TEST(Fabric, TransferMatchesSendByteAccounting) {
  const std::uint64_t kBytes = 3 << 20;
  Platform a = make_platform(2);
  Platform b = make_platform(2);
  auto mover = [](Platform& pl, std::uint64_t n) -> sim::Task<> {
    co_await pl.fabric().transfer(0, 1, n);
  };
  auto sender = [](Platform& pl, std::uint64_t n) -> sim::Task<> {
    co_await pl.fabric().send(0, 1, net::kPortShuffle, util::Bytes(n));
  };
  a.sim().spawn(mover(a, kBytes));
  b.sim().spawn(sender(b, kBytes));
  a.sim().run();
  b.sim().run();
  EXPECT_EQ(a.fabric().bytes_sent(0), b.fabric().bytes_sent(0));
  EXPECT_EQ(a.fabric().bytes_received(1), b.fabric().bytes_received(1));
  EXPECT_EQ(a.fabric().messages_sent(0), b.fabric().messages_sent(0));
  // An equal-size payload also takes equally long on an uncontended wire.
  EXPECT_DOUBLE_EQ(a.sim().now(), b.sim().now());
}

TEST(Fabric, ChunkedSendDeliversPayloadIdentical) {
  util::Bytes payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  NetworkProfile plain{"test", 100e6, 1e-3, 1e-4};
  NetworkProfile chunked = plain;
  chunked.max_chunk_bytes = 64 << 10;

  auto run_one = [](Platform& p, const util::Bytes& data, util::Bytes* out) {
    auto sender = [](Platform& pl, util::Bytes d) -> sim::Task<> {
      co_await pl.fabric().send(0, 1, net::kPortShuffle, std::move(d));
    };
    auto receiver = [](Platform& pl, util::Bytes* o) -> sim::Task<> {
      auto msg = co_await pl.fabric().inbox(1, net::kPortShuffle).recv();
      EXPECT_TRUE(msg.has_value());
      if (msg) *o = std::move(msg->payload);
    };
    p.sim().spawn(sender(p, data));
    p.sim().spawn(receiver(p, out));
    p.sim().run();
  };

  Platform a = make_platform(2, plain);
  Platform b = make_platform(2, chunked);
  util::Bytes got_plain, got_chunked;
  run_one(a, payload, &got_plain);
  run_one(b, payload, &got_chunked);
  EXPECT_EQ(got_plain, payload);
  EXPECT_EQ(got_chunked, payload);
  // Per-message overhead is charged once, so a lone chunked flow finishes
  // at the same simulated instant as the unchunked one.
  EXPECT_NEAR(a.sim().now(), b.sim().now(), 1e-12);
}

TEST(Fabric, ChunkingInterleavesFlowsOnSharedLink) {
  // Two 1-second flows into node 1's RX. Unchunked they serialize whole:
  // the first finishes at ~1 s. Chunked they alternate chunk by chunk, so
  // the earliest completion moves past the 1-second mark while the total
  // stays work-conserving at ~2 s.
  NetworkProfile plain{"test", 100e6, 0.0, 0.0};
  NetworkProfile chunked = plain;
  chunked.max_chunk_bytes = 10'000'000;

  auto run_one = [](Platform& p, double* first_done) {
    auto sender = [](Platform& pl, int src, double* done) -> sim::Task<> {
      co_await pl.fabric().transfer(src, 1, 100'000'000);
      if (*done == 0.0) *done = pl.sim().now();
    };
    p.sim().spawn(sender(p, 0, first_done));
    p.sim().spawn(sender(p, 2, first_done));
    p.sim().run();
  };

  Platform a = make_platform(3, plain);
  Platform b = make_platform(3, chunked);
  double first_plain = 0.0, first_chunked = 0.0;
  run_one(a, &first_plain);
  run_one(b, &first_chunked);
  EXPECT_NEAR(first_plain, 1.0, 1e-9);
  EXPECT_GT(first_chunked, 1.5);
  EXPECT_NEAR(a.sim().now(), 2.0, 1e-9);
  EXPECT_NEAR(b.sim().now(), 2.0, 1e-9);
}

TEST(Fabric, BisectionOversubscriptionThrottlesDisjointPairs) {
  // Same disjoint-pair workload as DisjointPairsRunInParallel, but a 4x
  // oversubscribed core switch admits max(1, 4/4) = 1 concurrent flow, so
  // the pairs serialize at the switch instead of running in parallel.
  NetworkProfile prof{"test", 100e6, 0.0, 0.0};
  prof.bisection_oversubscription = 4;
  Platform p = make_platform(4, prof);
  EXPECT_EQ(p.fabric().core_switch_capacity(), 1);
  auto sender = [](Platform& pl, int src, int dst) -> sim::Task<> {
    co_await pl.fabric().transfer(src, dst, 100'000'000);
  };
  p.sim().spawn(sender(p, 0, 1));
  p.sim().spawn(sender(p, 2, 3));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 2.0, 1e-9);
}

TEST(Fabric, ClosePortOnAbsentPortDoesNotCreate) {
  Platform p = make_platform(1);
  EXPECT_EQ(p.fabric().open_inboxes(), 0u);
  p.fabric().close_port(0, net::kPortShuffle);
  p.fabric().close_port(0, net::kPortShuffle);  // idempotent on absent ports
  EXPECT_EQ(p.fabric().open_inboxes(), 0u);
  // A late receiver still observes end-of-stream: the port materializes
  // already-closed instead of blocking forever.
  bool saw_eof = false;
  auto receiver = [](Platform& pl, bool* eof) -> sim::Task<> {
    auto msg = co_await pl.fabric().inbox(0, net::kPortShuffle).recv();
    *eof = !msg.has_value();
  };
  p.sim().spawn(receiver(p, &saw_eof));
  p.sim().run();
  EXPECT_TRUE(saw_eof);
  EXPECT_EQ(p.fabric().open_inboxes(), 1u);
  p.fabric().close_port(0, net::kPortShuffle);  // idempotent on open ports
}

TEST(Fabric, LinkSpansRecordOccupancy) {
  NetworkProfile prof{"test", 100e6, 1e-3, 0.0};
  Platform p = make_platform(2, prof);
  auto sender = [](Platform& pl) -> sim::Task<> {
    co_await pl.fabric().transfer(0, 1, 50'000'000);  // 0.5 s on the wire
  };
  p.sim().spawn(sender(p));
  p.sim().run();
  const trace::Tracer& tr = p.sim().tracer();
  EXPECT_NEAR(tr.occupancy(0, "net.tx").busy, 0.5, 1e-9);
  EXPECT_NEAR(tr.occupancy(1, "net.rx").busy, 0.5, 1e-9);
  EXPECT_EQ(tr.occupancy(1, "net.tx").spans, 0u);  // node 1 never sent
  EXPECT_EQ(tr.validate(), "");
  EXPECT_NE(tr.chrome_json().find("\"link\""), std::string::npos);
}

TEST(Node, DiskReadTimeMatchesModel) {
  Platform p = make_platform(1);
  const auto& disk = p.node(0).spec().disk;
  auto reader = [](Platform& pl) -> sim::Task<> {
    co_await pl.node(0).disk_stream_read(100 << 20, 1.0);
  };
  p.sim().spawn(reader(p));
  p.sim().run();
  const double expected =
      disk.seek_latency_s + (100 << 20) / disk.read_bw_bytes_per_s;
  EXPECT_NEAR(p.sim().now(), expected, 1e-9);
  EXPECT_EQ(p.node(0).disk_bytes_read(), static_cast<std::uint64_t>(100 << 20));
}

TEST(Node, DiskOperationsSerialize) {
  Platform p = make_platform(1);
  auto reader = [](Platform& pl) -> sim::Task<> {
    co_await pl.node(0).disk_stream_read(100 << 20, 1.0);
  };
  p.sim().spawn(reader(p));
  p.sim().spawn(reader(p));
  p.sim().run();
  const auto& disk = p.node(0).spec().disk;
  const double one = disk.seek_latency_s + (100 << 20) / disk.read_bw_bytes_per_s;
  EXPECT_NEAR(p.sim().now(), 2 * one, 1e-9);
}

TEST(Node, CpuWorkTimesharesCores) {
  Platform p = make_platform(1);
  const int cores = p.node(0).spec().hw_threads;
  // 2x cores workers, each needing 1 s of CPU: with timesharing the whole
  // batch completes in ~2 s.
  auto worker = [](Platform& pl) -> sim::Task<> {
    co_await pl.node(0).cpu_work(1.0);
  };
  for (int i = 0; i < 2 * cores; ++i) p.sim().spawn(worker(p));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 2.0, 0.05);
}

TEST(Node, CpuWorkSingleWorkerUnaffectedByFreeCores) {
  Platform p = make_platform(1);
  auto worker = [](Platform& pl) -> sim::Task<> {
    co_await pl.node(0).cpu_work(3.0);
  };
  p.sim().spawn(worker(p));
  p.sim().run();
  EXPECT_NEAR(p.sim().now(), 3.0, 1e-9);
}

TEST(Platform, SpecsExposeDas4Types) {
  const NodeSpec t1 = NodeSpec::das4_type1();
  const NodeSpec t2 = NodeSpec::das4_type2();
  EXPECT_EQ(t1.hw_threads, 16);
  EXPECT_EQ(t2.hw_threads, 24);
  EXPECT_GT(t2.ram_bytes, t1.ram_bytes);
}

TEST(TaskGroup, JoinsAllChildren) {
  Platform p = make_platform(1);
  int done = 0;
  auto child = [](Platform& pl, double t, int* n) -> sim::Task<> {
    co_await pl.sim().delay(t);
    ++*n;
  };
  auto parent = [&child](Platform& pl, int* n) -> sim::Task<> {
    sim::TaskGroup group(pl.sim());
    group.spawn(child(pl, 1.0, n));
    group.spawn(child(pl, 2.0, n));
    group.spawn(child(pl, 3.0, n));
    co_await group.wait();
    EXPECT_EQ(*n, 3);
  };
  p.sim().spawn(parent(p, &done));
  p.sim().run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(p.sim().now(), 3.0);
}

TEST(TaskGroup, PropagatesChildException) {
  Platform p = make_platform(1);
  bool caught = false;
  auto bad_child = [](Platform& pl) -> sim::Task<> {
    co_await pl.sim().delay(0.5);
    util::throw_error("child failed");
  };
  auto parent = [&bad_child](Platform& pl, bool* flag) -> sim::Task<> {
    sim::TaskGroup group(pl.sim());
    group.spawn(bad_child(pl));
    try {
      co_await group.wait();
    } catch (const util::Error&) {
      *flag = true;
    }
  };
  p.sim().spawn(parent(p, &caught));
  p.sim().run();
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace gw

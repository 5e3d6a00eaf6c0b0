// Simulated cluster interconnect.
//
// Substitutes for the DAS-4 network the paper evaluates on (Gigabit
// Ethernet and QDR InfiniBand used as IP-over-InfiniBand). Each node has a
// full-duplex NIC modelled as a TX and an RX unit-capacity resource; a
// message of B bytes propagates after `latency`, then occupies sender TX and
// receiver RX for overhead + B/bandwidth. Payloads are real bytes, so
// everything the shuffle moves is byte-accurate.
//
// Topology: beyond the NICs, the fabric can model the core switch as a
// bisection-capacity resource. With `bisection_oversubscription` F > 0, at
// most max(1, num_nodes / F) wire occupancies may be in flight concurrently
// cluster-wide, so disjoint node pairs contend once the cluster outgrows the
// switch backplane — the effect that separates the paper's 1 GbE and
// QDR-IPoIB scaling curves at 16-64 nodes. The default F = 0 keeps the
// legacy infinite-bisection model (only NICs serialize), with an event
// sequence byte-identical to the pre-topology fabric.
//
// Chunking: with `max_chunk_bytes` > 0, a message larger than the chunk
// size occupies its links one chunk at a time, releasing NIC (and switch)
// capacity between chunks so concurrent flows interleave instead of queueing
// behind whole multi-megabyte sends. Per-message overhead is charged once;
// the payload is still delivered whole, byte-identical to an unchunked send.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/sim.h"
#include "util/bytes.h"
#include "util/trace.h"

namespace gw::net {

struct NetworkProfile {
  std::string name;
  double bandwidth_bytes_per_s;
  double latency_s;              // one-way propagation + switching
  double per_message_overhead_s; // protocol/stack cost per message

  // Core-switch oversubscription factor F: at most max(1, num_nodes / F)
  // concurrent wire occupancies cluster-wide. 0 = infinite bisection (the
  // legacy model; no switch resource exists and no extra awaits happen).
  double bisection_oversubscription = 0;
  // Split wire occupancy into chunks of at most this many bytes so large
  // messages interleave on shared links. 0 = unchunked (legacy).
  std::uint64_t max_chunk_bytes = 0;
  // Transport-level credit window per (src, dst, port) stream: senders may
  // have at most this many bytes in flight before the receiver consumes
  // them. 0 = no flow control (legacy). Interpreted by net::Transport; the
  // raw fabric ignores it.
  std::uint64_t credit_bytes = 0;
  // Rack topology: nodes [r*rack_size, (r+1)*rack_size) share top-of-rack
  // switch r. Intra-rack traffic bypasses the core-switch bisection
  // resource (only NICs serialize it); traffic between racks pays the
  // oversubscription toll. 0 = flat topology (legacy: every remote wire
  // occupancy contends for the core switch when one is modelled).
  int rack_size = 0;

  // 1 Gbit/s Ethernet: ~117 MiB/s effective, 100 us latency.
  static NetworkProfile gigabit_ethernet();
  // QDR InfiniBand via IP-over-InfiniBand: ~1.0 GiB/s effective TCP
  // throughput, 25 us latency (IPoIB, not verbs).
  static NetworkProfile qdr_infiniband_ipoib();
};

// A delivered message. User-declared constructor per the sim.h channel
// payload rule.
struct Message {
  Message() : src(-1), port(-1) {}
  Message(int src_in, int port_in, util::Bytes payload_in, bool eos_in = false,
          std::vector<std::uint64_t> tags_in = {})
      : src(src_in), port(port_in), payload(std::move(payload_in)),
        eos(eos_in), tags(std::move(tags_in)) {}

  int src;
  int port;
  util::Bytes payload;
  bool eos = false;  // end-of-stream marker (net::Transport framing)
  // Out-of-band sender metadata: the dedup tags of the producers whose
  // output the payload carries (one for a map run, the union of its
  // inputs' tags for a combined run; empty for untagged traffic). Carried
  // in the struct, NOT in the payload: contributes zero wire bytes, so
  // tagged and untagged sends have identical timing.
  std::vector<std::uint64_t> tags;
};

// Well-known service ports.
enum Port : int {
  kPortShuffle = 1,       // Glasswing push shuffle
  kPortDfs = 2,           // DFS block pipeline
  kPortHadoopFetch = 3,   // Hadoop pull-shuffle requests
  kPortRackAgg = 4,       // intra-rack streams to the rack aggregator
  kPortBroadcast = 5,     // DAG driver broadcast of per-round state
  kPortHadoopReplyBase = 1000,  // + reducer id for fetch replies
  kPortRecoveryBase = 2000,     // + recovery round for crash re-shuffle
  // Per-job port windows: a job in window w owns ports
  // [kPortJobStride * (w + 1), kPortJobStride * (w + 2)) and addresses its
  // private services at that port_base + kPortShuffle etc. A job run on
  // its own uses window 0; the scheduler recycles windows across resident
  // jobs. DFS traffic stays on the shared kPortDfs regardless of job.
  kPortJobStride = 10000,
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, int num_nodes, NetworkProfile profile);

  int num_nodes() const { return num_nodes_; }
  const NetworkProfile& profile() const { return profile_; }
  sim::Simulation& sim() { return sim_; }

  // Transfers `payload` from src to dst and enqueues it on (dst, port).
  // Completes when the message has been handed to the destination inbox.
  // Local sends (src == dst) are free of NIC cost but still asynchronous.
  // `tags` ride out-of-band on the delivered Message (zero wire bytes).
  sim::Task<> send(int src, int dst, int port, util::Bytes payload,
                   std::vector<std::uint64_t> tags = {});

  // Delivers an end-of-stream marker on (dst, port). Costs one 4-byte
  // control frame on the wire (the size of the u32 EOF sentinel it
  // replaces), so timing and byte accounting match the legacy protocol.
  sim::Task<> send_eos(int src, int dst, int port);

  // Charges the network cost of moving `bytes` from src to dst without
  // delivering a payload; used by the DFS replication pipeline and remote
  // block reads, where the real bytes are tracked by the filesystem layer.
  sim::Task<> transfer(int src, int dst, std::uint64_t bytes);

  // Inbox channel for (node, port); created on first use. Receivers loop on
  // recv() until the port is closed. A port closed before it was ever
  // opened materializes already-closed, so a late receiver still observes
  // end-of-stream.
  sim::Channel<Message>& inbox(int node, int port);

  // Closes an inbox so blocked receivers see end-of-stream. Idempotent; on
  // a never-opened port it records the close without materializing a
  // channel (see `open_inboxes`).
  void close_port(int node, int port);

  // Drops a fully drained inbox from the fabric, waking any stray blocked
  // receiver with end-of-stream first. Aborts if undelivered messages would
  // be lost. A later inbox() on the same (node, port) starts fresh, so
  // ports are reusable across jobs without the inbox map growing forever.
  void release_port(int node, int port);

  // Number of materialized inbox channels (lifetime hygiene observability).
  std::size_t open_inboxes() const { return inboxes_.size(); }

  // Materialized inboxes whose port falls in [port_lo, port_hi): the
  // per-job variant, so one tenant can audit its own namespace while
  // neighbours keep ports open.
  std::size_t open_inboxes(int port_lo, int port_hi) const;

  // End-of-job teardown for a crashed node: drops its inboxes and
  // close-before-open records with port in [port_lo, port_hi) — the job's
  // port window — discarding undelivered messages (data in flight to a
  // dead machine vanishes with it). Other jobs' windows are untouched, so
  // one job's crash cleanup cannot discard traffic a resident neighbour
  // still expects to deliver. Returns the number of messages dropped. Any
  // receiver the node ran in the window must have terminated by then
  // (crash compensation guarantees this for the job protocols).
  std::size_t purge_node(int node, int port_lo, int port_hi);

  // Close-before-open records still outstanding. Entries are pruned when
  // the matching inbox() materializes or release_port() arrives; a value
  // that keeps growing across jobs on a reused simulation is a port-hygiene
  // bug (see check_quiesced).
  std::size_t pre_closed_count() const { return pre_closed_.size(); }

  // End-of-run invariant: no undelivered messages in any inbox and no
  // stale close-before-open records. Runtimes call this once the event
  // queue drained; aborts with a description on violation.
  void check_quiesced() const;

  // Job-scoped quiesce check: only inboxes and close-before-open records
  // with port in [port_lo, port_hi) must have drained. A finishing tenant
  // asserts its own namespace is clean; concurrent jobs' live ports (and
  // the shared DFS port) are out of scope and never trip it.
  void check_quiesced(int port_lo, int port_hi) const;

  // Concurrent wire occupancies the core switch admits; 0 when the switch
  // is not modelled (bisection_oversubscription == 0).
  std::int64_t core_switch_capacity() const {
    return core_ ? core_->capacity() : 0;
  }

  // Bytes whose wire occupancy traversed the core switch (inter-rack under
  // a rack topology; all remote bytes when flat). Counted regardless of
  // whether the switch resource is modelled, so flat and rack runs can be
  // compared on the same metric.
  std::uint64_t core_bytes() const { return core_bytes_; }

  std::uint64_t bytes_sent(int node) const { return stats_[node].bytes_tx; }
  std::uint64_t bytes_received(int node) const { return stats_[node].bytes_rx; }
  std::uint64_t messages_sent(int node) const { return stats_[node].msgs_tx; }
  std::uint64_t total_bytes_sent() const;

 private:
  struct NodeState {
    std::unique_ptr<sim::Resource> tx;
    std::unique_ptr<sim::Resource> rx;
    trace::TrackRef tx_track;
    trace::TrackRef rx_track;
  };
  struct NodeStats {
    std::uint64_t bytes_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t msgs_tx = 0;
  };

  // Shared body of send/send_eos. The wire model stays inline (no helper
  // coroutine): resource holds must live until after the inbox handoff so
  // the release/wakeup order at equal timestamps matches the legacy fabric
  // exactly — goldens depend on that event order.
  sim::Task<> send_impl(int src, int dst, int port, util::Bytes payload,
                        bool eos, std::vector<std::uint64_t> tags = {});
  // Chunked wire occupancy for one direction; used by both send and
  // transfer when the message exceeds max_chunk_bytes.
  sim::Task<> occupy_chunked(int src, int dst, std::uint64_t bytes);

  // Whether a (src, dst) wire occupancy traverses the core switch: true
  // under a flat topology, false for intra-rack traffic when rack_size > 0
  // (it stays inside the top-of-rack switch).
  bool crosses_core(int src, int dst) const {
    return profile_.rack_size <= 0 ||
           src / profile_.rack_size != dst / profile_.rack_size;
  }

  sim::Simulation& sim_;
  int num_nodes_;
  NetworkProfile profile_;
  std::vector<NodeState> nodes_;
  std::vector<NodeStats> stats_;
  // Core switch as a counted resource; null under the legacy
  // infinite-bisection model so the default path acquires nothing.
  std::unique_ptr<sim::Resource> core_;
  std::uint64_t core_bytes_ = 0;  // remote bytes that crossed the core
  std::map<std::pair<int, int>, std::unique_ptr<sim::Channel<Message>>> inboxes_;
  // Ports closed before first use: consumed when the inbox materializes.
  std::set<std::pair<int, int>> pre_closed_;
  std::int32_t link_tx_name_ = -1;  // interned "net.tx" / "net.rx"
  std::int32_t link_rx_name_ = -1;
};

}  // namespace gw::net

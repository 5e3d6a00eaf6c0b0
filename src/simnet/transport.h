// Typed streams over the fabric.
//
// net::Transport is the one messaging layer every byte that crosses nodes
// goes through: the Glasswing push shuffle, Hadoop's pull-shuffle
// fetch/reply protocol and the DFS block pipeline all moved here from
// hand-rolled framing on the raw Fabric. It adds, on top of Fabric's wire
// model:
//
//   * Traffic classes — every send/transfer is tagged shuffle / DFS /
//     control, and the transport keeps per-node, per-class and per-port
//     byte/message accounting of REMOTE traffic (local src == dst moves are
//     free and uncounted, matching the runtimes' `shuffle_bytes_remote`
//     semantics). Job reports split their network bytes from these totals.
//
//   * End-of-stream framing — `finish(src, dst, port)` delivers an EOS
//     marker costing one 4-byte control frame (the u32 EOF sentinel it
//     replaced); a `Receiver` counts one per expected sender, then returns
//     nullopt and releases the inbox from the fabric map. This subsumes the
//     ad-hoc close_port/EOF-payload conventions.
//
//   * Credit-based flow control — with NetworkProfile::credit_bytes > 0,
//     each (src, dst, port) stream has a receiver-granted window of that
//     many bytes; `send` blocks while a full window is unconsumed and the
//     Receiver returns credits as it consumes messages. This bounds the
//     bytes in flight from the map partition stage's fire-and-forget sends.
//     0 (default) disables flow control and adds no awaits whatsoever.
//
// Determinism: with all knobs at their defaults, a transport call performs
// exactly the awaits of the fabric call it wraps — the accounting is
// synchronous bookkeeping — so event order is byte-identical to the
// pre-transport runtimes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "simnet/fabric.h"
#include "util/error.h"

namespace gw::net {

enum class TrafficClass : std::uint8_t {
  kShuffle = 0,  // intermediate data between map and reduce
  kDfs = 1,      // DFS block replication, remote reads, output writes
  kControl = 2,  // protocol frames: EOS markers, fetch requests, heartbeats
  kRackAgg = 3,  // intra-rack streams feeding a rack-level aggregator
};
inline constexpr std::size_t kNumTrafficClasses = 4;
const char* traffic_class_name(TrafficClass c);

// Typed failure for traffic touching a crashed node: thrown by transport
// calls whose source or destination is dead at initiation time. Callers
// choose a policy — retry with backoff (transient-failure protocols, DFS
// pipelines), drop (shuffle output to a partition being reassigned), or
// propagate (protocol bugs).
class NodeDownError : public util::Error {
 public:
  explicit NodeDownError(int node)
      : util::Error("node " + std::to_string(node) + " is down"),
        node_(node) {}
  int node() const { return node_; }

 private:
  int node_;
};

// Timeout/backoff schedule for retry_send/retry_transfer: `attempts` total
// tries, sleeping backoff_s, backoff_s*multiplier, ... between them. The
// happy path performs no extra awaits; backoff delays only materialize
// after a typed failure.
struct RetryPolicy {
  int attempts = 3;
  double backoff_s = 1e-3;
  double multiplier = 2.0;
};

class Transport {
 public:
  explicit Transport(Fabric& fabric);

  Fabric& fabric() { return fabric_; }

  // Delivers `payload` to (dst, port), accounted under `tc`. Blocks on the
  // stream's credit window when flow control is enabled. Throws
  // NodeDownError when src or dst is dead at initiation (operations already
  // in flight at a crash complete; new ones fail). `tags` ride out-of-band
  // on the delivered Message::tags: they cost zero wire bytes and are not
  // counted by the byte accounting below.
  sim::Task<> send(int src, int dst, int port, TrafficClass tc,
                   util::Bytes payload, std::vector<std::uint64_t> tags = {});

  // send() for fire-and-forget pushes: when src or dst is dead at
  // initiation the message is dropped instead of throwing NodeDownError (a
  // crash raced the send; recovery regenerates or re-sends the data if it
  // mattered). Otherwise identical to send(), with the same awaits.
  sim::Task<> send_or_drop(int src, int dst, int port, TrafficClass tc,
                           util::Bytes payload,
                           std::vector<std::uint64_t> tags);

  // Charges the wire cost of `bytes` without delivering a payload (the real
  // bytes are tracked by a higher layer, e.g. the filesystem). Holds credit
  // for the duration of the transfer when flow control is enabled. Throws
  // NodeDownError like send().
  sim::Task<> transfer(int src, int dst, int port, TrafficClass tc,
                       std::uint64_t bytes);

  // transfer() with timeout/backoff retry: NodeDownError is swallowed and
  // retried per `policy`; the last failure is rethrown. Used by protocols
  // that may race a crash with a restart (DFS re-replication pipelines).
  sim::Task<> retry_transfer(int src, int dst, int port, TrafficClass tc,
                             std::uint64_t bytes, RetryPolicy policy = {});

  // End-of-stream from src on (dst, port): one 4-byte control frame.
  // Receivers expect exactly one per sender. Also clears `src` from the
  // stream's expected-sender registry (see expect_senders).
  sim::Task<> finish(int src, int dst, int port);

  // --- crash compensation (JobTracker-style death detection) ---
  //
  // A Receiver blocks until every expected sender delivered EOS; a sender
  // that crashes mid-stream would therefore hang its receivers. The job
  // layer registers who is expected on each stream, and on a crash asks the
  // transport to inject the missing EOS frames on the dead node's behalf —
  // the simulated analogue of a JobTracker timing out the TaskTracker and
  // telling reducers to stop waiting. Injected frames are metadata: they
  // cost no wire time and are not accounted (nothing crossed the network).

  // Declares that `senders` will each deliver one EOS on (dst, port).
  void expect_senders(int dst, int port, const std::vector<int>& senders);

  // Injects EOS on behalf of `dead` into every registered stream still
  // expecting it (skipping streams whose receiver node is dead too).
  // Callers delay this behind a detection timeout so the dead node's
  // in-flight data drains first, as a real failure detector would.
  sim::Task<> compensate_crash(int dead);

  // End-of-job teardown: drops the expected-sender records whose port lies
  // in [port_lo, port_hi) — the job's port window — without erasing
  // registrations concurrent jobs still rely on for crash compensation.
  void clear_expected(int port_lo, int port_hi);

  // Consumes data messages from (node, port) until `expected_eos` senders
  // finished. Returns credits to the flow-control window as it consumes.
  class Receiver {
   public:
    Receiver(Transport& transport, int node, int port, int expected_eos);

    // Next data message, or nullopt once every expected sender sent EOS (or
    // the port was force-closed). At end-of-stream the drained inbox is
    // released from the fabric, so ports are reusable across jobs. Calling
    // recv() again after it returned nullopt is a protocol bug and aborts.
    sim::Task<std::optional<Message>> recv();

    int eos_seen() const { return eos_; }
    bool done() const { return done_; }

   private:
    Transport* transport_;
    int node_;
    int port_;
    int expected_;
    int eos_ = 0;
    bool done_ = false;
  };
  Receiver receiver(int node, int port, int expected_eos) {
    return Receiver(*this, node, port, expected_eos);
  }

  // --- accounting (remote traffic only) ---
  std::uint64_t bytes_sent(int node, TrafficClass tc) const;
  std::uint64_t messages_sent(int node, TrafficClass tc) const;
  std::uint64_t total_bytes(TrafficClass tc) const;
  std::uint64_t port_bytes(int port) const;
  std::uint64_t port_messages(int port) const;

 private:
  struct Counter {
    std::uint64_t bytes = 0;
    std::uint64_t msgs = 0;
  };

  // The one coroutine behind send() and send_or_drop().
  sim::Task<> deliver(int src, int dst, int port, TrafficClass tc,
                      util::Bytes payload, std::vector<std::uint64_t> tags,
                      bool drop_if_down);
  void account(int src, int dst, int port, TrafficClass tc,
               std::uint64_t bytes);
  // Credit window for one stream; null when flow control is off.
  sim::Resource* credits(int src, int dst, int port);
  std::int64_t credit_units(std::uint64_t bytes) const;

  void check_alive(int src, int dst) const;

  Fabric& fabric_;
  std::vector<std::array<Counter, kNumTrafficClasses>> per_node_;
  std::map<int, Counter> per_port_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<sim::Resource>> credits_;
  // (dst, port) -> senders whose EOS is still outstanding. Ordered map so
  // crash compensation walks streams deterministically.
  std::map<std::pair<int, int>, std::set<int>> expected_;
};

}  // namespace gw::net

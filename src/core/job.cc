#include "core/job.h"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/combine.h"
#include "core/intermediate.h"
#include "core/memory.h"
#include "gwdfs/pinned.h"
#include "simnet/transport.h"
#include "util/error.h"

namespace gw::core {

namespace {

// JobTracker-style failure-detection timeout: synthetic EOS frames for a
// dead sender are injected this long after the crash, giving the dead
// node's in-flight wire traffic time to drain.
constexpr double kCrashDetectionDelayS = 20e-3;
// Safety valve for pathological crash schedules: recovery rounds one job
// may run before it aborts.
constexpr int kMaxRecoveryRounds = 8;

// Job-wide fault-tolerance state shared by every node's coroutine and the
// crash listener. The simulation is single-threaded, so plain members
// suffice. Apart from the completion barrier everything here is host-side
// bookkeeping; on a crash-free run it changes no simulated result.
struct JobShared {
  std::vector<int> owner;  // global partition -> owning node
  int crash_epoch = 0;     // bumped once per node death
  std::set<int> failed;    // nodes that ever crashed (restarts stay out)
  // Per recovery round (== crash epoch that created it):
  std::map<int, std::vector<int>> round_participants;  // job-live at creation
  std::map<int, std::vector<int>> reassigned;          // partitions moved
  // EOS frames initiated on a round's port, recorded synchronously at
  // initiation. A node entering a round late uses this to count frames
  // already on the wire from senders that have died since (a real frame and
  // a compensated one for the same sender would otherwise double-deliver).
  std::map<int, std::set<std::pair<int, int>>> eos_sent;  // round -> (src,dst)
  // Which node's death created each round (rack-mode recovery needs to know
  // whether a rack lost its aggregator).
  std::map<int, int> crashed_node;
  std::set<int> rounds_entered;
  std::uint64_t partitions_reassigned = 0;

  // Completion barrier: a finished node parks instead of exiting, because a
  // later crash (e.g. during another node's reduce) can hand it new work.
  std::set<int> done_nodes;
  std::unique_ptr<sim::Event> park;  // replaced on every wake-up
  bool job_complete = false;

  // Preemption: set by any node that skipped remaining reduce work at a
  // task boundary because a suspend was requested. Distinguishes a genuine
  // suspension from a request that raced job completion.
  bool preempt_incomplete = false;

  bool job_live(const sim::Simulation& sim, int n) const {
    return sim.node_alive(n) && failed.count(n) == 0;
  }
};

// Per-node mutable state for one job run.
struct NodeRun {
  // The job's own governor; null when the scheduler shares one per node.
  std::unique_ptr<MemoryGovernor> governor;
  std::unique_ptr<IntermediateStore> store;
  MapMetrics map;
  ReduceMetrics reduce;
  std::unique_ptr<sim::Event> shuffle_done;
  trace::TrackRef phase_track;
  // Hierarchical combining (combine_mode != kOff): the map-tier combiner,
  // and on rack-aggregator nodes the rack-tier one.
  std::unique_ptr<NodeCombiner> combiner;
  std::unique_ptr<NodeCombiner> rack_combiner;
  MapOutputLedger ledger;  // populated only when the ledger is armed
  int handled_epoch = 0;   // recovery rounds this node has executed
  std::set<int> reduced;   // global partitions this node already reduced
};

sim::Task<> shuffle_receiver(NodeContext ctx, int port, int expected,
                             sim::Event& done) {
  // Every expected sender announces end-of-stream with a transport EOS
  // frame; the receiver resolves once all of them arrived and the inbox
  // drained, then the port is released for reuse.
  net::Transport::Receiver rx =
      ctx.platform->transport().receiver(ctx.node_id, port, expected);
  for (;;) {
    auto msg = co_await rx.recv();
    if (!msg) break;
    // One frame everywhere (send_run): u32 g | run, tags out-of-band.
    const int g = shuffle_frame_partition(msg->payload);
    // Drop zombie/stale deliveries: a dead node's store is never reduced
    // (and feeding it would initiate new cache-flush work on a dead
    // machine). A live node always still owns what was routed to it —
    // ownership only ever moves off dead nodes.
    if (!ctx.self_live() || ctx.owner_of(g) != ctx.node_id) continue;
    co_await ctx.store->add_run(g, adopt_shuffle_frame(std::move(msg->payload)),
                                std::move(msg->tags));
  }
  done.set();
}

sim::Task<> broadcast_eos(NodeContext ctx, JobShared& shared, int port,
                          std::vector<int> dsts,
                          std::set<std::pair<int, int>>* sent);

// Rack-tier aggregation (CombineMode::kRack, aggregator nodes only):
// consumes the rack members' combined streams on kPortRackAgg, re-combines
// per partition, and forwards one consolidated stream to the partition
// owners across the core switch. Closes the aggregated stream toward every
// extra-rack node when done (members' streams were closed by their own
// member EOS; a dead aggregator's closures are crash-compensated instead).
sim::Task<> rack_aggregator(NodeContext ctx, JobShared& shared,
                            NodeCombiner& agg, RackTopology topo) {
  net::Transport::Receiver rx = ctx.platform->transport().receiver(
      ctx.node_id, ctx.port_base + net::kPortRackAgg,
      topo.members_of(topo.rack_of(ctx.node_id)));
  for (;;) {
    auto msg = co_await rx.recv();
    if (!msg) break;
    if (!ctx.self_live()) continue;  // zombie: drain the stream only
    const int g = shuffle_frame_partition(msg->payload);
    co_await agg.add(g, std::move(msg->tags),
                     adopt_shuffle_frame(std::move(msg->payload)));
  }
  if (ctx.self_live()) {
    co_await agg.drain();
  } else {
    agg.discard();  // a dead aggregator's staged data died with it
  }
  std::vector<int> extra;
  for (int n = 0; n < ctx.num_nodes; ++n) {
    if (!topo.same_rack(n, ctx.node_id)) extra.push_back(n);
  }
  co_await broadcast_eos(ctx, shared, ctx.port_base + net::kPortShuffle,
                         extra, nullptr);
}

// EOS broadcast with crash guards. Dead destinations are skipped (crash
// compensation stands in for their frames) and a sender that died stops
// initiating; `sent` (round ports) records each initiation for late round
// entrants. With every node alive this performs exactly the legacy awaits.
sim::Task<> broadcast_eos(NodeContext ctx, JobShared& shared, int port,
                          std::vector<int> dsts,
                          std::set<std::pair<int, int>>* sent) {
  auto& sim = ctx.sim();
  for (int dst : dsts) {
    if (!ctx.self_live()) break;
    if (!shared.job_live(sim, dst)) continue;
    if (sent != nullptr) sent->insert({ctx.node_id, dst});
    co_await ctx.platform->transport().finish(ctx.node_id, dst, port);
  }
}

// Re-feeds this node's durable map output for `partitions` from `ledger`:
// one sequential read of their runs back from local disk, then every run,
// under its original dedup tag, enters the local store if this node owns
// the partition and is re-sent (send_run on ctx.shuffle_port, spawned into
// `sends`, counted in `m`) to the owner otherwise. A non-null
// `record_into` re-records each run, so a resumed residency's fresh ledger
// keeps full provenance for a later suspension or crash.
sim::Task<> replay_ledger(NodeContext ctx, const MapOutputLedger& ledger,
                          std::vector<int> partitions, MapMetrics& m,
                          sim::TaskGroup& sends,
                          MapOutputLedger* record_into) {
  std::uint64_t bytes = 0;
  for (int g : partitions) {
    const auto it = ledger.runs.find(g);
    if (it == ledger.runs.end()) continue;
    for (const auto& [tag, run] : it->second) bytes += run.stored_bytes();
  }
  if (bytes == 0 || !ctx.self_live()) co_return;
  co_await ctx.node->disk_stream_read(bytes,
                                      cluster::Node::amortized_seek(bytes));
  for (int g : partitions) {
    const auto it = ledger.runs.find(g);
    if (it == ledger.runs.end()) continue;
    if (!ctx.self_live()) break;
    const int dest = ctx.owner_of(g);
    for (const auto& [tag, run] : it->second) {
      if (record_into != nullptr) record_into->record(g, tag, run);
      std::vector<std::uint64_t> tags(1, tag);
      if (dest == ctx.node_id) {
        co_await ctx.store->add_run(g, run, std::move(tags));
      } else {
        m.shuffle_bytes_remote +=
            send_run(ctx, sends, dest, ctx.shuffle_port,
                     net::TrafficClass::kShuffle, g, Run(run),
                     std::move(tags));
      }
    }
  }
}

// Executes every recovery round this node has not handled yet (§III-E).
// Round r (== the r-th crash) re-runs, on the survivors, the map work whose
// durable output died with the crashed node, and re-feeds the partitions
// reassigned off it from the survivors' durable-output ledgers. Each round
// is a miniature map+shuffle+merge on its own port, so its traffic cannot
// be confused with the original shuffle or with other rounds.
sim::Task<> run_recovery_rounds(NodeContext ctx, SplitScheduler& scheduler,
                                NodeRun& state, JobShared& shared,
                                cl::Device* map_device) {
  auto& sim = ctx.sim();
  auto& tr = sim.tracer();
  net::Transport& tp = ctx.platform->transport();
  const JobConfig& cfg = *ctx.config;
  const auto rec_name = tr.intern(ctx.scoped("phase.recovery"));

  while (state.handled_epoch < shared.crash_epoch) {
    if (!ctx.self_live()) co_return;
    const int round = ++state.handled_epoch;
    GW_CHECK_MSG(round <= kMaxRecoveryRounds,
                 "recovery exceeded the recovery-round limit");
    shared.rounds_entered.insert(round);
    const int port = ctx.port_base + net::kPortRecoveryBase + round;
    const std::vector<int>& participants = shared.round_participants[round];
    auto& sent = shared.eos_sent[round];

    // Expected senders on the round port: peers still in the job (their EOS
    // will arrive, or compensation injects it if they die — we register
    // before any of them can crash again), plus now-dead peers whose EOS to
    // us was already initiated before they died (the frame is on the wire).
    // Peers that died without initiating one are not expected and never
    // registered, so compensation cannot double-inject for them.
    int expected = 0;
    std::vector<int> registry;
    for (int p : participants) {
      if (sent.count({p, ctx.node_id}) > 0) {
        ++expected;
      } else if (shared.job_live(sim, p)) {
        registry.push_back(p);
        ++expected;
      }
    }
    tp.expect_senders(ctx.node_id, port, registry);

    tr.begin(state.phase_track, trace::Kind::kRecovery, rec_name, sim.now(),
             static_cast<std::uint64_t>(round));
    ctx.store->reopen();
    ctx.store->start_mergers();
    sim::Event rx_done(sim);

    NodeContext rctx = ctx;
    rctx.recovery = true;
    rctx.shuffle_port = port;
    rctx.device = map_device;
    // Recovery traffic is never combined: replayed runs travel individually
    // under their original dedup tags so the destinations' tag sets decide
    // exactly which constituents already arrived inside combined runs.
    rctx.combiner = nullptr;
    sim.spawn(shuffle_receiver(rctx, port, expected, rx_done));

    // Re-execute lost splits: regenerates the dead node's contributions to
    // every partition (byte-identical runs under the original dedup tags).
    co_await run_map_phase(rctx, scheduler, state.map);

    // Re-feed the reassigned partitions from the durable-output ledger: our
    // own past contributions for every partition moved this round, re-read
    // from local disk and re-sent to the new owner (no map re-execution).
    const std::vector<int>& moved = shared.reassigned[round];
    sim::TaskGroup sends(sim);
    co_await replay_ledger(rctx, state.ledger, moved, state.map, sends,
                           nullptr);

    // Rack mode: if this round's crash took our rack's aggregator, any of
    // our extra-rack contributions still staged in (or in flight to) it
    // died too. Re-send our ledger runs for every partition currently owned
    // outside the rack, individually on the round port — per-tag dedup at
    // the destinations drops whatever the aggregator already forwarded.
    // Partitions reassigned this round were already re-fed above.
    if (cfg.combine_mode == CombineMode::kRack) {
      RackTopology topo{ctx.platform->fabric().profile().rack_size,
                        ctx.num_nodes};
      const auto dead_it = shared.crashed_node.find(round);
      if (dead_it != shared.crashed_node.end() &&
          dead_it->second == topo.aggregator_of(topo.rack_of(ctx.node_id))) {
        std::vector<int> extra_rack;
        for (const auto& [g, entries] : state.ledger.runs) {
          if (topo.same_rack(rctx.owner_of(g), ctx.node_id)) continue;
          if (std::binary_search(moved.begin(), moved.end(), g)) continue;
          extra_rack.push_back(g);
        }
        co_await replay_ledger(rctx, state.ledger, std::move(extra_rack),
                               state.map, sends, nullptr);
      }
    }
    co_await sends.wait();

    co_await broadcast_eos(rctx, shared, port, participants, &sent);
    co_await rx_done.wait();
    co_await ctx.store->drain();
    tr.end(state.phase_track, trace::Kind::kRecovery, rec_name, sim.now(),
           static_cast<std::uint64_t>(round));
  }
}

sim::Task<> node_main(NodeContext ctx, cl::Device* map_device,
                      cl::Device* reduce_device, SplitScheduler& scheduler,
                      NodeRun& state, JobShared& shared) {
  auto& sim = ctx.sim();
  auto& tr = sim.tracer();
  const JobConfig& cfg = *ctx.config;
  const auto t = state.phase_track;
  const auto map_name = tr.intern(ctx.scoped("phase.map"));
  const auto merge_name = tr.intern(ctx.scoped("phase.merge"));
  const auto reduce_name = tr.intern(ctx.scoped("phase.reduce"));
  const int shuffle_port = ctx.port_base + net::kPortShuffle;
  const int rack_agg_port = ctx.port_base + net::kPortRackAgg;
  ctx.store->start_mergers();

  // Rack mode reshapes the main-port streams: a node hears from its own
  // rack's members plus the other racks' aggregators (one consolidated
  // stream per foreign rack) instead of from everyone.
  const bool rack_mode = cfg.combine_mode == CombineMode::kRack;
  RackTopology topo;
  if (rack_mode) {
    topo.rack_size = ctx.platform->fabric().profile().rack_size;
    topo.num_nodes = ctx.num_nodes;
  }
  // Expect one EOS per node alive at job start (all of them, normally; a
  // DAG round after an unrecovered inter-round crash runs degraded and the
  // dead nodes never open a stream).
  int expected = 0;
  for (int n = 0; n < ctx.num_nodes; ++n) {
    if (shared.job_live(sim, n)) ++expected;
  }
  if (rack_mode) {
    expected = topo.members_of(topo.rack_of(ctx.node_id)) + topo.num_racks() - 1;
  }
  sim.spawn(
      shuffle_receiver(ctx, shuffle_port, expected, *state.shuffle_done));
  if (state.rack_combiner != nullptr) {
    sim.spawn(rack_aggregator(ctx, shared, *state.rack_combiner, topo));
  }

  // Multi-tenant slot gate: at most `capacity` resident jobs run their map
  // phase on this node at once (FIFO, deterministic). Held through the EOS
  // broadcast — the phase's sends are on the wire by then — and released
  // BEFORE the merge wait, which depends on OTHER nodes' map phases and
  // must not hold a slot while it blocks (deadlock-free by construction:
  // receivers and mergers are never slot-gated).
  sim::Resource::Hold map_slot;
  if (ctx.map_slot != nullptr && !ctx.elastic_slots) {
    // Elastic mode skips the phase-wide hold: the pipeline acquires one
    // slot per split instead, so the scheduler can grow/shrink the job's
    // share at task boundaries mid-phase.
    map_slot = co_await ctx.map_slot->acquire();
  }

  tr.begin(t, trace::Kind::kPhase, map_name, sim.now());
  if (ctx.resume_ledger != nullptr) {
    // Resumed residency (checkpoint-based preemption): re-feed every
    // durable run of the previous residency over the main shuffle port, so
    // the fresh stores end up holding the union of replayed and freshly
    // mapped runs, and re-record them into the new ledger.
    std::vector<int> partitions;
    for (const auto& [g, entries] : ctx.resume_ledger->runs) {
      partitions.push_back(g);
    }
    sim::TaskGroup refeed_sends(sim);
    co_await replay_ledger(ctx, *ctx.resume_ledger, std::move(partitions),
                           state.map, refeed_sends, ctx.ledger);
    co_await refeed_sends.wait();
  }
  ctx.combiner = state.combiner.get();
  co_await run_map_phase(ctx, scheduler, state.map);
  ctx.combiner = nullptr;
  tr.end(t, trace::Kind::kPhase, map_name, sim.now());
  tr.begin(t, trace::Kind::kPhase, merge_name, sim.now());

  // Map phase done on this node: tell every destination we stream to
  // directly that no more intermediate data will arrive from here. Flat
  // modes stream to everyone; rack mode streams to the own-rack members on
  // the main port plus the own-rack aggregator on the rack-agg port (the
  // aggregator closes the extra-rack streams itself once all member EOS
  // arrived and its consolidated output is flushed).
  std::vector<int> dsts;
  if (rack_mode) {
    const int rack = topo.rack_of(ctx.node_id);
    for (int i = 0; i < topo.members_of(rack); ++i) {
      dsts.push_back(topo.aggregator_of(rack) + i);
    }
  } else {
    for (int dst = 0; dst < ctx.num_nodes; ++dst) dsts.push_back(dst);
  }
  co_await broadcast_eos(ctx, shared, shuffle_port, dsts, nullptr);
  if (rack_mode) {
    const std::vector<int> agg(
        1, topo.aggregator_of(topo.rack_of(ctx.node_id)));
    co_await broadcast_eos(ctx, shared, rack_agg_port, agg, nullptr);
  }
  map_slot.release();

  // Merge phase: continues until all remote data arrived and the merger
  // threads consolidated every partition (§III: "After the merge phase
  // completes, the reduce phase is started"). A dead node's receiver is
  // resolved by crash compensation, so even a zombie drains and exits.
  co_await state.shuffle_done->wait();
  co_await ctx.store->drain();
  tr.end(t, trace::Kind::kPhase, merge_name, sim.now());

  // Recover-then-reduce until the job is globally complete. Each pass
  // reduces the owned partitions that have no output yet; a crash during
  // anyone's reduce re-enters the loop.
  for (;;) {
    if (!ctx.self_live()) co_return;
    co_await run_recovery_rounds(ctx, scheduler, state, shared, map_device);
    if (!ctx.self_live()) co_return;
    std::vector<int> todo;
    for (int g = 0; g < ctx.total_partitions; ++g) {
      if (shared.owner[static_cast<std::size_t>(g)] != ctx.node_id) continue;
      if (state.reduced.count(g) > 0) continue;
      // A partition whose file was committed before its owner died (or
      // before a suspension) needs no re-reduction: DFS output survives
      // crashes via replication.
      if (ctx.fs->exists(partition_output_path(cfg, g))) continue;
      todo.push_back(g);
    }
    if (!todo.empty()) {
      ctx.device = reduce_device;
      const bool task_gated = ctx.elastic_slots && ctx.reduce_slot != nullptr;
      sim::Resource::Hold reduce_slot;
      if (ctx.reduce_slot != nullptr && !task_gated) {
        reduce_slot = co_await ctx.reduce_slot->acquire();
      }
      tr.begin(t, trace::Kind::kPhase, reduce_name, sim.now());
      if (ctx.preempt != nullptr || task_gated) {
        // Task-granularity reduce: one partition per pass, so a preemption
        // request takes effect at the next partition boundary and elastic
        // slots gate individual reduce tasks. Per-partition output bytes
        // depend only on that partition's runs, so splitting the batch
        // never changes what is written.
        for (std::size_t i = 0; i < todo.size(); ++i) {
          if (ctx.preempt_requested()) {
            shared.preempt_incomplete = true;
            break;
          }
          sim::Resource::Hold task_slot;
          if (task_gated) task_slot = co_await ctx.reduce_slot->acquire();
          std::vector<int> one(1, todo[i]);
          co_await run_reduce_phase(ctx, one, state.reduce);
          state.reduced.insert(todo[i]);
        }
      } else {
        co_await run_reduce_phase(ctx, todo, state.reduce);
        for (int g : todo) state.reduced.insert(g);
      }
      tr.end(t, trace::Kind::kPhase, reduce_name, sim.now());
    }
    if (state.handled_epoch < shared.crash_epoch) continue;

    // Done for now — but a later crash can reassign partitions to this
    // node, so park on the completion barrier instead of exiting. The last
    // node to finish releases everyone; a crash wakes everyone back up.
    shared.done_nodes.insert(ctx.node_id);
    int live = 0;
    for (int n = 0; n < ctx.num_nodes; ++n) {
      if (shared.job_live(sim, n)) ++live;
    }
    if (static_cast<int>(shared.done_nodes.size()) >= live) {
      shared.job_complete = true;
      shared.park->set();
      co_return;
    }
    co_await shared.park->wait();
    if (shared.job_complete) co_return;
    shared.done_nodes.erase(ctx.node_id);  // woken by a crash: back to work
  }
}

// Everything one job execution owns: the state run_async's setup, marks
// and result assembly share.
struct JobExec {
  cluster::Platform& platform;
  dfs::FileSystem& fs;
  std::vector<std::unique_ptr<cl::Device>>& map_devices;
  std::vector<std::unique_ptr<cl::Device>>& reduce_devices;
  AppKernels app;     // normalized copy (partitioner default, combine gating)
  JobConfig config;   // normalized copy
  const JobEnv& env;  // port window, trace scope, shared slots/governors
  sim::Simulation& sim;
  net::Transport& tp;

  dfs::FileSystem* base_fs = nullptr;
  dfs::Dfs* hdfs = nullptr;
  int num_nodes = 0;
  int total_partitions = 0;
  double start = 0;
  // The durable-output ledger is recorded: a crash can reach the job or the
  // job can be suspended (see MapOutputLedger).
  bool ledger_armed = false;
  int rack_size = 0;
  std::vector<int> start_live;
  bool degraded = false;
  std::uint64_t net_shuffle0 = 0;
  std::uint64_t net_dfs0 = 0;
  std::uint64_t net_control0 = 0;
  std::uint64_t net_rack_agg0 = 0;
  std::uint64_t dfs_lost0 = 0;
  std::uint64_t dfs_rerep0 = 0;
  std::optional<SplitScheduler> scheduler;
  JobShared shared;
  bool resuming = false;              // previous residency was suspended
  bool combine_degraded = false;      // requested combining forced weaker
  int listener_id = -1;
  std::vector<int> crash_ids;  // this job's config.crash_events, scheduled
  trace::TrackRef job_track;
  std::int32_t job_name = -1;
  std::int32_t round_name = -1;
  std::vector<NodeRun> nodes;
  sim::TaskGroup all;

  JobExec(cluster::Platform& platform_in, dfs::FileSystem& fs_in,
          std::vector<std::unique_ptr<cl::Device>>& map_devices_in,
          std::vector<std::unique_ptr<cl::Device>>& reduce_devices_in,
          AppKernels app_in, JobConfig config_in, const JobEnv& env_in)
      : platform(platform_in), fs(fs_in), map_devices(map_devices_in),
        reduce_devices(reduce_devices_in), app(std::move(app_in)),
        config(std::move(config_in)), env(env_in), sim(platform_in.sim()),
        tp(platform_in.transport()), all(platform_in.sim()) {}

  // The job's private port for a well-known service.
  int port(int p) const { return env.port_base + p; }
  // Job-scoped trace name ("phase.map" -> "j3.phase.map" under a scope).
  std::string scoped(const char* name) const {
    return env.trace_scope + name;
  }

  void setup();
  void finish_marks();
  JobResult finalize();
  // True when a preemption request left work behind: undispensed splits,
  // splits awaiting re-execution, or reduce partitions skipped at a task
  // boundary. Distinguishes a suspension from a request racing completion.
  bool incomplete() const {
    return scheduler->remaining() > 0 || scheduler->has_lost() ||
           shared.preempt_incomplete;
  }
  void capture_suspension(JobResult& result);
};

// Accumulates the pure-counter fields of `from` into `into` (sums; maxima
// for the two high-water marks). Used to carry a suspended job's stats
// across residencies — the occupancy-derived stage breakdown needs no merge
// because scheduled jobs never clear the tracer, so scoped accumulators
// already span every residency.
void add_counters(JobStats& into, const JobStats& from) {
  into.map_task_retries += from.map_task_retries;
  into.reduce_task_retries += from.reduce_task_retries;
  into.tasks_reexecuted += from.tasks_reexecuted;
  into.partitions_reassigned += from.partitions_reassigned;
  into.blocks_rereplicated += from.blocks_rereplicated;
  into.dfs_replicas_lost += from.dfs_replicas_lost;
  into.recovery_rounds += from.recovery_rounds;
  into.duplicate_runs_dropped += from.duplicate_runs_dropped;
  into.speculative_wins += from.speculative_wins;
  into.speculative_losses += from.speculative_losses;
  into.input_splits_lost += from.input_splits_lost;
  into.input_records += from.input_records;
  into.intermediate_pairs += from.intermediate_pairs;
  into.intermediate_bytes += from.intermediate_bytes;
  into.intermediate_stored += from.intermediate_stored;
  into.output_pairs += from.output_pairs;
  into.shuffle_bytes_remote += from.shuffle_bytes_remote;
  into.net_shuffle_bytes += from.net_shuffle_bytes;
  into.net_dfs_bytes += from.net_dfs_bytes;
  into.net_control_bytes += from.net_control_bytes;
  into.net_rack_agg_bytes += from.net_rack_agg_bytes;
  into.combine_in_bytes += from.combine_in_bytes;
  into.combine_out_bytes += from.combine_out_bytes;
  into.spills += from.spills;
  into.merges += from.merges;
  into.spill_bytes += from.spill_bytes;
  into.merge_levels = std::max(into.merge_levels, from.merge_levels);
  into.peak_mem_bytes = std::max(into.peak_mem_bytes, from.peak_mem_bytes);
  into.mem_stall_seconds += from.mem_stall_seconds;
  into.merge_fanin_runs += from.merge_fanin_runs;
  into.hash_table_probes += from.hash_table_probes;
  into.map_kernel += from.map_kernel;
  into.reduce_kernel += from.reduce_kernel;
}

void JobExec::setup() {
  GW_CHECK_MSG(static_cast<bool>(app.map), "job needs a map function");
  GW_CHECK_MSG(!config.input_paths.empty(), "job needs input paths");
  GW_CHECK_MSG(!config.output_path.empty(), "job needs an output path");
  GW_CHECK_MSG(config.partitions_per_node >= 1,
               "job needs at least one partition per node");

  if (!app.partition) {
    app.partition = default_hash_partitioner();
  }
  // The combiner is only available with the hash-table collector (§III-F).
  if (config.output_mode != OutputMode::kHashTable ||
      !app.combine.has_value()) {
    config.use_combiner = false;
  }
  // Hierarchical combining needs an app combiner with the declared
  // associativity contract. Speculation is incompatible: a straggler clone
  // regenerates a tagged run on a different node, whose combiner may group
  // it with different partners — the destination would see a partial
  // overlap with an already-stored combined run.
  if (config.combine_mode != CombineMode::kOff &&
      (!app.combine.has_value() || !app.combine_associative ||
       config.speculate)) {
    config.combine_mode = CombineMode::kOff;
  }
  // Environment-forced combine degradations below are SURFACED via
  // JobResult::combine_degraded (and from there the scheduler's per-job
  // record + sched: line): the job asked for a combine tier its execution
  // environment cannot honour. The capability gates above are not
  // degradations — the request itself was unsatisfiable by the app.
  const CombineMode requested_combine = config.combine_mode;
  // Rack aggregation needs rack structure to exploit; otherwise degrade to
  // the node tier, which is the same data path minus the aggregator hop.
  rack_size = platform.fabric().profile().rack_size;
  if (config.combine_mode == CombineMode::kRack &&
      (rack_size <= 0 || platform.num_nodes() <= rack_size)) {
    config.combine_mode = CombineMode::kNode;
  }
  // Scheduler-shared governors carve no combine pool (their budget split is
  // fixed before the tenant mix is known), so combining degrades off rather
  // than drawing from a pool that was never funded.
  if (!env.governors.empty()) {
    config.combine_mode = CombineMode::kOff;
  }
  // Preemptable jobs do not combine: no test yet checks that a resumed
  // residency with combining on produces byte-identical output.
  if (env.preempt != nullptr) {
    config.combine_mode = CombineMode::kOff;
  }
  if (config.combine_mode != requested_combine &&
      requested_combine != CombineMode::kOff) {
    combine_degraded = true;
  }

  // Checkpoint-based preemption handshake (core::Scheduler).
  resuming = env.preempt != nullptr && env.preempt->preemptions > 0;

  // Governed/replication controls reach through the PinnedFs overlay to
  // the real DFS underneath; stats deltas are measured there too.
  base_fs = &fs;
  if (auto* pf = dynamic_cast<dfs::PinnedFs*>(base_fs)) {
    base_fs = &pf->base();
  }
  if (config.output_replication > 0) {
    if (auto* dfs_base = dynamic_cast<dfs::Dfs*>(base_fs)) {
      dfs_base->set_replication(config.output_replication);
    }
  }

  if (env.scheduled()) {
    // Concurrent jobs share one trace: nothing global to clear, and the
    // job's occupancy accumulators are already private via trace_scope.
  } else if (config.dag_round < 0) {
    sim.tracer().clear();  // one job per trace
  } else {
    // DAG round: the trace spans the whole DAG, but per-round stage
    // breakdowns must not accumulate across rounds.
    sim.tracer().reset_occupancy();
  }
  num_nodes = platform.num_nodes();
  total_partitions = num_nodes * config.partitions_per_node;
  start = sim.now();
  ledger_armed = !config.crash_events.empty() || env.expect_crashes ||
                 env.preempt != nullptr;

  // Nodes already dead when the job starts (between DAG rounds, or a job
  // admitted to a shared cluster after another tenant's crash) take no
  // part: their partitions move to the survivors up front, no pipelines
  // are spawned for them, and shuffle streams expect only live senders.
  // With every node alive this block changes nothing.
  for (int n = 0; n < num_nodes; ++n) {
    if (sim.node_alive(n)) start_live.push_back(n);
  }
  GW_CHECK_MSG(!start_live.empty(), "every node is dead at job start");
  degraded = static_cast<int>(start_live.size()) < num_nodes;
  if (degraded) {
    GW_CHECK_MSG(config.dag_round >= 0 || env.scheduled(),
                 "node dead at job start outside a DAG round or scheduler");
    // The combine tiers assume full-mesh membership; a shrunken cluster
    // falls back to the plain shuffle path.
    if (config.combine_mode != CombineMode::kOff) combine_degraded = true;
    config.combine_mode = CombineMode::kOff;
  }

  // Transport counters are cumulative per platform (input staging and
  // concurrent tenants count too); snapshot so the report covers exactly
  // this job. NOTE: under multi-tenancy the network-class deltas cover the
  // job's residency window including neighbours' traffic — per-job wire
  // attribution would need per-port accounting, which port namespacing
  // makes possible (port_bytes) but the legacy fields do not expose.
  net_shuffle0 = tp.total_bytes(net::TrafficClass::kShuffle);
  net_dfs0 = tp.total_bytes(net::TrafficClass::kDfs);
  net_control0 = tp.total_bytes(net::TrafficClass::kControl);
  net_rack_agg0 = tp.total_bytes(net::TrafficClass::kRackAgg);
  hdfs = dynamic_cast<dfs::Dfs*>(base_fs);
  dfs_lost0 = hdfs ? hdfs->replicas_lost() : 0;
  dfs_rerep0 = hdfs ? hdfs->blocks_rereplicated() : 0;

  scheduler.emplace(
      SplitScheduler::make_splits(fs, config.input_paths, config.split_size));
  if (resuming) {
    // Replay map-side progress from the suspended residency: committed
    // splits are never re-dispensed (their output re-enters via the ledger
    // re-feed). A committer that died in between cannot re-feed, so its
    // splits stay fresh and are simply mapped again — the original dedup
    // tags make any overlap harmless.
    for (const auto& [idx, node] : env.preempt->state.committed_splits) {
      if (!sim.node_alive(node)) continue;
      scheduler->restore_commit(idx, node);
    }
  }

  shared.owner.resize(static_cast<std::size_t>(total_partitions));
  for (int g = 0; g < total_partitions; ++g) {
    shared.owner[static_cast<std::size_t>(g)] =
        g / config.partitions_per_node;
  }
  if (degraded) {
    // Start-dead nodes never produce or reduce; round-robin their
    // partitions over the live nodes (ascending ids: deterministic), the
    // same policy the crash listener applies mid-job.
    std::size_t rr = 0;
    for (int g = 0; g < total_partitions; ++g) {
      int& owner = shared.owner[static_cast<std::size_t>(g)];
      if (sim.node_alive(owner)) continue;
      owner = start_live[rr++ % start_live.size()];
    }
    for (int n = 0; n < num_nodes; ++n) {
      if (!sim.node_alive(n)) shared.failed.insert(n);
    }
  }
  shared.park = std::make_unique<sim::Event>(sim);

  // JobTracker bookkeeping: who is expected on every shuffle stream (for
  // crash compensation), the crash listener that reassigns work, and the
  // scheduled crash events themselves.
  if (config.combine_mode == CombineMode::kRack) {
    // Rack mode reshapes the main-port streams: a node hears from its own
    // rack's members plus the other racks' aggregators, and an aggregator
    // additionally hears its members on the rack-agg port.
    const RackTopology topo{rack_size, num_nodes};
    for (int dst = 0; dst < num_nodes; ++dst) {
      const int rack = topo.rack_of(dst);
      std::vector<int> senders;
      for (int i = 0; i < topo.members_of(rack); ++i) {
        senders.push_back(topo.aggregator_of(rack) + i);
      }
      for (int r = 0; r < topo.num_racks(); ++r) {
        if (r != rack) senders.push_back(topo.aggregator_of(r));
      }
      tp.expect_senders(dst, port(net::kPortShuffle), senders);
    }
    for (int r = 0; r < topo.num_racks(); ++r) {
      std::vector<int> members;
      for (int i = 0; i < topo.members_of(r); ++i) {
        members.push_back(topo.aggregator_of(r) + i);
      }
      tp.expect_senders(topo.aggregator_of(r), port(net::kPortRackAgg),
                        members);
    }
  } else {
    // Only nodes alive at job start ever open a stream; dead-at-start
    // nodes are neither senders nor receivers.
    for (int dst : start_live) {
      tp.expect_senders(dst, port(net::kPortShuffle), start_live);
    }
  }
  listener_id = sim.add_crash_listener([this](int node, bool alive) {
    if (alive) return;  // a restarted node only serves as a DFS target
    if (shared.failed.count(node) > 0) return;
    // Recovery re-feeds the partitions moved off the dead node from the
    // survivors' ledgers; an unarmed ledger is empty, so the survivors'
    // runs for those partitions would be silently lost.
    GW_CHECK_MSG(ledger_armed,
                 "node crash reached a job whose durable-output ledger is "
                 "not armed");
    shared.failed.insert(node);
    shared.crash_epoch++;
    const int round = shared.crash_epoch;
    std::vector<int> participants;
    for (int n = 0; n < num_nodes; ++n) {
      if (shared.job_live(sim, n)) participants.push_back(n);
    }
    GW_CHECK_MSG(!participants.empty(), "every node crashed; job is lost");
    // Reassign the dead node's reduce partitions round-robin over the
    // survivors (ascending ids: deterministic).
    auto& moved = shared.reassigned[round];
    std::size_t rr = 0;
    for (int g = 0; g < total_partitions; ++g) {
      if (shared.owner[static_cast<std::size_t>(g)] != node) continue;
      shared.owner[static_cast<std::size_t>(g)] =
          participants[rr++ % participants.size()];
      moved.push_back(g);
    }
    shared.partitions_reassigned += moved.size();
    shared.round_participants[round] = std::move(participants);
    shared.crashed_node[round] = node;
    // Splits the dead node ran or had committed go back for re-execution.
    scheduler->on_crash(node);
    // Failure detection: inject the dead node's missing EOS frames after
    // the detection timeout, once its in-flight wire traffic drained.
    sim.spawn([](sim::Simulation& s, net::Transport& t, int dead,
                 double delay) -> sim::Task<> {
      co_await s.delay(delay);
      co_await t.compensate_crash(dead);
    }(sim, tp, node, kCrashDetectionDelayS));
    // Wake parked finishers: the crash may have handed them new work.
    auto old_park = std::move(shared.park);
    shared.park = std::make_unique<sim::Event>(sim);
    old_park->set();  // waiters already rescheduled; safe to destroy
  });
  for (const auto& e : config.crash_events) {
    GW_CHECK_MSG(e.node >= 0 && e.node < num_nodes,
                 "crash event names an unknown node");
    crash_ids.push_back(
        sim.schedule_node_crash(e.node, e.time, e.restart_time));
  }

  // Job-wide span: the root every recovery event must nest inside. DAG
  // rounds additionally open a kRound span just inside it, so a DAG trace
  // shows one round span per executed job, each nested in its job span.
  // Scheduled jobs put their span on a tenant-labelled track of their own,
  // so concurrent job spans land on distinct tracks and nest cleanly.
  // A resumed (preempted) residency re-registers the same scoped label and
  // must reopen its span on the SAME track, so the timeline shows one row
  // per job across suspensions.
  job_track = sim.tracer().track(0, scoped("job"), /*reuse=*/true);
  job_name = sim.tracer().intern("job");
  round_name = sim.tracer().intern("round");
  sim.tracer().begin(job_track, trace::Kind::kPhase, job_name, sim.now());
  if (config.dag_round >= 0) {
    sim.tracer().begin(job_track, trace::Kind::kRound, round_name, sim.now(),
                       static_cast<std::uint64_t>(config.dag_round));
  }

  nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    NodeRun& state = nodes[static_cast<std::size_t>(n)];
    // A scheduler shares one governor per node across all resident jobs
    // (no per-job mem marks); otherwise the job budgets each node itself.
    if (env.governors.empty()) {
      state.governor = std::make_unique<MemoryGovernor>(
          sim, config.node_memory_bytes,
          /*with_combine_pool=*/config.combine_mode != CombineMode::kOff);
    }
    MemoryGovernor* gov = state.governor != nullptr
                              ? state.governor.get()
                              : env.governors[static_cast<std::size_t>(n)];
    state.store = std::make_unique<IntermediateStore>(platform.node(n), sim,
                                                      config, *gov);
    state.shuffle_done = std::make_unique<sim::Event>(sim);
    state.phase_track = sim.tracer().track(n, scoped("phase"), /*reuse=*/true);

    // Dead-at-start nodes get their bookkeeping state (the stats loop
    // below walks every node) but no pipelines.
    if (!sim.node_alive(n)) continue;

    NodeContext ctx;
    ctx.platform = &platform;
    ctx.node = &platform.node(n);
    ctx.fs = &fs;
    ctx.device = map_devices[static_cast<std::size_t>(n)].get();
    ctx.store = state.store.get();
    ctx.mem = gov;
    ctx.config = &config;
    ctx.app = &app;
    ctx.node_id = n;
    ctx.num_nodes = num_nodes;
    ctx.total_partitions = total_partitions;
    ctx.port_base = env.port_base;
    ctx.trace_scope = env.trace_scope;
    ctx.partition_owner = &shared.owner;
    ctx.shuffle_port = port(net::kPortShuffle);
    ctx.ledger = ledger_armed ? &state.ledger : nullptr;
    ctx.failed_nodes = &shared.failed;
    if (!env.map_slots.empty()) {
      ctx.map_slot = env.map_slots[static_cast<std::size_t>(n)];
    }
    if (!env.reduce_slots.empty()) {
      ctx.reduce_slot = env.reduce_slots[static_cast<std::size_t>(n)];
    }
    ctx.elastic_slots = env.elastic;
    ctx.preempt = env.preempt;
    if (resuming) {
      const std::vector<MapOutputLedger>& ledgers = env.preempt->state.ledgers;
      if (static_cast<std::size_t>(n) < ledgers.size() &&
          !ledgers[static_cast<std::size_t>(n)].runs.empty()) {
        ctx.resume_ledger = &ledgers[static_cast<std::size_t>(n)];
      }
    }
    if (config.combine_mode != CombineMode::kOff) {
      RackTopology topo;  // rack_size 0 = route straight to the owner
      if (config.combine_mode == CombineMode::kRack) {
        topo = RackTopology{rack_size, num_nodes};
      }
      state.combiner = std::make_unique<NodeCombiner>(
          ctx, NodeCombiner::Tier::kMap, topo);
      if (config.combine_mode == CombineMode::kRack &&
          topo.is_aggregator(n)) {
        state.rack_combiner = std::make_unique<NodeCombiner>(
            ctx, NodeCombiner::Tier::kRackAgg, topo);
      }
    }
    all.spawn(node_main(ctx, map_devices[static_cast<std::size_t>(n)].get(),
                        reduce_devices[static_cast<std::size_t>(n)].get(),
                        *scheduler, state, shared));
  }
}

void JobExec::finish_marks() {
  if (config.governed()) {
    // Per-node budget/peak instants (arg = bytes) inside the job span, so
    // trace validators can check budget-respecting peak occupancy. Emitted
    // only under a nonzero budget, so unbounded runs' traces carry none.
    const std::int32_t budget_name = sim.tracer().intern("mem.budget");
    const std::int32_t peak_name = sim.tracer().intern("mem.peak");
    for (int n = 0; n < num_nodes; ++n) {
      const NodeRun& s = nodes[static_cast<std::size_t>(n)];
      if (s.governor == nullptr) continue;
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, budget_name,
                           sim.now(), s.governor->budget_bytes());
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, peak_name,
                           sim.now(), s.governor->peak_bytes());
    }
  }
  if (config.combine_mode != CombineMode::kOff) {
    // Per-node combine-volume instants (arg = bytes) inside the job span,
    // mirroring the governed mem.* marks, so trace validators can check the
    // tiers actually reduced traffic (combine.out <= combine.in).
    const std::int32_t in_name = sim.tracer().intern("combine.in");
    const std::int32_t out_name = sim.tracer().intern("combine.out");
    for (int n = 0; n < num_nodes; ++n) {
      const NodeRun& s = nodes[static_cast<std::size_t>(n)];
      if (s.combiner == nullptr) continue;
      std::uint64_t in = s.combiner->metrics().in_bytes;
      std::uint64_t out = s.combiner->metrics().out_bytes;
      if (s.rack_combiner != nullptr) {
        in += s.rack_combiner->metrics().in_bytes;
        out += s.rack_combiner->metrics().out_bytes;
      }
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, in_name,
                           sim.now(), in);
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, out_name,
                           sim.now(), out);
    }
  }
  if (config.dag_round >= 0) {
    sim.tracer().end(job_track, trace::Kind::kRound, round_name, sim.now(),
                     static_cast<std::uint64_t>(config.dag_round));
  }
  sim.tracer().end(job_track, trace::Kind::kPhase, job_name, sim.now());
}

JobResult JobExec::finalize() {
  JobResult result;
  result.elapsed_seconds = sim.now() - start;
  // Stage breakdown reduces from the trace: each column is the max over
  // nodes of that span's busy occupancy (partition: max over its worker
  // tracks, the paper's Fig 4(a) metric). Names are job-scoped, so a
  // tenant only ever reads its own accumulators.
  const trace::Tracer& tr = sim.tracer();
  double map_end = start, merge_delay = 0, reduce_elapsed = 0;
  for (int n = 0; n < num_nodes; ++n) {
    const NodeRun& s = nodes[static_cast<std::size_t>(n)];
    const trace::Occupancy phase_map = tr.occupancy(n, scoped("phase.map"));
    const trace::Occupancy phase_merge =
        tr.occupancy(n, scoped("phase.merge"));
    const trace::Occupancy phase_reduce =
        tr.occupancy(n, scoped("phase.reduce"));
    map_end = std::max(map_end, phase_map.last_end);
    merge_delay = std::max(merge_delay, phase_merge.busy);
    reduce_elapsed = std::max(reduce_elapsed, phase_reduce.busy);

    result.stages.input = std::max(
        result.stages.input, tr.occupancy(n, scoped("map.input")).busy);
    result.stages.stage = std::max(
        result.stages.stage, tr.occupancy(n, scoped("map.stage")).busy);
    result.stages.kernel = std::max(
        result.stages.kernel, tr.occupancy(n, scoped("map.kernel")).busy);
    result.stages.retrieve = std::max(
        result.stages.retrieve, tr.occupancy(n, scoped("map.retrieve")).busy);
    result.stages.partition =
        std::max(result.stages.partition,
                 tr.occupancy(n, scoped("map.partition")).max_track_busy);
    result.stages.map_elapsed =
        std::max(result.stages.map_elapsed, phase_map.busy);
    result.stages.merge_delay =
        std::max(result.stages.merge_delay, phase_merge.busy);
    result.stages.reduce_input =
        std::max(result.stages.reduce_input,
                 tr.occupancy(n, scoped("reduce.input")).busy);
    result.stages.reduce_stage =
        std::max(result.stages.reduce_stage,
                 tr.occupancy(n, scoped("reduce.stage")).busy);
    result.stages.reduce_kernel =
        std::max(result.stages.reduce_kernel,
                 tr.occupancy(n, scoped("reduce.kernel")).busy);
    result.stages.reduce_retrieve =
        std::max(result.stages.reduce_retrieve,
                 tr.occupancy(n, scoped("reduce.retrieve")).busy);
    result.stages.reduce_output =
        std::max(result.stages.reduce_output,
                 tr.occupancy(n, scoped("reduce.output")).busy);
    result.stages.reduce_elapsed =
        std::max(result.stages.reduce_elapsed, phase_reduce.busy);

    result.stats.input_records += s.map.records;
    result.stats.intermediate_pairs += s.map.pairs;
    result.stats.intermediate_bytes += s.map.intermediate_raw;
    result.stats.intermediate_stored += s.map.intermediate_stored;
    result.stats.shuffle_bytes_remote += s.map.shuffle_bytes_remote;
    result.stats.map_task_retries += s.map.task_failures;
    result.stats.reduce_task_retries += s.reduce.task_failures;
    result.stats.spills += s.store->spills();
    result.stats.merges += s.store->merges();
    result.stats.merge_fanin_runs += s.store->merge_fanin_runs();
    result.stats.spill_bytes += s.store->spill_bytes();
    result.stats.merge_levels =
        std::max(result.stats.merge_levels, s.store->merge_levels());
    if (s.governor != nullptr) {
      result.stats.peak_mem_bytes =
          std::max(result.stats.peak_mem_bytes, s.governor->peak_bytes());
      result.stats.mem_stall_seconds += s.governor->stall_seconds();
    }
    result.stats.duplicate_runs_dropped += s.store->duplicate_runs_dropped();
    if (s.combiner != nullptr) {
      // With combining active the map-tier combiner owns the remote sends,
      // so its framed wire bytes are the node's remote shuffle volume.
      result.stats.shuffle_bytes_remote += s.combiner->metrics().wire_bytes;
      result.stats.combine_in_bytes += s.combiner->metrics().in_bytes;
      result.stats.combine_out_bytes += s.combiner->metrics().out_bytes;
    }
    if (s.rack_combiner != nullptr) {
      result.stats.combine_in_bytes += s.rack_combiner->metrics().in_bytes;
      result.stats.combine_out_bytes += s.rack_combiner->metrics().out_bytes;
    }
    result.stats.hash_table_probes += s.map.hash_probes;
    result.stats.input_splits_lost += s.map.input_splits_lost;
    result.stats.output_pairs += s.reduce.output_pairs;
    result.stats.map_kernel += s.map.kernel_stats;
    result.stats.reduce_kernel += s.reduce.kernel_stats;
    for (const auto& f : s.reduce.output_files) {
      result.output_files.push_back(f);
    }
  }
  result.map_phase_seconds = map_end - start;
  result.merge_delay_seconds = merge_delay;
  result.reduce_phase_seconds = reduce_elapsed;
  result.stats.tasks_reexecuted = scheduler->reexecutions();
  result.stats.speculative_wins = scheduler->speculative_wins();
  result.stats.speculative_losses = scheduler->speculative_losses();
  result.stats.partitions_reassigned = shared.partitions_reassigned;
  result.stats.recovery_rounds = shared.rounds_entered.size();
  result.stats.dfs_replicas_lost =
      hdfs ? hdfs->replicas_lost() - dfs_lost0 : 0;
  result.stats.blocks_rereplicated =
      hdfs ? hdfs->blocks_rereplicated() - dfs_rerep0 : 0;
  result.stats.net_shuffle_bytes =
      tp.total_bytes(net::TrafficClass::kShuffle) - net_shuffle0;
  result.stats.net_dfs_bytes = tp.total_bytes(net::TrafficClass::kDfs) - net_dfs0;
  result.stats.net_control_bytes =
      tp.total_bytes(net::TrafficClass::kControl) - net_control0;
  result.stats.net_rack_agg_bytes =
      tp.total_bytes(net::TrafficClass::kRackAgg) - net_rack_agg0;
  result.combine_degraded = combine_degraded;
  if (resuming) {
    // Fold in the residencies before the suspension: counters add, output
    // files union (a resumed run never re-reduces a committed partition,
    // so there is no overlap), elapsed accumulates residency time only.
    const ResumeState& rs = env.preempt->state;
    add_counters(result.stats, rs.stats);
    for (const auto& f : rs.output_files) result.output_files.push_back(f);
    result.elapsed_seconds += rs.elapsed_s;
  }
  std::sort(result.output_files.begin(), result.output_files.end());
  return result;
}

void JobExec::capture_suspension(JobResult& result) {
  PreemptControl& pc = *env.preempt;
  ResumeState& rs = pc.state;
  // finalize() already folded earlier residencies into `result`, so the
  // checkpoint is a plain snapshot of the cumulative totals.
  rs.committed_splits.clear();
  for (const auto& [idx, node] : scheduler->committed_splits()) {
    rs.committed_splits[idx] = node;
  }
  // Each node's new ledger holds replayed history plus fresh runs; moving
  // it out makes the checkpoint cumulative across any number of
  // suspensions.
  rs.ledgers.assign(static_cast<std::size_t>(num_nodes), MapOutputLedger());
  for (int n = 0; n < num_nodes; ++n) {
    rs.ledgers[static_cast<std::size_t>(n)] =
        std::move(nodes[static_cast<std::size_t>(n)].ledger);
  }
  rs.output_files = result.output_files;
  rs.stats = result.stats;
  rs.elapsed_s = result.elapsed_seconds;
  pc.suspended = true;
  ++pc.preemptions;
  result.suspended = true;
}

}  // namespace

std::vector<std::unique_ptr<cl::Device>> GlasswingRuntime::make_devices(
    const cl::DeviceSpec& spec) {
  std::vector<std::unique_ptr<cl::Device>> devices;
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    sim::Resource* cores = spec.type == cl::DeviceType::kCpu
                               ? &platform_.node(n).host_cores()
                               : nullptr;
    devices.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
  }
  return devices;
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs, cl::DeviceSpec device)
    : platform_(platform), fs_(fs) {
  map_devices_ = make_devices(device);
  reduce_devices_ = make_devices(device);
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs,
                                   cl::DeviceSpec map_device,
                                   cl::DeviceSpec reduce_device)
    : platform_(platform), fs_(fs) {
  map_devices_ = make_devices(map_device);
  reduce_devices_ = make_devices(reduce_device);
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs,
                                   std::vector<cl::DeviceSpec> per_node_devices)
    : platform_(platform), fs_(fs) {
  GW_CHECK_MSG(static_cast<int>(per_node_devices.size()) ==
                   platform_.num_nodes(),
               "one device spec per node required");
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    const cl::DeviceSpec& spec = per_node_devices[static_cast<std::size_t>(n)];
    sim::Resource* cores = spec.type == cl::DeviceType::kCpu
                               ? &platform_.node(n).host_cores()
                               : nullptr;
    map_devices_.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
    reduce_devices_.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
  }
}

JobResult GlasswingRuntime::run(const AppKernels& app, JobConfig config,
                                dfs::FileSystem* fs_override) {
  const JobEnv env;  // port window 0, unscoped trace names
  std::optional<JobResult> result;
  std::exception_ptr failure;
  auto& sim = platform_.sim();
  sim.spawn([](sim::Task<JobResult> job, std::optional<JobResult>* out,
               std::exception_ptr* err) -> sim::Task<> {
    try {
      *out = co_await std::move(job);
    } catch (...) {
      *err = std::current_exception();
    }
  }(run_async(app, std::move(config), env, fs_override), &result, &failure));
  sim.run();
  if (failure) std::rethrow_exception(failure);
  // The event queue draining without the job resolving means a node
  // coroutine is parked forever — a protocol deadlock, not a slow job.
  GW_CHECK_MSG(result.has_value(),
               "job hung: event queue drained with nodes parked");
  platform_.fabric().check_quiesced();
  return std::move(*result);
}

sim::Task<JobResult> GlasswingRuntime::run_async(AppKernels app,
                                                 JobConfig config,
                                                 const JobEnv& env,
                                                 dfs::FileSystem* fs_override) {
  dfs::FileSystem& fs = fs_override != nullptr ? *fs_override : fs_;
  JobExec ex(platform_, fs, map_devices_, reduce_devices_, std::move(app),
             std::move(config), env);
  ex.setup();
  bool failed = false;
  std::string failure;
  try {
    co_await ex.all.wait();
  } catch (const std::exception& e) {
    failed = true;
    failure = e.what();
  }
  // Every node finished: crashes from here on no longer reach the job, and
  // the job's own crashes that have not fired yet are withdrawn, restarts
  // included, so they neither outlive it nor move the clock past its end.
  ex.sim.remove_crash_listener(ex.listener_id);
  for (int id : ex.crash_ids) ex.sim.cancel_node_crash(id);
  ex.finish_marks();
  // Scoped teardown: only this job's port window is touched, so resident
  // neighbours keep their inboxes and expected-sender records. Data in
  // flight to a machine when it died vanishes with it: drop the window's
  // inboxes addressed to crashed nodes (a round port one never got to
  // open). The purge can wake a zombie receiver still parked on a dropped
  // inbox; one zero-delay tick lets it unwind before this frame (the
  // NodeRun state it touches) is destroyed.
  const int lo = env.port_base;
  const int hi = lo + net::kPortJobStride;
  if (!ex.shared.failed.empty()) {
    for (int n : ex.shared.failed) platform_.fabric().purge_node(n, lo, hi);
    co_await ex.sim.delay(0);
  }
  ex.tp.clear_expected(lo, hi);
  if (failed) util::throw_error("job failed: " + failure);
  platform_.fabric().check_quiesced(lo, hi);
  JobResult result = ex.finalize();
  if (env.preempt != nullptr && env.preempt->requested && ex.incomplete()) {
    ex.capture_suspension(result);
  }
  co_return result;
}

}  // namespace gw::core

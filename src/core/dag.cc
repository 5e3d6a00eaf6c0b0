#include "core/dag.h"

#include <utility>

#include "simnet/transport.h"
#include "util/error.h"

namespace gw::core {

namespace {

// Pinned-loss rewinds before the DAG aborts.
constexpr int kMaxReplays = 4;

sim::Task<> read_file_task(dfs::FileSystem& fs, std::string path,
                           util::Bytes* out) {
  // Driver readback from the first block holder (a pinned file reads
  // locally on its host for free; a checkpointed file pays the DFS path).
  *out = co_await fs.read_all(fs.block_locations(path, 0).front(), path);
}

sim::Task<> broadcast_task(cluster::Platform& platform, int src, int port,
                           std::uint64_t bytes) {
  for (int dst = 0; dst < platform.num_nodes(); ++dst) {
    if (dst == src || !platform.sim().node_alive(dst)) continue;
    try {
      co_await platform.transport().transfer(src, dst, port,
                                             net::TrafficClass::kControl,
                                             bytes);
    } catch (const net::NodeDownError&) {
      // A crash raced the broadcast; the dead node never joins the next
      // round, so its missing copy is moot.
    }
  }
}

}  // namespace

JobDag::JobDag(GlasswingRuntime& runtime, cluster::Platform& platform,
               dfs::FileSystem& fs, DagConfig config)
    : runtime_(runtime), platform_(platform), config_(std::move(config)) {
  std::uint64_t budget = config_.pin_budget_bytes;
  if (budget == 0 && config_.base.governed()) {
    // Mirror the memory governor's store share: pinned intermediates live
    // where the intermediate store's run cache would.
    budget = config_.base.node_memory_bytes * 2 / 5;
  }
  pinned_ = std::make_unique<dfs::PinnedFs>(platform_, fs, budget);
  pinned_->set_cache_reads(config_.pin_inputs);
}

void JobDag::add_round(RoundSpec spec) {
  GW_CHECK_MSG(!loop_, "add_round after until()");
  GW_CHECK_MSG(spec.app != nullptr, "DAG round needs an app factory");
  specs_.push_back(std::move(spec));
}

void JobDag::until(ConvergedFn converged, int max_iterations) {
  GW_CHECK_MSG(!specs_.empty(), "until() needs a round to repeat");
  GW_CHECK_MSG(max_iterations > 0, "until() needs a positive iteration cap");
  loop_ = true;
  converged_ = std::move(converged);
  max_iterations_ = max_iterations;
}

bool JobDag::inputs_available(const std::vector<std::string>& paths) const {
  for (const auto& p : paths) {
    if (pinned_->lost(p)) return false;
    if (pinned_->pinned(p)) continue;
    if (!pinned_->exists(p)) return false;
    // A base-fs file can exist in metadata with dead replicas: require a
    // live holder for every block.
    const std::uint64_t size = pinned_->file_size(p);
    const std::uint64_t bs = pinned_->block_size();
    for (std::uint64_t off = 0; off < size; off += bs) {
      if (pinned_->block_locations(p, off / bs).empty()) return false;
    }
  }
  return true;
}

RoundPairs JobDag::read_pairs(const std::vector<std::string>& files) {
  RoundPairs all;
  auto& sim = platform_.sim();
  for (const auto& path : files) {
    util::Bytes contents;
    sim.spawn(read_file_task(*pinned_, path, &contents));
    sim.run();
    auto pairs = read_output_file(contents);
    all.insert(all.end(), std::make_move_iterator(pairs.begin()),
               std::make_move_iterator(pairs.end()));
  }
  return all;
}

void JobDag::broadcast_payload(std::uint64_t bytes) {
  if (bytes == 0) return;
  auto& sim = platform_.sim();
  int src = -1;
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    if (sim.node_alive(n)) {
      src = n;
      break;
    }
  }
  if (src < 0) return;
  // Splitter/centroid broadcasts use port window 0, where run() places
  // every round.
  sim.spawn(broadcast_task(platform_, src,
                           net::kPortJobStride + net::kPortBroadcast, bytes));
  sim.run();
}

void JobDag::fire_edge_crashes(int round, std::vector<bool>& used) {
  auto& sim = platform_.sim();
  bool any = false;
  for (std::size_t i = 0; i < config_.edge_crashes.size(); ++i) {
    if (used[i]) continue;
    const DagConfig::EdgeCrash& ec = config_.edge_crashes[i];
    if (ec.after_round != round) continue;
    used[i] = true;
    GW_CHECK_MSG(ec.node >= 0 && ec.node < platform_.num_nodes(),
                 "edge crash on a node outside the platform");
    if (!sim.node_alive(ec.node)) continue;
    sim.schedule_node_crash(ec.node, 0.0, ec.restart_after_s);
    any = true;
  }
  // Land the crash (and the DFS replica pruning its listeners do) before
  // the next round plans its splits.
  if (any) sim.run();
}

void JobDag::rewind(std::vector<Done>& done, DagResult& out, DagRoundState& st,
                    int& spec_i, int& iter,
                    const std::vector<std::string>& failed_inputs,
                    const std::vector<std::string>& failed_outputs) {
  ++out.replays;
  GW_CHECK_MSG(out.replays <= kMaxReplays,
               "DAG replay limit exceeded: pinned inputs keep vanishing");
  // The failed round's committed partitions were produced without the lost
  // splits: delete the garbage before the replay re-writes the paths.
  for (const auto& f : failed_outputs) pinned_->remove(f);
  // Back to the newest round whose inputs all still exist; the failed
  // round itself (index done.size()) qualifies when the loss was confined
  // to its outputs.
  int target = static_cast<int>(done.size());
  if (!inputs_available(failed_inputs)) {
    target = static_cast<int>(done.size()) - 1;
    while (target >= 0 && !inputs_available(done[static_cast<std::size_t>(
                              target)].inputs)) {
      --target;
    }
    GW_CHECK_MSG(target >= 0, "DAG unrecoverable: round-0 inputs lost");
  }
  while (static_cast<int>(done.size()) > target) {
    Done d = std::move(done.back());
    done.pop_back();
    out.rounds.pop_back();
    for (const auto& f : d.outputs) pinned_->remove(f);
    st = std::move(d.entry);
    spec_i = d.spec;
    iter = d.iteration;
  }
}

DagResult JobDag::run() {
  GW_CHECK_MSG(!specs_.empty(), "DAG has no rounds");
  auto& sim = platform_.sim();
  if (!started_) {
    started_ = true;
    // One trace per DAG; rounds keep appending (job.cc resets occupancy,
    // not the span ring, when config.dag_round >= 0). A resumed run keeps
    // the same trace so the DAG's spans reopen on their original tracks.
    sim.tracer().clear();
    out_ = DagResult();
    done_.clear();
    round_used_.assign(config_.round_crashes.size(), false);
    edge_used_.assign(config_.edge_crashes.size(), false);
    st_ = DagRoundState();
    st_.broadcast = config_.initial_broadcast;
    spec_i_ = 0;
    iter_ = 0;
  } else {
    GW_CHECK_MSG(suspended_, "JobDag::run() re-entered after completion");
    suspended_ = false;
    out_.suspended = false;
    if (config_.preempt != nullptr) config_.preempt->requested = false;
  }
  const double t0 = sim.now();

  for (;;) {
    const RoundSpec& spec = specs_[static_cast<std::size_t>(spec_i_)];
    st_.round = static_cast<int>(done_.size());
    st_.iteration = iter_;

    std::vector<std::string> inputs =
        spec.inputs ? spec.inputs(st_)
                    : (st_.round == 0 ? config_.input_paths
                                      : st_.prev_outputs);
    GW_CHECK_MSG(!inputs.empty(), "DAG round has no inputs");
    if (!inputs_available(inputs)) {
      // An inter-round crash took pinned inputs before the round started.
      rewind(done_, out_, st_, spec_i_, iter_, inputs, {});
      continue;
    }

    JobConfig cfg = config_.base;
    cfg.input_paths = inputs;
    cfg.output_path = config_.output_root + "/" +
                      (spec.name.empty() ? "round" : spec.name) + "-" +
                      std::to_string(st_.round);
    cfg.dag_round = st_.round;
    cfg.crash_events.clear();
    for (std::size_t c = 0; c < config_.round_crashes.size(); ++c) {
      if (round_used_[c] || config_.round_crashes[c].round != st_.round) {
        continue;
      }
      cfg.crash_events.push_back(config_.round_crashes[c].event);
      round_used_[c] = true;
    }
    if (spec.tune) spec.tune(cfg, st_);

    AppKernels app = spec.app(st_);
    pinned_->set_pin_writes(spec.edge == EdgeKind::kPinned);
    JobResult jr = runtime_.run(app, cfg, pinned_.get());
    ++out_.rounds_executed;

    if (jr.stats.input_splits_lost > 0) {
      // Pinned inputs died mid-round: the round completed degraded over the
      // surviving splits, so its output is garbage — regenerate the lost
      // edge and replay.
      rewind(done_, out_, st_, spec_i_, iter_, inputs, jr.output_files);
      continue;
    }

    const bool is_last = spec_i_ + 1 == static_cast<int>(specs_.size());
    const bool looping = loop_ && is_last;
    RoundPairs pairs;
    if (spec.broadcast || (looping && converged_)) {
      pairs = read_pairs(jr.output_files);
    }
    util::Bytes payload = st_.broadcast;
    if (spec.broadcast) {
      payload = spec.broadcast(st_, pairs);
      broadcast_payload(payload.size());
    }

    Done d;
    d.spec = spec_i_;
    d.iteration = iter_;
    d.entry = st_;
    d.inputs = inputs;
    d.outputs = jr.output_files;
    done_.push_back(std::move(d));
    DagRoundResult rr;
    rr.name = spec.name;
    rr.round = st_.round;
    rr.iteration = iter_;
    rr.edge = spec.edge;
    rr.job = jr;
    rr.outputs = jr.output_files;
    out_.rounds.push_back(std::move(rr));

    fire_edge_crashes(st_.round, edge_used_);

    DagRoundState next;
    next.round = st_.round + 1;
    next.broadcast = payload;
    next.prev_outputs = jr.output_files;
    bool finished = false;
    if (looping) {
      const int iters_done = iter_ + 1;
      out_.iterations = iters_done;
      const bool conv = converged_ && converged_(iters_done, payload, pairs);
      if (conv || iters_done >= max_iterations_) {
        finished = true;
      } else {
        next.iteration = iter_ + 1;
        ++iter_;
      }
    } else if (is_last) {
      finished = true;
    } else {
      ++spec_i_;
      iter_ = 0;
    }
    st_ = std::move(next);
    if (finished) break;

    if (config_.preempt != nullptr && config_.preempt->requested) {
      // Inter-round suspension point: the completed rounds' edges are
      // already materialized (checkpointed to the DFS or pinned), so the
      // loop cursor is the only state to keep — it lives in the members.
      suspended_ = true;
      ++out_.suspensions;
      out_.suspended = true;
      out_.elapsed_seconds += sim.now() - t0;
      DagResult partial = out_;
      partial.final_outputs = done_.back().outputs;
      partial.final_broadcast = st_.broadcast;
      partial.pinned_peak_bytes = pinned_->peak_pinned_bytes();
      partial.pin_spills = pinned_->pin_spills();
      partial.cache_hit_bytes = pinned_->cache_hit_bytes();
      return partial;
    }
  }

  out_.final_outputs = done_.back().outputs;
  out_.final_broadcast = st_.broadcast;
  out_.pinned_peak_bytes = pinned_->peak_pinned_bytes();
  out_.pin_spills = pinned_->pin_spills();
  out_.cache_hit_bytes = pinned_->cache_hit_bytes();
  out_.elapsed_seconds += sim.now() - t0;
  return out_;
}

}  // namespace gw::core

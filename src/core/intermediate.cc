#include "core/intermediate.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace gw::core {

namespace {

// Streaming i/o buffer granularity for budget-governed merges: a merge of
// k runs holds k + 1 of them (one per input plus the merged output).
constexpr std::uint64_t kMergeIoBufferBytes = 256ull << 10;

// Dedup tags are split indices (ints) + 1; the bound keeps a corrupt tag
// from sizing a tag bitmap in the gigabytes.
constexpr std::uint64_t kMaxDedupTag =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;

}  // namespace

IntermediateStore::IntermediateStore(cluster::Node& node, sim::Simulation& sim,
                                     const JobConfig& config,
                                     MemoryGovernor& mem)
    : node_(node),
      sim_(sim),
      config_(config),
      mem_(mem),
      local_partitions_(config.partitions_per_node) {
  work_ = std::make_unique<sim::Channel<int>>(sim_, 4096);
  drained_ = std::make_unique<sim::Event>(sim_);
  merge_name_ = sim_.tracer().intern("store.merge");
  spill_name_ = sim_.tracer().intern("store.spill");
}

IntermediateStore::~IntermediateStore() = default;

sim::Task<> IntermediateStore::add_run(int g, Run run,
                                       std::vector<std::uint64_t> tags) {
  GW_CHECK(g >= 0);
  if (run.empty()) co_return;
  Part& part = parts_[g];
  std::size_t seen = 0;
  for (std::uint64_t t : tags) {
    GW_CHECK_MSG(t <= kMaxDedupTag, "dedup tag out of range");
    seen += part.seen(t) ? 1 : 0;
  }
  if (!tags.empty() && seen == tags.size()) {
    ++dup_dropped_;  // a byte-identical or regrouped duplicate
    co_return;
  }
  GW_CHECK_MSG(seen == 0, "run partially overlaps already-seen dedup tags");
  for (std::uint64_t t : tags) part.mark_seen(t);

  const std::uint64_t bytes = run.stored_bytes();
  // A full store pool with a below-threshold cache would strand the
  // producers (nothing queued means nothing ever spills): force the
  // mergers to flush whatever is cached before blocking.
  if (!mem_.fits(MemoryGovernor::Pool::kStore, bytes)) {
    maybe_trigger_flushes(/*force=*/true);
  }
  sim::Resource::Hold hold =
      co_await mem_.acquire(MemoryGovernor::Pool::kStore, bytes);
  part.cache_bytes += bytes;
  cache_bytes_total_ += bytes;
  part.cache.push_back(std::move(run));
  part.cache_holds.push_back(std::move(hold));
  maybe_trigger_flushes(/*force=*/false);
}

bool IntermediateStore::under_pressure() const {
  if (cache_bytes_total_ > effective_cache_threshold()) return true;
  // Producers blocked on the store pool are memory pressure by definition,
  // whatever the cached byte count says.
  return mem_.contended(MemoryGovernor::Pool::kStore);
}

std::uint64_t IntermediateStore::effective_cache_threshold() const {
  // Flush before producers can exhaust the pool: the threshold must leave
  // headroom inside the store budget or add_run deadlocks against it.
  return std::min(config_.cache_threshold_bytes,
                  mem_.pool_budget(MemoryGovernor::Pool::kStore) / 2);
}

std::size_t IntermediateStore::fanin_limit() const {
  const std::uint64_t slots =
      mem_.pool_budget(MemoryGovernor::Pool::kMerge) / kMergeIoBufferBytes;
  // One i/o buffer per input run plus one for the merged output.
  return std::max<std::size_t>(
      2, slots > 1 ? static_cast<std::size_t>(slots - 1) : 2);
}

std::size_t IntermediateStore::effective_max_disk_runs() const {
  return std::min(static_cast<std::size_t>(config_.max_disk_runs),
                  fanin_limit());
}

void IntermediateStore::maybe_trigger_flushes(bool force) {
  if (!force && cache_bytes_total_ <= effective_cache_threshold()) return;
  for (auto& [g, part] : parts_) {
    if (part.cache_bytes > 0) enqueue(g);
  }
}

void IntermediateStore::enqueue(int g) {
  Part& part = parts_[g];
  if (part.queued) return;
  part.queued = true;
  ++jobs_in_flight_;
  // The channel is far larger than the partition count, so this never
  // blocks; spawn so enqueue stays synchronous for callers.
  sim_.spawn(work_->send(g));
}

void IntermediateStore::start_mergers() {
  if (mergers_ == nullptr) mergers_ = std::make_unique<sim::TaskGroup>(sim_);
  // One merger thread per local partition (§III-B).
  for (int i = 0; i < config_.partitions_per_node; ++i) {
    if (static_cast<std::size_t>(i) >= merger_tracks_.size()) {
      merger_tracks_.push_back(
          sim_.tracer().track(node_.id(), "store/" + std::to_string(i)));
    }
    mergers_->spawn(merger_loop(merger_tracks_[static_cast<std::size_t>(i)]));
  }
}

void IntermediateStore::reopen() {
  GW_CHECK_MSG(mergers_ == nullptr, "reopen before drain completed");
  GW_CHECK_MSG(jobs_in_flight_ == 0, "reopen with merge jobs in flight");
  work_ = std::make_unique<sim::Channel<int>>(sim_, 4096);
  drained_ = std::make_unique<sim::Event>(sim_);
  draining_ = false;
  // Recompute the cache accounting from the runs actually held: the retry
  // path reuses the store across recovery rounds, and stale accounting
  // would mis-trigger (or fail to trigger) the next round's pressure
  // flushes.
  cache_bytes_total_ = 0;
  for (auto& [g, part] : parts_) {
    part.queued = false;
    std::uint64_t bytes = 0;
    for (const Run& r : part.cache) bytes += r.stored_bytes();
    part.cache_bytes = bytes;
    cache_bytes_total_ += bytes;
    GW_CHECK_MSG(part.cache_holds.size() == part.cache.size(),
                 "cache holds out of sync across reopen");
    GW_CHECK_MSG(part.disk_levels.size() == part.disk.size(),
                 "disk run levels out of sync across reopen");
  }
}

double IntermediateStore::host_merge_seconds(std::uint64_t in_stored,
                                             std::uint64_t in_raw,
                                             std::uint64_t out_raw) const {
  const HostCosts& h = config_.host;
  return static_cast<double>(in_stored) / h.decompress_bytes_per_s +
         static_cast<double>(in_raw) / h.merge_bytes_per_s +
         static_cast<double>(out_raw) / h.compress_bytes_per_s;
}

sim::Task<> IntermediateStore::merger_loop(trace::TrackRef track) {
  for (;;) {
    auto g = co_await work_->recv();
    if (!g) break;
    co_await service(*g, track);
    parts_[*g].queued = false;
    // Re-examine: service may leave work (the cache may have refilled
    // meanwhile, or a budget-capped merge left disk runs above the limit).
    Part& part = parts_[*g];
    const bool more =
        part.disk.size() > effective_max_disk_runs() ||
        (under_pressure() && part.cache_bytes > 0) ||
        (draining_ && part.cache.size() > 1);
    if (more) enqueue(*g);
    if (--jobs_in_flight_ == 0 && draining_ && work_->size() == 0) {
      drained_->set();
    }
  }
}

sim::Task<> IntermediateStore::service(int g, trace::TrackRef track) {
  auto& tr = sim_.tracer();
  Part& part = parts_[g];
  const double spill_bw = config_.spill_bandwidth_bytes_per_s;

  // Step 1: merge+flush the cached runs to one on-disk run. During the
  // final drain, cached data that already fits in few runs stays in memory
  // (only consolidated if the run count is excessive); under cache pressure
  // everything cached is flushed. Under a nonzero budget the merged output
  // always goes to disk — external-sort semantics: re-caching it would have
  // to re-acquire the store pool the inputs just freed, racing the very
  // producers the spill is meant to unblock.
  const bool pressure = under_pressure();
  const bool too_many_cached =
      part.cache.size() + part.disk.size() > effective_max_disk_runs();
  // During the final drain each partition is consolidated to a single
  // cached run (the paper's merge phase runs to completion before reduce).
  const bool drain_consolidate = draining_ && part.cache.size() > 1;
  if (!part.cache.empty() &&
      (pressure || too_many_cached || drain_consolidate)) {
    std::vector<Run> cached;
    cached.swap(part.cache);
    std::vector<sim::Resource::Hold> holds;
    holds.swap(part.cache_holds);
    cache_bytes_total_ -= part.cache_bytes;
    part.cache_bytes = 0;

    std::uint64_t in_stored = 0, in_raw = 0;
    for (const Run& r : cached) {
      in_stored += r.stored_bytes();
      in_raw += r.raw_bytes;
    }
    sim::Resource::Hold scratch = co_await mem_.acquire(
        MemoryGovernor::Pool::kMerge,
        (cached.size() + 1) * kMergeIoBufferBytes);
    ++merges_;
    merge_fanin_runs_ += cached.size();
    tr.begin(track, trace::Kind::kMerge, merge_name_, sim_.now(),
             cached.size());
    Run merged;
    if (cached.size() == 1) {
      merged = std::move(cached.front());
      co_await node_.cpu_work(
          host_merge_seconds(in_stored, in_raw, merged.raw_bytes));
    } else {
      // Merging preserves every framed pair, so the output raw size equals
      // the input raw sum and the charge is known up front: the real merge
      // runs on the pool while the cpu charge elapses.
      auto merging = sim_.offload([&cached] { return merge_runs(cached, true); });
      co_await node_.cpu_work(host_merge_seconds(in_stored, in_raw, in_raw));
      merged = co_await sim_.join(std::move(merging));
      GW_CHECK(merged.raw_bytes == in_raw);
    }
    tr.end(track, trace::Kind::kMerge, merge_name_, sim_.now());
    holds.clear();  // inputs consumed: free the store pool for producers
    scratch.release();
    if (pressure || mem_.bounded()) {
      // Spill to disk to relieve memory pressure.
      ++spills_;
      spill_bytes_ += merged.stored_bytes();
      merge_levels_ = std::max<std::uint64_t>(merge_levels_, 1);
      tr.begin(track, trace::Kind::kSpill, spill_name_, sim_.now(),
               merged.stored_bytes());
      co_await node_.disk_stream_write(
          merged.stored_bytes(),
          cluster::Node::amortized_seek(merged.stored_bytes()), spill_bw);
      tr.end(track, trace::Kind::kSpill, spill_name_, sim_.now());
      part.disk.push_back(std::move(merged));
      part.disk_levels.push_back(1);
    } else {
      // Drain-time consolidation: the merged run stays cached, holding its
      // bytes like any cached run (an unbounded pool never blocks here).
      const std::uint64_t bytes = merged.stored_bytes();
      sim::Resource::Hold hold =
          co_await mem_.acquire(MemoryGovernor::Pool::kStore, bytes);
      part.cache_holds.push_back(std::move(hold));
      part.cache_bytes += bytes;
      cache_bytes_total_ += bytes;
      part.cache.push_back(std::move(merged));
    }
  }

  // Step 2: keep the number of on-disk runs bounded with a multi-way merge.
  // The fan-in is capped by the merge-pool budget and repeated capped
  // merges build a multi-level tree, oldest (lowest-level) runs first so
  // levels stay balanced; with an unbounded pool this is a single
  // full-width merge.
  const std::size_t limit = effective_max_disk_runs();
  while (part.disk.size() > limit) {
    const std::size_t take = std::min(part.disk.size(), fanin_limit());
    std::vector<Run> inputs(
        std::make_move_iterator(part.disk.begin()),
        std::make_move_iterator(part.disk.begin() +
                                static_cast<std::ptrdiff_t>(take)));
    part.disk.erase(part.disk.begin(),
                    part.disk.begin() + static_cast<std::ptrdiff_t>(take));
    int level = 0;
    for (std::size_t i = 0; i < take; ++i) {
      level = std::max(level, part.disk_levels[i]);
    }
    part.disk_levels.erase(
        part.disk_levels.begin(),
        part.disk_levels.begin() + static_cast<std::ptrdiff_t>(take));
    ++level;

    std::uint64_t in_stored = 0, in_raw = 0;
    for (const Run& r : inputs) {
      in_stored += r.stored_bytes();
      in_raw += r.raw_bytes;
    }
    sim::Resource::Hold scratch = co_await mem_.acquire(
        MemoryGovernor::Pool::kMerge, (take + 1) * kMergeIoBufferBytes);
    // As in step 1, the charge is size-determined: overlap the real merge
    // with the simulated disk read + cpu charges.
    auto merging = sim_.offload([&inputs] { return merge_runs(inputs, true); });
    co_await node_.disk_stream_read(
        in_stored, cluster::Node::amortized_seek(in_stored), spill_bw);
    ++merges_;
    merge_fanin_runs_ += inputs.size();
    merge_levels_ =
        std::max(merge_levels_, static_cast<std::uint64_t>(level));
    tr.begin(track, trace::Kind::kMerge, merge_name_, sim_.now(),
             inputs.size());
    co_await node_.cpu_work(host_merge_seconds(in_stored, in_raw, in_raw));
    Run merged = co_await sim_.join(std::move(merging));
    GW_CHECK(merged.raw_bytes == in_raw);
    tr.end(track, trace::Kind::kMerge, merge_name_, sim_.now());
    co_await node_.disk_stream_write(
        merged.stored_bytes(),
        cluster::Node::amortized_seek(merged.stored_bytes()), spill_bw);
    part.disk.push_back(std::move(merged));
    part.disk_levels.push_back(level);
  }
}

sim::Task<> IntermediateStore::drain() {
  draining_ = true;
  for (auto& [g, part] : parts_) {
    if (part.cache.size() > 1 || part.disk.size() > effective_max_disk_runs()) {
      enqueue(g);
    }
  }
  if (jobs_in_flight_ > 0) co_await drained_->wait();
  work_->close();
  co_await mergers_->wait();
  mergers_.reset();  // a TaskGroup is single-wait; reopen() re-creates it
}

std::vector<Run> IntermediateStore::take_partition(int g,
                                                   std::uint64_t* disk_bytes) {
  GW_CHECK(g >= 0);
  auto it = parts_.find(g);
  if (it == parts_.end()) {
    if (disk_bytes != nullptr) *disk_bytes = 0;
    return {};
  }
  Part& part = it->second;
  std::uint64_t db = 0;
  std::vector<Run> runs;
  for (Run& r : part.disk) {
    db += r.stored_bytes();
    runs.push_back(std::move(r));
  }
  for (Run& r : part.cache) runs.push_back(std::move(r));
  cache_bytes_total_ -= part.cache_bytes;
  part.cache.clear();
  part.cache_holds.clear();  // releases the store pool for this partition
  part.disk.clear();
  part.disk_levels.clear();
  part.cache_bytes = 0;
  if (disk_bytes != nullptr) *disk_bytes = db;
  return runs;
}

std::uint64_t IntermediateStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [g, part] : parts_) {
    for (const Run& r : part.cache) total += r.stored_bytes();
    for (const Run& r : part.disk) total += r.stored_bytes();
  }
  return total;
}

}  // namespace gw::core

// Map pipeline: Input -> Stage -> Kernel -> Retrieve -> Partition (§III-A).
#include <algorithm>
#include <memory>
#include <span>

#include "core/combine.h"
#include "core/pipeline.h"
#include "core/stage.h"
#include "util/error.h"

namespace gw::core {

namespace {

constexpr double kRecordSplitBytesPerSec = 1.5e9;  // host-side framing scan

// Items flowing through the pipeline. User-declared constructors per the
// sim.h channel payload rule.
struct StagedChunk {
  StagedChunk(util::Bytes data_in, std::vector<std::uint64_t> offsets_in,
              InputSplit split_in, sim::Resource::Hold hold_in,
              sim::Resource::Hold mem_hold_in, sim::Resource::Hold slot_in)
      : data(std::move(data_in)),
        offsets(std::move(offsets_in)),
        split(std::move(split_in)),
        in_hold(std::move(hold_in)),
        mem_hold(std::move(mem_hold_in)),
        slot_hold(std::move(slot_in)) {}
  StagedChunk() = default;

  util::Bytes data;
  std::vector<std::uint64_t> offsets;  // record start offsets
  InputSplit split;                    // identity, for re-execution
  sim::Resource::Hold in_hold;
  sim::Resource::Hold mem_hold;   // map-input pool bytes for `data`
  sim::Resource::Hold slot_hold;  // elastic: per-job map slot for this task
};

struct KernelOut {
  KernelOut(MapChunkOutput out_in, InputSplit split_in,
            sim::Resource::Hold hold_in, sim::Resource::Hold mem_hold_in,
            sim::Resource::Hold slot_in)
      : out(std::move(out_in)),
        split(std::move(split_in)),
        out_hold(std::move(hold_in)),
        mem_hold(std::move(mem_hold_in)),
        slot_hold(std::move(slot_in)) {}
  KernelOut() = default;

  MapChunkOutput out;
  InputSplit split;  // identity, for commit + dedup tagging
  sim::Resource::Hold out_hold;
  sim::Resource::Hold mem_hold;   // map-output pool bytes for `out`
  sim::Resource::Hold slot_hold;  // elastic: held until the task completes
};

// Bridges MapContext emits into the group's collector slot.
class GroupEmitter : public MapEmitter {
 public:
  GroupEmitter(MapOutputCollector* col, std::size_t group,
               cl::KernelCounters* c)
      : col_(col), group_(group), c_(c) {}
  void emit(std::string_view key, std::string_view value) override {
    col_->emit(group_, key, value, *c_);
  }

 private:
  MapOutputCollector* col_;
  std::size_t group_;
  cl::KernelCounters* c_;
};

// Reads a split, aligned to record boundaries so no record straddles
// splits: fixed-size records round to multiples; text records extend to the
// newline after the nominal end, and a non-initial split skips the partial
// first line (standard MapReduce input-split semantics).
}  // namespace

sim::Task<util::Bytes> read_aligned_split(dfs::FileSystem& fs, int node,
                                          const AppKernels& app,
                                          const InputSplit& split) {
  const std::uint64_t file_size = fs.file_size(split.path);
  const std::uint64_t rec = app.fixed_record_size;
  if (rec > 0) {
    const std::uint64_t start = (split.offset + rec - 1) / rec * rec;
    std::uint64_t end = (split.offset + split.len + rec - 1) / rec * rec;
    end = std::min(end, file_size / rec * rec);
    if (start >= end) co_return util::Bytes{};
    co_return co_await fs.read(node, split.path, start, end - start);
  }

  // Text records: a line belongs to the split containing its first byte.
  // Read one byte before the split (to detect a line starting exactly at
  // the offset) and look ahead past the end (to finish the last line).
  constexpr std::uint64_t kLookahead = 16 << 10;
  const std::uint64_t read_start = split.offset > 0 ? split.offset - 1 : 0;
  const std::uint64_t read_end =
      std::min(split.offset + split.len + kLookahead, file_size);
  util::Bytes raw = co_await fs.read(node, split.path, read_start,
                                     read_end - read_start);
  std::string_view view(reinterpret_cast<const char*>(raw.data()), raw.size());
  std::size_t start = 0;
  if (split.offset > 0) {
    // view[0] is the byte before the split. If it terminates a line, the
    // split begins on a line boundary; otherwise skip the partial line.
    const std::size_t nl = view.find('\n');
    if (nl == std::string_view::npos) co_return util::Bytes{};
    start = nl + 1;
  }
  std::size_t end = view.size();
  if (split.offset + split.len < file_size) {
    // First line starting at or after the nominal end belongs to the next
    // split; ours runs through the newline at/after (nominal_end - 1).
    const std::size_t limit =
        static_cast<std::size_t>(split.offset + split.len - read_start);
    if (start >= limit) co_return util::Bytes{};  // whole split was partial
    const std::size_t nl = view.find('\n', limit - 1);
    end = (nl == std::string_view::npos) ? view.size() : nl + 1;
  }
  co_return util::Bytes(raw.begin() + static_cast<std::ptrdiff_t>(start),
                        raw.begin() + static_cast<std::ptrdiff_t>(end));
}

std::vector<std::uint64_t> frame_records(const AppKernels& app,
                                         std::string_view chunk) {
  if (app.split_records) return app.split_records(chunk);
  if (app.fixed_record_size > 0) {
    std::vector<std::uint64_t> offsets;
    offsets.reserve(chunk.size() / app.fixed_record_size);
    for (std::uint64_t off = 0; off + app.fixed_record_size <= chunk.size();
         off += app.fixed_record_size) {
      offsets.push_back(off);
    }
    return offsets;
  }
  return split_lines(chunk);
}

PartitionScratch::PartitionScratch(std::uint32_t partitions)
    : count_(partitions, 0), bytes_(partitions, 0), next_(partitions, 0) {}

void PartitionScratch::assign(const PairList& pairs,
                              const PartitionFn& partition) {
  const auto total = static_cast<std::uint32_t>(count_.size());
  const std::size_t n = pairs.size();
  part_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PairList::PairView pv = pairs.pair_view(i);
    const std::uint32_t g = partition(pv.kv.key, total);
    GW_CHECK(g < total);
    part_of_[i] = g;
    ++count_[g];
    bytes_[g] += pv.encoded.size();
  }
  live_.clear();
  for (std::uint32_t g = 0; g < total; ++g) {
    if (count_[g] > 0) live_.push_back(g);
  }
}

std::vector<std::pair<std::uint32_t, Run>> PartitionScratch::build_runs(
    const PairList& pairs) {
  // Counting sort of the pair indices by partition: stable, so each
  // partition's pairs keep their emit order.
  begin_.resize(live_.size() + 1);
  std::uint32_t at = 0;
  for (std::size_t j = 0; j < live_.size(); ++j) {
    begin_[j] = next_[live_[j]] = at;
    at += count_[live_[j]];
  }
  begin_[live_.size()] = at;
  order_.resize(at);
  for (std::uint32_t i = 0; i < part_of_.size(); ++i) {
    order_[next_[part_of_[i]]++] = i;
  }
  std::vector<std::pair<std::uint32_t, Run>> runs(live_.size());
  util::ThreadPool::global().parallel_for(
      0, live_.size(), [&](std::size_t jlo, std::size_t jhi, std::size_t) {
        for (std::size_t j = jlo; j < jhi; ++j) {
          const std::span<const std::uint32_t> indices(
              order_.data() + begin_[j], begin_[j + 1] - begin_[j]);
          runs[j] = {live_[j], pairs.sorted_run(indices, /*compress=*/true)};
        }
      });
  return runs;
}

void PartitionScratch::reset() {
  for (std::uint32_t g : live_) {
    count_[g] = 0;
    bytes_[g] = 0;
  }
  live_.clear();
}

namespace {

sim::Task<> input_stage(Stage& st, NodeContext ctx, SplitScheduler& scheduler,
                        sim::Resource& in_buffers,
                        sim::Channel<StagedChunk>& out, MapMetrics& m) {
  for (;;) {
    // A crashed node initiates no new work; in-flight chunks drain through
    // the pipeline (their sends are dropped by the dead-endpoint check).
    if (!ctx.self_live()) break;
    // Preemption checkpoint: stop dispensing fresh splits once a suspend is
    // requested; chunks already in flight drain normally, so everything the
    // pipeline touched is committed and in the ledger when the phase ends.
    // Recovery rounds are exempt — replayed provenance must finish.
    if (ctx.preempt_requested() && !ctx.recovery) break;
    sim::Resource::Hold slot_hold;
    if (ctx.elastic_slots && ctx.map_slot != nullptr && !ctx.recovery) {
      // Elastic gating: one slot per split, held until the task's partition
      // work completes, so a share shrink takes effect at the next task
      // boundary and a grow deepens this node's pipeline immediately.
      slot_hold = co_await ctx.map_slot->acquire();
      if (!ctx.self_live() || ctx.preempt_requested()) break;
    }
    auto split = ctx.recovery ? scheduler.next_lost(ctx.node_id)
                              : scheduler.next_for(ctx.node_id);
    if (!split && !ctx.recovery && ctx.config->speculate) {
      // Idle with in-flight work elsewhere: clone a straggler (§III-E).
      split = scheduler.next_speculative(ctx.node_id);
    }
    if (!split) break;
    auto hold = co_await in_buffers.acquire();
    // Admit the staged chunk's bytes against the map-input pool before
    // reading.
    sim::Resource::Hold mem_hold =
        co_await ctx.mem->acquire(MemoryGovernor::Pool::kMapIn, split->len);
    util::Bytes data;
    std::vector<std::uint64_t> offsets;
    bool split_lost = false;
    {
      Stage::BusyScope scope(st);
      try {
        data =
            co_await read_aligned_split(*ctx.fs, ctx.node_id, *ctx.app, *split);
      } catch (const dfs::DataLossError&) {
        // Every copy of the split's data is gone. In a DAG round the
        // driver rewinds to regenerate it; mid-single-job loss is fatal.
        if (ctx.config->dag_round < 0) throw;
        ++m.input_splits_lost;
        split_lost = true;
      }
      if (!split_lost) {
        // The framing scan's simulated charge depends only on the byte
        // count, so the real scan runs on the host pool while the charge
        // elapses.
        auto framing = ctx.sim().offload([&app = *ctx.app, &data] {
          return frame_records(
              app, std::string_view(
                       reinterpret_cast<const char*>(data.data()),
                       data.size()));
        });
        co_await ctx.node->cpu_work(static_cast<double>(data.size()) /
                                    kRecordSplitBytesPerSec);
        offsets = co_await ctx.sim().join(std::move(framing));
      }
    }
    if (offsets.empty()) continue;  // hold released by destructor
    m.records += offsets.size();
    co_await out.send(StagedChunk(std::move(data), std::move(offsets),
                                  *split, std::move(hold),
                                  std::move(mem_hold),
                                  std::move(slot_hold)));
  }
  out.close();
}

sim::Task<> stage_stage(Stage& st, NodeContext ctx,
                        sim::Channel<StagedChunk>& in,
                        sim::Channel<StagedChunk>& out) {
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    if (!ctx.device->unified_memory()) {
      Stage::BusyScope scope(st);
      co_await ctx.device->stage_in(item->data.size());
    }
    co_await out.send(std::move(*item));
  }
  out.close();
}

// Runs the map kernel (plus combine/compaction) over one staged chunk.
// `collector` is a per-stage cache: finalize() resets collectors in place,
// so reusing one across chunks keeps its heap buffers warm. Recreated only
// when the group count changes (e.g. a short final chunk).
sim::Task<MapChunkOutput> run_map_kernel(
    const NodeContext& ctx, const util::Bytes& bytes,
    const std::vector<std::uint64_t>& offsets,
    std::unique_ptr<MapOutputCollector>& collector, MapMetrics& m) {
  const JobConfig& cfg = *ctx.config;
  const AppKernels& app = *ctx.app;
  const std::size_t records = offsets.size();
  const std::size_t groups = std::max<std::size_t>(
      1, std::min<std::size_t>(cl::Device::kDefaultWorkGroups, records));
  if (!collector || collector->groups() != groups) {
    collector = make_collector(cfg.output_mode, groups);
  }
  const std::string_view data(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());

  cl::KernelStats stats = co_await ctx.device->run_kernel_grouped(
      records, groups,
      [&](std::size_t i, std::size_t g, cl::KernelCounters& c) {
        const std::uint64_t begin = offsets[i];
        const std::uint64_t end =
            (i + 1 < offsets.size()) ? offsets[i + 1] : data.size();
        const std::string_view record = data.substr(begin, end - begin);
        c.charge_read(record.size());
        GroupEmitter emitter(collector.get(), g, &c);
        MapContext mctx{&emitter, &c};
        app.map(record, mctx);
      },
      cfg.map_launch);
  m.kernel_stats += stats;

  const std::optional<CombineFn>& combine =
      cfg.use_combiner ? app.combine : std::nullopt;
  MapChunkOutput chunk_out =
      co_await collector->finalize(*ctx.device, combine, cfg.map_launch);
  m.kernel_stats += chunk_out.post_stats;
  co_return std::move(chunk_out);
}

sim::Task<> kernel_stage(Stage& st, NodeContext ctx,
                         sim::Channel<StagedChunk>& in,
                         sim::Resource& out_buffers,
                         sim::Channel<KernelOut>& out, MapMetrics& m) {
  const JobConfig& cfg = *ctx.config;
  const std::int32_t retry_name = st.span_name("retry");
  std::unique_ptr<MapOutputCollector> collector;
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    auto out_hold = co_await out_buffers.acquire();
    MapChunkOutput chunk_out;
    {
      Stage::BusyScope scope(st);
      chunk_out = co_await run_map_kernel(ctx, item->data, item->offsets,
                                          collector, m);

      // Fault injection (§III-E): the first attempt of every Nth task —
      // 1-based, so `every` = 3 fails tasks 2, 5, 8… and split 0 is not
      // unconditionally doomed — fails after its kernel ran. Re-execution
      // is bookkeeping: the partial output is discarded, the input
      // re-fetched and reprocessed (retries stay on this node, as
      // schedulers prefer anyway). Injection is keyed on attempt == 0, so
      // a retry can never re-fail by construction.
      const int every = cfg.fail_every_nth_map_task;
      if (every > 0 && item->split.attempt == 0 &&
          (item->split.index + 1) % every == 0) {
        ++m.task_failures;
        st.instant(trace::Kind::kRetry, retry_name,
                   static_cast<std::uint64_t>(item->split.index));
        chunk_out = MapChunkOutput();  // discard partial output
        // The failed attempt's kernel emitted into `collector`; the retry
        // must start from a pristine one so its output is byte-identical
        // to what a clean first attempt would have produced.
        collector.reset();
        item->split.attempt++;
        try {
          util::Bytes again = co_await read_aligned_split(
              *ctx.fs, ctx.node_id, *ctx.app, item->split);
          const std::vector<std::uint64_t> offsets = frame_records(
              *ctx.app, std::string_view(
                            reinterpret_cast<const char*>(again.data()),
                            again.size()));
          chunk_out =
              co_await run_map_kernel(ctx, again, offsets, collector, m);
        } catch (const dfs::DataLossError&) {
          if (ctx.config->dag_round < 0) throw;
          ++m.input_splits_lost;
        }
      }

      m.pairs += chunk_out.pairs.size();
      m.distinct_keys += chunk_out.distinct_keys;
      m.hash_probes += chunk_out.hash_probes;
      item->in_hold.release();  // input buffer free once the kernel consumed it
      item->mem_hold.release();
    }
    sim::Resource::Hold mem_hold;
    if (chunk_out.pairs.blob_bytes() > 0) {
      // Collector output bytes live until the partition worker serialized
      // them into runs; charge them to the map-output pool for that window.
      // This pool is distinct from the input pool on purpose: an acquire
      // here must never queue behind the input stage admitting the next
      // split, or a tiny budget would wedge the pipeline against itself.
      mem_hold = co_await ctx.mem->acquire(MemoryGovernor::Pool::kMapOut,
                                           chunk_out.pairs.blob_bytes());
    }
    co_await out.send(KernelOut(std::move(chunk_out), std::move(item->split),
                                std::move(out_hold), std::move(mem_hold),
                                std::move(item->slot_hold)));
  }
  out.close();
}

sim::Task<> retrieve_stage(Stage& st, NodeContext ctx,
                           sim::Channel<KernelOut>& in,
                           sim::Channel<KernelOut>& out) {
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    if (!ctx.device->unified_memory()) {
      Stage::BusyScope scope(st);
      co_await ctx.device->stage_out(item->out.pairs.blob_bytes());
    }
    co_await out.send(std::move(*item));
  }
  out.close();
}

// Result of one offloaded partition job: sorted+compressed runs for the
// chunk's partitions with pairs (in ascending partition order).
struct PartitionJobOut {
  PartitionJobOut() = default;
  std::vector<std::pair<std::uint32_t, Run>> runs;
  std::uint64_t disk_bytes = 0;
};

sim::Task<> partition_worker(Stage& st, NodeContext ctx,
                             sim::Channel<KernelOut>& in,
                             SplitScheduler& scheduler, MapMetrics& m,
                             sim::TaskGroup& sends) {
  const JobConfig& cfg = *ctx.config;
  const HostCosts& h = cfg.host;
  const std::int32_t shuffle_name = st.span_name("shuffle");
  PartitionScratch scratch(static_cast<std::uint32_t>(ctx.total_partitions));
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    Stage::BusyScope scope(st);

    // On the loop: each pair's partition and each partition's framed bytes.
    const PairList& pairs = item->out.pairs;
    scratch.assign(pairs, ctx.app->partition);

    // Build a sorted, compressed run per destination partition. The
    // simulated cost is a function of each partition's framed bytes alone
    // (a run built from framed pairs verbatim has exactly that raw_bytes),
    // so it is known before the work runs: submit the real
    // grouping+sort+compress job, let the cpu charge elapse while it
    // executes on the pool, and join where the compressed sizes are
    // consumed (the disk write).
    double cpu_s = item->out.grouped
                       ? h.partition_key_overhead_s *
                             static_cast<double>(item->out.distinct_keys)
                       : h.partition_pair_overhead_s *
                             static_cast<double>(pairs.size());
    for (std::uint32_t g : scratch.live()) {
      const std::uint64_t raw = scratch.bytes(g);
      cpu_s += static_cast<double>(raw) / h.sort_bytes_per_s +
               static_cast<double>(raw) / h.serialize_bytes_per_s +
               static_cast<double>(raw) / h.compress_bytes_per_s;
      m.intermediate_raw += raw;
    }
    auto work = ctx.sim().offload([&pairs, &scratch] {
      PartitionJobOut res;
      res.runs = scratch.build_runs(pairs);
      for (const auto& [g, run] : res.runs) res.disk_bytes += run.stored_bytes();
      return res;
    });
    co_await ctx.node->cpu_work(cpu_s);
    PartitionJobOut job_out = co_await ctx.sim().join(std::move(work));
    scratch.reset();
    for (const auto& [g, run] : job_out.runs) {
      m.intermediate_stored += run.stored_bytes();
    }
    // Durability: every produced Partition goes to local disk (§III-A/E);
    // appended sequentially, so seeks amortize.
    if (job_out.disk_bytes > 0) {
      co_await ctx.node->disk_stream_write(
          job_out.disk_bytes, cluster::Node::amortized_seek(job_out.disk_bytes));
    }

    // Dedup tag: re-executions and speculative clones of a split regenerate
    // byte-identical runs carrying the same tag, which receiving stores
    // drop. Nonzero by construction (split indices are >= 0).
    const std::uint64_t tag =
        static_cast<std::uint64_t>(item->split.index) + 1;
    const std::vector<std::uint64_t> tags(1, tag);
    if (ctx.ledger != nullptr) {
      // Durable-output ledger: keep a host-side copy of every run so a
      // reassigned partition can be re-fed from survivors without
      // re-running their map tasks.
      for (const auto& [g, run] : job_out.runs) {
        ctx.ledger->record(static_cast<int>(g), tag, run);
      }
    }
    const bool self_alive = ctx.self_live();
    if (self_alive) {
      // First-finisher-wins: a zombie completion on a dead node never
      // commits (its splits are already back in the lost pool).
      scheduler.commit(item->split.index, ctx.node_id);
    }
    for (auto& [g, run] : job_out.runs) {
      const int dest = ctx.owner_of(static_cast<int>(g));
      if (dest == ctx.node_id) {
        if (self_alive) {
          co_await ctx.store->add_run(static_cast<int>(g), std::move(run),
                                      tags);
        }
      } else if (ctx.combiner != nullptr) {
        // Hierarchical combining: remote-destined runs stage in the node
        // combiner, which merge-combines duplicates across every map task
        // on this node before anything leaves for the network.
        co_await ctx.combiner->add(static_cast<int>(g), tags, std::move(run));
      } else {
        // Push shuffle rides the transport: with flow control enabled the
        // spawned send blocks on the stream's credit window, bounding the
        // bytes in flight toward any one receiver.
        const std::uint64_t wire =
            send_run(ctx, sends, dest, ctx.shuffle_port,
                     net::TrafficClass::kShuffle, static_cast<int>(g),
                     std::move(run), tags);
        m.shuffle_bytes_remote += wire;
        st.instant(trace::Kind::kShuffle, shuffle_name, wire);
      }
    }
    item->out_hold.release();
    item->mem_hold.release();
    item->slot_hold.release();  // elastic task boundary
  }
}

}  // namespace

sim::Task<> run_map_phase(NodeContext ctx, SplitScheduler& scheduler,
                          MapMetrics& metrics) {
  auto& sim = ctx.sim();
  const JobConfig& cfg = *ctx.config;
  GW_CHECK_MSG(cfg.buffering >= 1 && cfg.buffering <= 3,
               "buffering level must be 1..3");

  StageGraph g(sim, ctx.scoped("map"), ctx.node_id);
  sim::Resource& in_buffers = g.pool(cfg.buffering);
  sim::Resource& out_buffers = g.pool(cfg.buffering);
  auto& c12 = g.channel<StagedChunk>(8);
  auto& c23 = g.channel<StagedChunk>(8);
  auto& c34 = g.channel<KernelOut>(8);
  auto& c45 = g.channel<KernelOut>(8);

  sim::TaskGroup sends(sim);
  MapMetrics& m = metrics;
  g.add_stage("input", 1, [&, ctx](Stage& st) {
    return input_stage(st, ctx, scheduler, in_buffers, c12, m);
  });
  g.add_stage("stage", 1,
              [&, ctx](Stage& st) { return stage_stage(st, ctx, c12, c23); });
  g.add_stage("kernel", 1, [&, ctx](Stage& st) {
    return kernel_stage(st, ctx, c23, out_buffers, c34, m);
  });
  g.add_stage("retrieve", 1, [&, ctx](Stage& st) {
    return retrieve_stage(st, ctx, c34, c45);
  });
  g.add_stage("partition", cfg.partitioner_threads, [&, ctx](Stage& st) {
    return partition_worker(st, ctx, c45, scheduler, m, sends);
  });
  co_await g.run();
  if (ctx.combiner != nullptr) {
    // Final combine flush: everything still staged is combined and pushed
    // before the phase (and thus before this node's EOS) completes.
    co_await ctx.combiner->drain();
  }
  co_await sends.wait();  // all shuffle data delivered
}

}  // namespace gw::core

// Reduce pipeline: Input(final merge) -> Stage -> Kernel -> Retrieve ->
// Output (§III-C). Multiple intermediate keys are processed concurrently in
// one kernel, each kernel thread handles keys_per_thread keys sequentially,
// and oversized value lists are sliced across kernel invocations with
// scratch state carried between calls.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "core/stage.h"
#include "simnet/transport.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace gw::core {

namespace {

// Modeled per-kernel-thread creation overhead in simple ops (§III-C: "To
// alleviate thread creation overhead, Glasswing provides the possibility to
// have each reduce kernel thread process multiple keys sequentially").
constexpr std::uint64_t kThreadCreateOps = 600;

struct KeyGroup {
  KeyGroup() = default;
  std::string_view key;
  std::vector<std::string_view> values;
  bool is_continuation = false;  // prepend scratch value for this key
  bool has_more = false;         // more value slices follow in later chunks
};

struct ReduceChunk {
  ReduceChunk() = default;
  std::shared_ptr<Run> backing;  // keeps the string_views alive
  std::vector<KeyGroup> groups;
  std::uint64_t payload_bytes = 0;
  int partition = -1;       // local partition index
  bool last_of_partition = false;
  bool scratch_chunk = false;  // contains a sliced key; runs single-threaded
  sim::Resource::Hold in_hold;
};

struct ReducedChunk {
  ReducedChunk() = default;
  PairList pairs;
  int partition = -1;
  bool last_of_partition = false;
  sim::Resource::Hold out_hold;
};

// A partition's final merge: the merged run plus the merge-pool hold that
// accounts for its inputs, scratch and output, kept alive exactly as long
// as the run is still viewed.
struct BackingRun {
  BackingRun(Run run_in, sim::Resource::Hold hold_in)
      : run(std::move(run_in)), hold(std::move(hold_in)) {}
  Run run;
  sim::Resource::Hold hold;
};

class ScratchEmitter : public ReduceEmitter {
 public:
  explicit ScratchEmitter(std::string* slot) : slot_(slot) {}
  void emit(std::string_view /*key*/, std::string_view value) override {
    *slot_ = std::string(value);
    ++emits_;
  }
  int emits() const { return emits_; }

 private:
  std::string* slot_;
  int emits_ = 0;
};

class GroupPairEmitter : public ReduceEmitter {
 public:
  GroupPairEmitter(PairList* out, cl::KernelCounters* c) : out_(out), c_(c) {}
  void emit(std::string_view key, std::string_view value) override {
    out_->add(key, value);
    c_->charge_write(key.size() + value.size());
  }

 private:
  PairList* out_;
  cl::KernelCounters* c_;
};

// Reading and merging a partition's stored runs: `disk_bytes` from disk,
// then decompressing `in_stored` and merging `in_raw` bytes.
sim::Task<> charge_final_merge(cluster::Node& node, const HostCosts& h,
                               std::uint64_t disk_bytes,
                               std::uint64_t in_stored, std::uint64_t in_raw) {
  if (disk_bytes > 0) {
    co_await node.disk_stream_read(disk_bytes,
                                   cluster::Node::amortized_seek(disk_bytes));
  }
  co_await node.cpu_work(static_cast<double>(in_stored) /
                             h.decompress_bytes_per_s +
                         static_cast<double>(in_raw) / h.merge_bytes_per_s);
}

// Takes global partition `p`'s runs out of the store and merges them into
// one uncompressed run (§III-C input stage); null when the store holds
// nothing for `p`.
sim::Task<std::shared_ptr<BackingRun>> final_merge(Stage& st, NodeContext ctx,
                                                   int p, ReduceMetrics& m) {
  std::uint64_t disk_bytes = 0;
  std::vector<Run> runs = ctx.store->take_partition(p, &disk_bytes);
  if (runs.empty()) co_return nullptr;
  Stage::BusyScope scope(st);
  std::uint64_t in_stored = 0, in_raw = 0;
  for (const Run& r : runs) {
    in_stored += r.stored_bytes();
    in_raw += r.raw_bytes;
  }
  sim::Resource::Hold hold = co_await ctx.mem->acquire(
      MemoryGovernor::Pool::kMerge, in_stored + in_raw);
  // The decompress+merge charge depends only on the input run sizes, so the
  // real merge overlaps the simulated disk + cpu charges on the host pool.
  // Stored runs are always compressed, so even a single run is merged.
  auto merging =
      ctx.sim().offload([&runs] { return merge_runs(runs, false); });
  const HostCosts& h = ctx.config->host;
  co_await charge_final_merge(*ctx.node, h, disk_bytes, in_stored, in_raw);
  Run merged = co_await ctx.sim().join(std::move(merging));

  // Fault injection (§III-E), reduce side: the first attempt of every Nth
  // reduce partition — 1-based over global ids, mirroring the map side —
  // fails after its final merge ran. The stored runs were already consumed
  // and the merge is deterministic, so re-execution re-charges the same
  // disk and cpu time and reuses the identical merged bytes. There is no
  // attempt loop: one injection per partition, so a retry can never
  // re-fail by construction.
  const int every = ctx.config->fail_every_nth_reduce_task;
  if (every > 0 && (p + 1) % every == 0) {
    ++m.task_failures;
    st.instant(trace::Kind::kRetry, st.span_name("retry"),
               static_cast<std::uint64_t>(p));
    co_await charge_final_merge(*ctx.node, h, disk_bytes, in_stored, in_raw);
  }
  co_return std::make_shared<BackingRun>(std::move(merged), std::move(hold));
}

sim::Task<> input_stage(Stage& st, NodeContext ctx, std::vector<int> partitions,
                        sim::Resource& in_buffers,
                        sim::Channel<ReduceChunk>& out, ReduceMetrics& m) {
  const JobConfig& cfg = *ctx.config;
  for (int p : partitions) {
    // A crashed node initiates no further reduce tasks; the partition in
    // flight completes (in-flight work finishes, §III-E crash semantics).
    if (!ctx.self_live()) break;
    const std::shared_ptr<BackingRun> merged =
        co_await final_merge(st, ctx, p, m);
    if (merged == nullptr) continue;
    // The merge-pool hold rides `backing` until the last chunk viewing the
    // merged run is reduced.
    const std::shared_ptr<Run> backing(merged, &merged->run);

    // Group consecutive equal keys and slice into chunks.
    RunReader reader(*backing);
    ReduceChunk chunk;
    chunk.backing = backing;
    chunk.partition = p;
    std::uint64_t chunk_values = 0;

    auto flush = [&](bool scratch) -> sim::Task<> {
      if (chunk.groups.empty()) co_return;
      chunk.scratch_chunk = scratch;
      chunk.in_hold = co_await in_buffers.acquire();
      ReduceChunk next;
      next.backing = backing;
      next.partition = p;
      std::swap(next, chunk);
      chunk_values = 0;
      co_await out.send(std::move(next));
    };

    KV kv;
    bool have = reader.next(&kv);
    while (have) {
      KeyGroup group;
      group.key = kv.key;
      const std::string_view current_key = kv.key;
      while (have && kv.key == current_key) {
        group.values.push_back(kv.value);
        chunk.payload_bytes += kv.key.size() + kv.value.size();
        have = reader.next(&kv);
        if (group.values.size() >= cfg.max_values_per_kernel && have &&
            kv.key == current_key) {
          // More values follow: ship this slice alone; a continuation
          // carries its partial result forward via scratch state.
          group.has_more = true;
          co_await flush(false);  // accumulated normal groups first
          chunk.groups.push_back(std::move(group));
          co_await flush(true);   // the slice itself, single-threaded
          group = KeyGroup();
          group.key = current_key;
          group.is_continuation = true;
        }
      }
      // End of key: `group` holds the only (or final) slice.
      if (group.is_continuation) {
        group.has_more = false;
        co_await flush(false);
        chunk.groups.push_back(std::move(group));
        co_await flush(true);
      } else if (!group.values.empty()) {
        chunk_values += group.values.size();
        chunk.groups.push_back(std::move(group));
        if (chunk.groups.size() >=
                static_cast<std::size_t>(cfg.concurrent_keys) ||
            chunk_values >= cfg.max_values_per_kernel) {
          co_await flush(false);
        }
      }
    }
    // Final chunk carries the end-of-partition marker (possibly empty, so
    // the output stage still finalizes the partition's file).
    chunk.last_of_partition = true;
    chunk.in_hold = co_await in_buffers.acquire();
    co_await out.send(std::move(chunk));
    chunk = ReduceChunk();
  }
  out.close();
}

sim::Task<> stage_stage(Stage& st, NodeContext ctx,
                        sim::Channel<ReduceChunk>& in,
                        sim::Channel<ReduceChunk>& out) {
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    if (!ctx.device->unified_memory() && item->payload_bytes > 0) {
      Stage::BusyScope scope(st);
      co_await ctx.device->stage_in(item->payload_bytes);
    }
    co_await out.send(std::move(*item));
  }
  out.close();
}

sim::Task<> kernel_stage(Stage& st, NodeContext ctx,
                         sim::Channel<ReduceChunk>& in,
                         sim::Resource& out_buffers,
                         sim::Channel<ReducedChunk>& out, ReduceMetrics& m) {
  const JobConfig& cfg = *ctx.config;
  const ReduceFn& reduce = *ctx.app->reduce;
  // Scratch state for sliced keys, keyed per (partition, key).
  std::map<std::pair<int, std::string>, std::string> scratch;

  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    auto out_hold = co_await out_buffers.acquire();
    ReducedChunk result;
    result.partition = item->partition;
    result.last_of_partition = item->last_of_partition;

    if (!item->groups.empty()) {
      Stage::BusyScope scope(st);
      const std::size_t keys = item->groups.size();
      const std::size_t kpt =
          std::max<std::size_t>(1, static_cast<std::size_t>(cfg.keys_per_thread));
      const std::size_t threads = (keys + kpt - 1) / kpt;
      const std::size_t groups =
          item->scratch_chunk
              ? 1
              : std::max<std::size_t>(
                    1, std::min<std::size_t>(cl::Device::kDefaultWorkGroups,
                                             threads));
      std::vector<util::CacheAligned<PairList>> out_groups(groups);

      cl::KernelStats stats = co_await ctx.device->run_kernel_grouped(
          threads, groups,
          [&](std::size_t t, std::size_t g, cl::KernelCounters& c) {
            c.charge_ops(kThreadCreateOps);
            const std::size_t lo = t * kpt;
            const std::size_t hi = std::min(keys, lo + kpt);
            for (std::size_t k = lo; k < hi; ++k) {
              KeyGroup& group = item->groups[k];
              std::uint64_t bytes = group.key.size();
              for (auto v : group.values) bytes += v.size();
              c.charge_read(bytes);

              // Inject carried scratch state for continuations. The value is
              // moved into a local first: erasing (or overwriting) the map
              // entry while `with_scratch` still views its string would
              // leave a dangling view during the reduce call below.
              std::vector<std::string_view>* values = &group.values;
              std::vector<std::string_view> with_scratch;
              std::string carried;
              const auto scratch_key =
                  std::make_pair(item->partition, std::string(group.key));
              if (group.is_continuation) {
                auto it = scratch.find(scratch_key);
                GW_CHECK_MSG(it != scratch.end(), "missing scratch state");
                carried = std::move(it->second);
                if (!group.has_more) scratch.erase(it);
                with_scratch.reserve(group.values.size() + 1);
                with_scratch.push_back(carried);
                with_scratch.insert(with_scratch.end(), group.values.begin(),
                                    group.values.end());
                values = &with_scratch;
              }

              if (group.has_more) {
                // Partial invocation: capture the single partial result.
                std::string slot;
                ScratchEmitter emitter(&slot);
                ReduceContext rctx{&emitter, &c};
                reduce(group.key, *values, rctx);
                GW_CHECK_MSG(emitter.emits() == 1,
                             "sliced reduce must emit exactly one value");
                scratch[scratch_key] = std::move(slot);
              } else {
                GroupPairEmitter emitter(&out_groups[g].value, &c);
                ReduceContext rctx{&emitter, &c};
                reduce(group.key, *values, rctx);
              }
            }
          },
          cfg.reduce_launch);
      m.kernel_stats += stats;
      for (auto& pl : out_groups) result.pairs.append(pl.value);
    }
    // Release promptly (the optional holding it lives until the next recv,
    // which would deadlock a single-buffer pipeline).
    item->in_hold.release();
    result.out_hold = std::move(out_hold);
    co_await out.send(std::move(result));
  }
  out.close();
}

sim::Task<> retrieve_stage(Stage& st, NodeContext ctx,
                           sim::Channel<ReducedChunk>& in,
                           sim::Channel<ReducedChunk>& out) {
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    if (!ctx.device->unified_memory() && item->pairs.blob_bytes() > 0) {
      Stage::BusyScope scope(st);
      co_await ctx.device->stage_out(item->pairs.blob_bytes());
    }
    co_await out.send(std::move(*item));
  }
  out.close();
}

sim::Task<> write_output(Stage& st, NodeContext ctx, int g,
                         RunBuilder&& builder, ReduceMetrics& m) {
  // Zombies never commit: a node that crashed mid-reduce drops its output
  // instead of initiating a DFS write, and a crash racing the write itself
  // abandons the file. Either way no output file exists for `g`, which is
  // precisely what makes the recovery pass re-reduce it on the new owner.
  if (!ctx.self_live()) co_return;
  Stage::Span scope(st, trace::Kind::kStage, st.span_name("output"));
  const std::uint64_t raw = builder.raw_bytes();
  // Finalizing + wire-framing the output run is size-charged: overlap the
  // real work with the serialize charge.
  const std::uint64_t pairs = builder.pairs();
  auto work = ctx.sim().offload([b = std::move(builder)]() mutable {
    Run run = b.finish(false);
    util::ByteWriter w;
    run.serialize(w);
    return w.take();
  });
  co_await ctx.node->cpu_work(static_cast<double>(raw) /
                              ctx.config->host.serialize_bytes_per_s);
  util::Bytes wire = co_await ctx.sim().join(std::move(work));
  const std::string path = partition_output_path(*ctx.config, g);
  // HDFS-style pipeline recovery: a replica dying mid-write fails the
  // attempt with NodeDownError and leaves `wire` intact; a live writer
  // re-streams the file (crash pruning already dropped the dead node from
  // placement, so the retry picks survivors). Only a writer that itself
  // died abandons the output — and then the missing file is precisely what
  // makes the recovery pass re-reduce `g` on its new owner.
  for (;;) {
    if (!ctx.self_live()) co_return;
    try {
      co_await ctx.fs->write(ctx.node_id, path, std::move(wire));
    } catch (const net::NodeDownError&) {
      continue;
    }
    break;
  }
  m.output_pairs += pairs;
  m.output_files.push_back(path);
}

sim::Task<> output_stage(Stage& st, NodeContext ctx,
                         sim::Channel<ReducedChunk>& in, ReduceMetrics& m) {
  std::map<int, RunBuilder> builders;
  for (;;) {
    auto item = co_await in.recv();
    if (!item) break;
    RunBuilder& builder = builders[item->partition];
    for (std::size_t i = 0; i < item->pairs.size(); ++i) {
      builder.add_encoded(item->pairs.encoded_pair(i));
    }
    if (item->last_of_partition) {
      co_await write_output(st, ctx, item->partition, std::move(builder), m);
      builders.erase(item->partition);
    }
    item->out_hold.release();
  }
}

// TeraSort-style jobs: no reduce function; the merged partitions are the
// final output (§IV-A1).
sim::Task<> merge_only_reduce(Stage& st, NodeContext ctx,
                              std::vector<int> partitions, ReduceMetrics& m) {
  for (int p : partitions) {
    if (!ctx.self_live()) break;  // as in input_stage
    std::shared_ptr<BackingRun> merged = co_await final_merge(st, ctx, p, m);
    if (merged == nullptr) continue;
    // The merged run is uncompressed and shares our pair framing: its
    // payload can be appended to the output builder wholesale.
    RunBuilder builder;
    builder.add_encoded(
        std::string_view(reinterpret_cast<const char*>(merged->run.data.data()),
                         merged->run.data.size()),
        merged->run.pairs);
    merged.reset();  // frees the run and its merge-pool hold
    co_await write_output(st, ctx, p, std::move(builder), m);
  }
}

}  // namespace

std::string partition_output_path(const JobConfig& config, int g) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/part-%05d", g);
  return config.output_path + buf;
}

sim::Task<> run_reduce_phase(NodeContext ctx, std::vector<int> partitions,
                             ReduceMetrics& metrics) {
  auto& sim = ctx.sim();
  const JobConfig& cfg = *ctx.config;

  StageGraph g(sim, ctx.scoped("reduce"), ctx.node_id);

  if (!ctx.app->reduce.has_value()) {
    // Must stay inline-awaited: spawning would reorder the final Dfs
    // writes relative to other nodes' events.
    Stage& st = g.inline_stage("input");
    co_await merge_only_reduce(st, ctx, std::move(partitions), metrics);
    co_return;
  }

  sim::Resource& in_buffers = g.pool(cfg.buffering);
  sim::Resource& out_buffers = g.pool(cfg.buffering);
  auto& c12 = g.channel<ReduceChunk>(8);
  auto& c23 = g.channel<ReduceChunk>(8);
  auto& c34 = g.channel<ReducedChunk>(8);
  auto& c45 = g.channel<ReducedChunk>(8);

  ReduceMetrics& m = metrics;
  g.add_stage("input", 1, [&, ctx, partitions](Stage& st) {
    return input_stage(st, ctx, partitions, in_buffers, c12, m);
  });
  g.add_stage("stage", 1,
              [&, ctx](Stage& st) { return stage_stage(st, ctx, c12, c23); });
  g.add_stage("kernel", 1, [&, ctx](Stage& st) {
    return kernel_stage(st, ctx, c23, out_buffers, c34, m);
  });
  g.add_stage("retrieve", 1, [&, ctx](Stage& st) {
    return retrieve_stage(st, ctx, c34, c45);
  });
  g.add_stage("output", 1,
              [&, ctx](Stage& st) { return output_stage(st, ctx, c45, m); });
  co_await g.run();
}

}  // namespace gw::core

#include "baselines/gpmr/gpmr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "core/collector.h"
#include "core/kv.h"
#include "core/pipeline.h"
#include "core/stage.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace gw::gpmr {

namespace {

struct Shared {
  cluster::Platform* platform;
  dfs::FileSystem* fs;
  const core::AppKernels* app;
  const GpmrConfig* cfg;
  std::vector<cl::Device*> devices;
  int num_nodes;

  // Per-node input slice (real bytes) loaded in the I/O phase.
  std::vector<util::Bytes> slices;
  // bins[dst][src]: pairs produced on src destined for dst.
  std::vector<std::vector<core::PairList>> bins;

  std::uint64_t records = 0;
  std::uint64_t pairs = 0;
  std::uint64_t peak_intermediate = 0;
};

// I/O phase: read this node's contiguous share of every (fully replicated)
// input file from the local filesystem. No compute overlap.
sim::Task<> io_phase(core::Stage& st, Shared& sh) {
  const int node = st.node();
  const core::AppKernels& app = *sh.app;
  core::Stage::BusyScope busy(st);
  util::Bytes slice;
  for (const auto& path : sh.cfg->input_paths) {
    const std::uint64_t size = sh.fs->file_size(path);
    const std::uint64_t lo = size * node / sh.num_nodes;
    const std::uint64_t hi = size * (node + 1) / sh.num_nodes;
    core::InputSplit split(path, lo, hi - lo);
    util::Bytes part =
        co_await core::read_aligned_split(*sh.fs, node, app, split);
    slice.insert(slice.end(), part.begin(), part.end());
  }
  sh.slices[node] = std::move(slice);
}

// Compute phase: chunked map kernels on the GPU; per-chunk combine (GPMR's
// partial reduction); bin results by destination node in host memory.
sim::Task<> map_phase(core::Stage& st, Shared& sh) {
  const int node = st.node();
  core::Stage::BusyScope busy(st);
  const core::AppKernels& app = *sh.app;
  const GpmrConfig& cfg = *sh.cfg;
  cl::Device& device = *sh.devices[node];
  const util::Bytes& slice = sh.slices[node];
  const std::string_view all(reinterpret_cast<const char*>(slice.data()),
                             slice.size());

  // Chunk at record boundaries (the slice itself is record-aligned).
  const std::uint64_t rec = app.fixed_record_size;
  const std::uint64_t step =
      rec > 0 ? std::max<std::uint64_t>(cfg.chunk_size / rec * rec, rec)
              : cfg.chunk_size;
  std::uint64_t local_bytes = 0;
  for (std::uint64_t base = 0; base < all.size(); base += step) {
    const std::string_view chunk =
        all.substr(base, std::min<std::uint64_t>(step, all.size() - base));
    const std::vector<std::uint64_t> offsets = core::frame_records(app, chunk);
    if (offsets.empty()) continue;
    sh.records += offsets.size();

    co_await device.stage_in(chunk.size());
    const std::size_t groups = std::max<std::size_t>(
        1, std::min<std::size_t>(cl::Device::kDefaultWorkGroups,
                                 offsets.size()));
    const bool combine_on = cfg.use_combiner && app.combine.has_value();
    auto collector = core::make_collector(combine_on
                                              ? core::OutputMode::kHashTable
                                              : core::OutputMode::kSharedPool,
                                          groups);
    cl::KernelStats map_stats = co_await device.run_kernel_grouped(
        offsets.size(), groups,
        [&](std::size_t i, std::size_t g, cl::KernelCounters& c) {
          const std::uint64_t begin = offsets[i];
          const std::uint64_t end =
              (i + 1 < offsets.size()) ? offsets[i + 1] : chunk.size();
          c.charge_read(end - begin);
          class Emitter : public core::MapEmitter {
           public:
            Emitter(core::MapOutputCollector* col, std::size_t group,
                    cl::KernelCounters* c)
                : col_(col), group_(group), c_(c) {}
            void emit(std::string_view k, std::string_view v) override {
              col_->emit(group_, k, v, *c_);
            }

           private:
            core::MapOutputCollector* col_;
            std::size_t group_;
            cl::KernelCounters* c_;
          };
          Emitter emitter(collector.get(), g, &c);
          core::MapContext ctx{&emitter, &c};
          app.map(chunk.substr(begin, end - begin), ctx);
        },
        cfg.map_launch);
    if (cfg.kernel_ops_factor > 1.0) {
      cl::KernelStats extra;
      extra.ops = static_cast<std::uint64_t>(
          static_cast<double>(map_stats.ops) * (cfg.kernel_ops_factor - 1.0));
      co_await device.charge_kernel(extra, cfg.map_launch);
    }
    core::MapChunkOutput out = co_await collector->finalize(
        device,
        combine_on ? app.combine : std::optional<core::CombineFn>{},
        cl::LaunchConfig{});
    co_await device.stage_out(out.pairs.blob_bytes());

    sh.pairs += out.pairs.size();
    local_bytes += out.pairs.blob_bytes();
    sh.peak_intermediate = std::max(sh.peak_intermediate, local_bytes);
    // In-core constraint: intermediate data must fit in host memory.
    GW_CHECK_MSG(local_bytes <= sh.platform->node(node).spec().ram_bytes,
                 "GPMR intermediate data exceeds host memory");

    for (std::size_t i = 0; i < out.pairs.size(); ++i) {
      const core::KV kv = out.pairs.get(i);
      const int dst = static_cast<int>(
          app.partition(kv.key, static_cast<std::uint32_t>(sh.num_nodes)));
      sh.bins[dst][node].add(kv.key, kv.value);
    }
  }
}

// Exchange + reduce phase on the destination node.
sim::Task<> reduce_phase(core::Stage& st, Shared& sh, GpmrResult& result) {
  const int node = st.node();
  core::Stage::BusyScope busy(st);
  const std::int32_t exchange_name = st.span_name("exchange");
  cl::Device& device = *sh.devices[node];
  const core::AppKernels& app = *sh.app;

  // Pull this node's bins from every producer (network charge).
  core::PairList mine;
  for (int src = 0; src < sh.num_nodes; ++src) {
    core::PairList& bin = sh.bins[node][src];
    if (src != node && bin.blob_bytes() > 0) {
      st.instant(trace::Kind::kShuffle, exchange_name, bin.blob_bytes());
      co_await sh.platform->transport().transfer(
          src, node, net::kPortShuffle, net::TrafficClass::kShuffle,
          bin.blob_bytes());
    }
    mine.append(bin);
    bin.clear();
  }
  if (mine.empty()) co_return;

  // GPU sort to group keys. The sort charge depends only on pre-sort sizes,
  // so the real sort (and the key grouping that follows it) runs on the
  // offload pool while the simulated sort kernel executes.
  cl::KernelStats sort_stats;
  sort_stats.ops = static_cast<std::uint64_t>(
      static_cast<double>(mine.size()) *
      std::max(1.0, std::log2(static_cast<double>(mine.size()))) * 8.0);
  sort_stats.bytes_read = mine.blob_bytes();
  sort_stats.bytes_written = mine.blob_bytes();

  // Group and reduce (one work-item per key).
  struct Group {
    Group() = default;
    std::string_view key;
    std::vector<std::string_view> values;
  };
  std::vector<Group> groups;
  auto sorting = sh.platform->sim().offload([&mine, &groups] {
    mine.sort_by_key();
    std::size_t i = 0;
    while (i < mine.size()) {
      Group g;
      g.key = mine.get(i).key;
      std::size_t j = i;
      while (j < mine.size() && mine.get(j).key == g.key) {
        g.values.push_back(mine.get(j).value);
        ++j;
      }
      groups.push_back(std::move(g));
      i = j;
    }
    return 0;
  });
  co_await device.charge_kernel(sort_stats);
  co_await sh.platform->sim().join(std::move(sorting));
  std::vector<util::CacheAligned<core::PairList>> out_lists(
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   cl::Device::kDefaultWorkGroups,
                                   groups.size())));
  co_await device.run_kernel_grouped(
      groups.size(), out_lists.size(),
      [&](std::size_t gi, std::size_t wg, cl::KernelCounters& c) {
        const Group& g = groups[gi];
        std::uint64_t bytes = g.key.size();
        for (auto v : g.values) bytes += v.size();
        c.charge_read(bytes);
        class Emitter : public core::ReduceEmitter {
         public:
          Emitter(core::PairList* out, cl::KernelCounters* c)
              : out_(out), c_(c) {}
          void emit(std::string_view k, std::string_view v) override {
            out_->add(k, v);
            c_->charge_write(k.size() + v.size());
          }

         private:
          core::PairList* out_;
          cl::KernelCounters* c_;
        };
        Emitter emitter(&out_lists[wg].value, &c);
        core::ReduceContext ctx{&emitter, &c};
        if (app.reduce.has_value()) {
          (*app.reduce)(g.key, g.values, ctx);
        } else {
          for (auto v : g.values) ctx.emit(g.key, v);
        }
      });
  for (const auto& slot : out_lists) {
    const core::PairList& pl = slot.value;
    for (std::size_t e = 0; e < pl.size(); ++e) {
      const core::KV kv = pl.get(e);
      result.output[std::string(kv.key)] = std::string(kv.value);
    }
  }
}

// One cluster-wide StageGraph per phase: worker n runs on node n. GPMR
// inserts a barrier between phases, so each graph drains fully before the
// next starts.
std::unique_ptr<core::StageGraph> make_phase_graph(Shared& sh,
                                                   GpmrResult* result,
                                                   int phase) {
  auto g = std::make_unique<core::StageGraph>(sh.platform->sim(), "gpmr", 0);
  std::vector<int> node_of;
  for (int n = 0; n < sh.num_nodes; ++n) node_of.push_back(n);
  const char* name = phase == 0 ? "io" : (phase == 1 ? "map" : "reduce");
  g->add_stage(name, sh.num_nodes, node_of, [&sh, result, phase](
                                                core::Stage& st) {
    switch (phase) {
      case 0:
        return io_phase(st, sh);
      case 1:
        return map_phase(st, sh);
      default:
        return reduce_phase(st, sh, *result);
    }
  });
  return g;
}

}  // namespace

GpmrRuntime::GpmrRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                         cl::DeviceSpec device)
    : platform_(platform), fs_(fs), device_spec_(std::move(device)) {
  GW_CHECK_MSG(device_spec_.type != cl::DeviceType::kCpu,
               "GPMR runs on GPUs only");
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    devices_.push_back(
        std::make_unique<cl::Device>(platform_.sim(), device_spec_, nullptr, n));
  }
}

GpmrResult GpmrRuntime::run(const core::AppKernels& app, GpmrConfig config) {
  core::AppKernels effective_app = app;
  if (!effective_app.partition) {
    effective_app.partition = core::default_hash_partitioner();
  }

  auto& sim = platform_.sim();
  sim.tracer().clear();  // one job per trace
  GpmrResult result;

  Shared sh;
  sh.platform = &platform_;
  sh.fs = &fs_;
  sh.app = &effective_app;
  sh.cfg = &config;
  sh.num_nodes = platform_.num_nodes();
  for (auto& d : devices_) sh.devices.push_back(d.get());
  sh.slices.resize(sh.num_nodes);
  sh.bins.resize(sh.num_nodes);
  for (auto& b : sh.bins) b.resize(sh.num_nodes);

  auto& tr = sim.tracer();
  const auto phase_track = tr.track(0, "phase");
  const auto phase_names = std::array<std::int32_t, 3>{
      tr.intern("phase.io"), tr.intern("phase.map"), tr.intern("phase.reduce")};
  auto run_phase = [&](int phase) {
    auto g = make_phase_graph(sh, &result, phase);
    tr.begin(phase_track, trace::Kind::kPhase, phase_names[phase], sim.now());
    sim.spawn(g->run());
    sim.run();
    tr.end(phase_track, trace::Kind::kPhase, phase_names[phase], sim.now());
  };

  // Phase barriers: I/O, then compute, then exchange+reduce — GPMR does not
  // overlap them (total = sum), which is exactly the paper's Fig 3(e) point.
  const double t0 = sim.now();
  run_phase(0);
  result.io_seconds = sim.now() - t0;

  const double t1 = sim.now();
  run_phase(1);
  if (!config.skip_reduce) {
    run_phase(2);
  } else {
    // MM mode: partial results stay on the nodes; expose them merged for
    // verification only (no simulated cost).
    for (int dst = 0; dst < sh.num_nodes; ++dst) {
      for (int src = 0; src < sh.num_nodes; ++src) {
        const core::PairList& bin = sh.bins[dst][src];
        for (std::size_t e = 0; e < bin.size(); ++e) {
          const core::KV kv = bin.get(e);
          result.output[std::string(kv.key)] = std::string(kv.value);
        }
      }
    }
  }
  result.compute_seconds = sim.now() - t1;

  result.elapsed_seconds = config.charge_input_io
                               ? result.io_seconds + result.compute_seconds
                               : result.compute_seconds;
  result.input_records = sh.records;
  result.intermediate_pairs = sh.pairs;
  result.peak_intermediate_bytes = sh.peak_intermediate;
  return result;
}

}  // namespace gw::gpmr

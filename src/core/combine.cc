#include "core/combine.h"

#include <utility>

#include "util/error.h"

namespace gw::core {

namespace {

// Unbounded budget: buffered pre-combine bytes per node before a combine
// flush. A nonzero budget flushes when the combine pool is full instead.
constexpr std::uint64_t kCombineBufferBytes = 4ull << 20;

// Bridges the combine function's emits into a RunBuilder. The combine
// contract (emit the group's key) keeps the builder's input key-sorted.
class RunBuilderEmitter : public ReduceEmitter {
 public:
  explicit RunBuilderEmitter(RunBuilder* b) : b_(b) {}
  void emit(std::string_view key, std::string_view value) override {
    b_->add(key, value);
  }

 private:
  RunBuilder* b_;
};

}  // namespace

Run combine_runs(const std::vector<const Run*>& inputs,
                 const CombineFn& combine, bool compress) {
  // One sorted stream, then fold each equal-key group through the combine
  // function. Views returned by the reader stay valid for its lifetime, so
  // a group's values are collected without copying.
  const Run merged = merge_runs(inputs, /*compress=*/false);
  RunBuilder rb;
  RunBuilderEmitter emitter(&rb);
  cl::KernelCounters counters;
  RunReader reader(merged);
  KV kv;
  std::string_view group_key;
  std::vector<std::string_view> values;
  bool have = false;
  const auto fold = [&] {
    ReduceContext rctx{&emitter, &counters};
    combine(group_key, values, rctx);
    values.clear();
  };
  while (reader.next(&kv)) {
    if (!have || kv.key != group_key) {
      if (have) fold();
      group_key = kv.key;
      have = true;
    }
    values.push_back(kv.value);
  }
  if (have) fold();
  return rb.finish(compress);
}

RackTopology::RackTopology(int rack_size, const std::vector<int>& live_nodes)
    : rack_size_(rack_size) {
  for (int n : live_nodes) {
    const auto rack = static_cast<std::size_t>(n / rack_size_);
    if (racks_.size() <= rack) racks_.resize(rack + 1);
    racks_[rack].push_back(n);
  }
  for (const std::vector<int>& members : racks_) {
    if (!members.empty()) aggregators_.push_back(members.front());
  }
}

NodeCombiner::NodeCombiner(NodeContext ctx, Tier tier,
                           const RackTopology& racks)
    : ctx_(std::move(ctx)),
      tier_(tier),
      racks_(racks),
      combine_(&ctx_.app->combine.value()),
      sends_(ctx_.sim()) {
  auto& tr = ctx_.sim().tracer();
  track_ = tr.track(ctx_.node_id, tier_ == Tier::kMap ? "combine" : "rackagg");
  combine_name_ =
      tr.intern(tier_ == Tier::kMap ? "combine.node" : "combine.rack");
}

sim::Task<> NodeCombiner::add(int g, std::vector<std::uint64_t> tags,
                              Run run) {
  if (run.empty()) co_return;
  const std::uint64_t bytes = run.stored_bytes();
  MemoryGovernor& mem = *ctx_.mem;
  const bool full =
      mem.bounded()
          ? !mem.fits(MemoryGovernor::Pool::kCombine, bytes)
          : buffered_ > 0 && buffered_ + bytes > kCombineBufferBytes;
  if (full) co_await flush_all();  // releases this combiner's staging holds
  if (!mem.fits(MemoryGovernor::Pool::kCombine, bytes)) {
    // Still no room: another combiner on this node holds the pool. Pass
    // the run through uncombined rather than block — blocking here could
    // deadlock the map phase against a rack aggregator that is waiting
    // for this very node's end-of-stream.
    ++metrics_.passthrough;
    route(g, std::move(tags), std::move(run));
    co_return;
  }
  sim::Resource::Hold hold =
      co_await mem.acquire(MemoryGovernor::Pool::kCombine, bytes);
  Bucket& b = buckets_[g];
  b.tags.push_back(std::move(tags));
  b.runs.push_back(std::move(run));
  b.holds.push_back(std::move(hold));
  b.bytes += bytes;
  buffered_ += bytes;
}

sim::Task<> NodeCombiner::flush_all() {
  // Ascending partition order; concurrent adds during a flush create fresh
  // buckets, which this loop picks up before returning.
  while (!buckets_.empty()) {
    co_await flush(buckets_.begin()->first);
  }
}

sim::Task<> NodeCombiner::flush(int g) {
  auto it = buckets_.find(g);
  if (it == buckets_.end()) co_return;
  // Detach the bucket before the first await so interleaved adds for the
  // same partition start a fresh one instead of mutating ours mid-flush.
  // Its staging holds release when this coroutine completes.
  Bucket b = std::move(it->second);
  buckets_.erase(it);
  buffered_ -= b.bytes;
  if (b.runs.empty()) co_return;

  std::uint64_t in_stored = 0;
  std::uint64_t in_raw = 0;
  for (const Run& r : b.runs) {
    in_stored += r.stored_bytes();
    in_raw += r.raw_bytes;
  }
  metrics_.in_bytes += in_stored;
  ++metrics_.flushes;

  auto& sim = ctx_.sim();
  auto& tr = sim.tracer();
  const HostCosts& h = ctx_.config->host;
  tr.begin(track_, trace::Kind::kCombine, combine_name_, sim.now(), in_stored);
  // The real merge+combine runs on the host pool while the input-dependent
  // charge (decompress + merge) elapses; the output-dependent charge
  // (serialize + compress) follows once the combined size is known.
  auto work = sim.offload([&runs = b.runs, combine = combine_] {
    std::vector<const Run*> inputs;
    inputs.reserve(runs.size());
    for (const Run& r : runs) inputs.push_back(&r);
    return combine_runs(inputs, *combine, /*compress=*/true);
  });
  co_await ctx_.node->cpu_work(
      static_cast<double>(in_stored) / h.decompress_bytes_per_s +
      static_cast<double>(in_raw) / h.merge_bytes_per_s);
  Run out = co_await sim.join(std::move(work));
  co_await ctx_.node->cpu_work(
      static_cast<double>(out.raw_bytes) / h.serialize_bytes_per_s +
      static_cast<double>(out.raw_bytes) / h.compress_bytes_per_s);
  tr.end(track_, trace::Kind::kCombine, combine_name_, sim.now());
  if (out.stored_bytes() < in_stored) {
    // The combined run carries the union of its constituents' tags.
    std::vector<std::uint64_t> tags;
    for (const auto& t : b.tags) tags.insert(tags.end(), t.begin(), t.end());
    metrics_.out_bytes += out.stored_bytes();
    route(g, std::move(tags), std::move(out));
    co_return;
  }
  // Keys barely repeat here and the re-compressed run came out no smaller:
  // ship the inputs as they came, each under its own tags.
  metrics_.out_bytes += in_stored;
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    route(g, std::move(b.tags[i]), std::move(b.runs[i]));
  }
}

void NodeCombiner::route(int g, std::vector<std::uint64_t> tags, Run run) {
  if (run.empty()) return;
  const int dest = ctx_.owner_of(g);
  int dst = dest;
  int port = ctx_.shuffle_port;
  net::TrafficClass tc = net::TrafficClass::kShuffle;
  if (!racks_.flat()) {
    if (tier_ == Tier::kMap && !racks_.same_rack(dest, ctx_.node_id)) {
      // Extra-rack output funnels through this rack's aggregator on the
      // dedicated intra-rack traffic class; only the aggregator's
      // consolidated stream crosses the core switch.
      dst = racks_.aggregator(ctx_.node_id);
      port = ctx_.port_base + net::kPortRackAgg;
      tc = net::TrafficClass::kRackAgg;
    } else if (tier_ == Tier::kRackAgg &&
               racks_.same_rack(dest, ctx_.node_id)) {
      // The partition was reassigned into our rack (a crash) after members
      // routed it here; its owner's shuffle stream may already be closed.
      // Drop it — the recovery round re-feeds its pre-combine provenance
      // from the members' ledgers.
      return;
    }
  }
  const std::uint64_t wire =
      send_run(ctx_, sends_, dst, port, tc, g, std::move(run), std::move(tags));
  if (dst != ctx_.node_id) metrics_.wire_bytes += wire;
}

sim::Task<> NodeCombiner::drain() {
  co_await flush_all();
  co_await sends_.wait();
}

void NodeCombiner::discard() {
  buckets_.clear();  // Hold destructors release the staging memory
  buffered_ = 0;
}

}  // namespace gw::core

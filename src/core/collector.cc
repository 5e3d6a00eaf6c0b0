#include "core/collector.h"

#include <bit>
#include <numeric>

#include "util/error.h"
#include "util/hash.h"

namespace gw::core {

namespace {

// ReduceEmitter writing into a per-group PairList, charging device-memory
// writes for emitted bytes.
class PairListEmitter : public ReduceEmitter {
 public:
  PairListEmitter(PairList* out, cl::KernelCounters* c) : out_(out), c_(c) {}
  void emit(std::string_view key, std::string_view value) override {
    out_->add(key, value);
    c_->charge_write(key.size() + value.size());
  }

 private:
  PairList* out_;
  cl::KernelCounters* c_;
};

}  // namespace

std::unique_ptr<MapOutputCollector> make_collector(OutputMode mode,
                                                   std::size_t groups) {
  if (mode == OutputMode::kSharedPool) {
    return std::make_unique<SharedPoolCollector>(groups);
  }
  return std::make_unique<HashTableCollector>(groups);
}

SharedPoolCollector::SharedPoolCollector(std::size_t groups)
    : MapOutputCollector(groups), per_group_(groups) {}

void SharedPoolCollector::emit(std::size_t group, std::string_view key,
                               std::string_view value, cl::KernelCounters& c) {
  // One atomic bump allocation, then the stores.
  c.charge_atomic(1);
  c.charge_write(key.size() + value.size());
  per_group_[group].value.add(key, value);
}

sim::Task<MapChunkOutput> SharedPoolCollector::finalize(
    cl::Device& /*device*/, const std::optional<CombineFn>& combine,
    cl::LaunchConfig /*launch*/) {
  GW_CHECK_MSG(!combine.has_value(),
               "combiner requires the hash-table collector (as in the paper)");
  MapChunkOutput out;
  for (auto& pl : per_group_) {
    out.pairs.append(pl.value);
    pl.value.clear();
  }
  out.grouped = false;
  out.distinct_keys = 0;  // unknown without grouping
  co_return std::move(out);
}

HashTableCollector::Table::Table() : slots(kInitialSlots) {}

void HashTableCollector::Table::grow() {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  const std::uint64_t mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (s.key_off == kEmpty) continue;
    std::uint64_t idx = s.hash & mask;
    while (slots[idx].key_off != kEmpty) idx = (idx + 1) & mask;
    slots[idx] = s;
  }
}

void HashTableCollector::Table::insert(std::string_view key,
                                       std::string_view value,
                                       cl::KernelCounters& c) {
  if (used * 10 >= slots.size() * 7) {
    grow();
    c.charge_ops(used * 4);  // rehash cost
  }
  const std::uint64_t h = util::fnv1a(key);
  c.charge_ops(key.size());  // hashing the key
  const std::uint64_t mask = slots.size() - 1;
  std::uint64_t idx = h & mask;
  for (;;) {
    Slot& s = slots[idx];
    c.charge_hash_probe(1);
    ++probes;
    if (s.key_off == kEmpty) {
      // Claim the slot (CAS) and store the key once.
      c.charge_atomic(1);
      c.charge_write(key.size());
      s.hash = h;
      s.key_off = blob.size();
      s.key_len = static_cast<std::uint32_t>(key.size());
      blob.insert(blob.end(), key.begin(), key.end());
      ++used;
      break;
    }
    if (s.hash == h && view(s.key_off, s.key_len) == key) break;
    idx = (idx + 1) & mask;
  }
  // Append the value to the key's chain: one atomic head swap plus stores.
  Slot& s = slots[idx];
  c.charge_atomic(1);
  c.charge_write(value.size());
  const std::uint64_t voff = blob.size();
  blob.insert(blob.end(), value.begin(), value.end());
  values.push_back(ValueNode{voff, static_cast<std::uint32_t>(value.size()),
                             s.head});
  s.head = static_cast<std::uint32_t>(values.size() - 1);
  s.num_values++;
}

HashTableCollector::HashTableCollector(std::size_t groups)
    : MapOutputCollector(groups), tables_(groups) {}

void HashTableCollector::emit(std::size_t group, std::string_view key,
                              std::string_view value, cl::KernelCounters& c) {
  tables_[group].value.insert(key, value, c);
}

std::uint64_t HashTableCollector::total_probes() const {
  std::uint64_t total = 0;
  for (const auto& t : tables_) total += t.value.probes;
  return total;
}

sim::Task<MapChunkOutput> HashTableCollector::finalize(
    cl::Device& device, const std::optional<CombineFn>& combine,
    cl::LaunchConfig launch) {
  // The whole host side of the step (gather, post-processing kernel,
  // concatenation, reset) is real work with no charge beyond the kernel's
  // own counters, so it is one kernel job on the pool: the event loop only
  // joins it where the kernel's charge is taken.
  MapChunkOutput out;
  out.grouped = true;
  cl::Device::KernelJobFn job = [this, &combine, &out] {
    return finalize_job(combine, out);
  };
  out.post_stats = co_await device.run_kernel_job(std::move(job), launch);
  co_return std::move(out);
}

cl::KernelStats HashTableCollector::finalize_job(
    const std::optional<CombineFn>& combine, MapChunkOutput& out) {
  // Gather: every occupied slot in group order, then slot order, listed
  // with its key's id. Ids are handed out in first-seen order through a
  // flat open-addressed index keyed by the fnv1a hash each slot stores.
  struct SlotRef {
    std::uint32_t table;
    std::uint32_t slot;
  };
  struct Listed {
    SlotRef ref;
    std::uint32_t key;
  };
  struct IndexEntry {
    std::uint32_t key = Table::kNil;
    std::uint32_t tag = 0;  // high hash bits; the low ones pick the bucket
  };
  std::size_t occupied = 0;
  for (const auto& t : tables_) occupied += t.value.used;
  std::vector<Listed> listed;
  listed.reserve(occupied);
  std::vector<std::string_view> keys;
  std::vector<IndexEntry> index(std::bit_ceil(2 * occupied + 1));
  const std::uint64_t mask = index.size() - 1;
  for (std::uint32_t ti = 0; ti < tables_.size(); ++ti) {
    const Table& t = tables_[ti].value;
    for (std::uint32_t si = 0; si < t.slots.size(); ++si) {
      const Table::Slot& s = t.slots[si];
      if (s.key_off == Table::kEmpty) continue;
      const std::string_view key = t.view(s.key_off, s.key_len);
      const auto tag = static_cast<std::uint32_t>(s.hash >> 32);
      std::uint64_t i = s.hash & mask;
      while (index[i].key != Table::kNil &&
             (index[i].tag != tag || keys[index[i].key] != key)) {
        i = (i + 1) & mask;
      }
      if (index[i].key == Table::kNil) {
        index[i] = {static_cast<std::uint32_t>(keys.size()), tag};
        keys.push_back(key);
      }
      listed.push_back({{ti, si}, index[i].key});
    }
  }

  // CSR: key k's slots are refs[start[k], start[k + 1]), in group order.
  std::vector<std::uint32_t> start(keys.size() + 1, 0);
  for (const Listed& l : listed) ++start[l.key + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<SlotRef> refs(listed.size());
  {
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (const Listed& l : listed) refs[next[l.key]++] = l.ref;
  }

  // Post-processing kernel over keys: combine, or compaction when no
  // combiner is configured (the paper always runs one of the two after
  // map() in hash-table mode, §IV-B1). Each work-group walks its keys'
  // value chains into its own scratch vector.
  const std::size_t groups = tables_.size();
  std::vector<util::CacheAligned<PairList>> out_groups(groups);
  std::vector<util::CacheAligned<std::vector<std::string_view>>> scratch(
      groups);
  const cl::KernelStats post = cl::Device::execute_grouped(
      keys.size(), groups,
      [&](std::size_t k, std::size_t g, cl::KernelCounters& c) {
        std::vector<std::string_view>& values = scratch[g].value;
        values.clear();
        std::uint64_t value_bytes = 0;
        for (std::uint32_t r = start[k]; r < start[k + 1]; ++r) {
          const Table& t = tables_[refs[r].table].value;
          const Table::Slot& s = t.slots[refs[r].slot];
          // Chains are newest-first: fill back to front to restore emit
          // order within the group.
          std::size_t at = values.size() + s.num_values;
          values.resize(at);
          for (std::uint32_t v = s.head; v != Table::kNil;
               v = t.values[v].next) {
            values[--at] = t.view(t.values[v].off, t.values[v].len);
            value_bytes += t.values[v].len;
          }
        }
        const std::string_view key = keys[k];
        c.charge_read(key.size() + value_bytes);
        PairList& pairs = out_groups[g].value;
        if (combine.has_value()) {
          PairListEmitter emitter(&pairs, &c);
          ReduceContext ctx{&emitter, &c};
          (*combine)(key, values, ctx);
        } else {
          // Compaction: place each key's values contiguously.
          c.charge_write(key.size() + value_bytes);
          for (const std::string_view v : values) pairs.add(key, v);
        }
      });

  for (const auto& pl : out_groups) out.pairs.append(pl.value);
  out.distinct_keys = keys.size();

  // Reset, keeping heap capacity: clear only the listed slots, then shrink
  // back to kInitialSlots so the next chunk's grow()/rehash charge sequence
  // matches a freshly constructed table exactly. Slots past kInitialSlots
  // go with the shrink.
  for (const Listed& l : listed) {
    if (l.ref.slot < Table::kInitialSlots) {
      tables_[l.ref.table].value.slots[l.ref.slot] = Table::Slot{};
    }
  }
  for (auto& slot : tables_) {
    Table& t = slot.value;
    out.hash_probes += t.probes;
    t.slots.resize(Table::kInitialSlots);
    t.blob.clear();
    t.values.clear();
    t.used = 0;
    t.probes = 0;
  }
  return post;
}

}  // namespace gw::core

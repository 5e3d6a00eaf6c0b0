#include "core/memory.h"

#include <algorithm>
#include <limits>

namespace gw::core {

MemoryGovernor::MemoryGovernor(sim::Simulation& sim,
                               std::uint64_t node_memory_bytes,
                               bool with_combine_pool)
    : sim_(sim), budget_(node_memory_bytes) {
  if (!bounded()) {
    for (auto& pool : pools_) {
      pool = std::make_unique<sim::Resource>(
          sim_, std::numeric_limits<std::int64_t>::max());
    }
    return;
  }
  // 20% map-input, 20% map-output, 40% store, the remainder (~20%) merge;
  // every pool gets at least one byte so a degenerate budget still admits
  // work serially. When the combine pool is enabled it takes 10% out of
  // the store share (store drops to 30%); the four legacy shares are
  // untouched otherwise, so non-combining governed jobs keep their exact
  // pool capacities (and event order).
  const std::uint64_t in_share = std::max<std::uint64_t>(1, budget_ / 5);
  const std::uint64_t out_share = std::max<std::uint64_t>(1, budget_ / 5);
  const std::uint64_t store_share = std::max<std::uint64_t>(
      1, with_combine_pool ? budget_ * 3 / 10 : budget_ * 2 / 5);
  const std::uint64_t combine_share =
      with_combine_pool ? std::max<std::uint64_t>(1, budget_ / 10) : 1;
  const std::uint64_t claimed =
      in_share + out_share + store_share +
      (with_combine_pool ? combine_share : 0);
  const std::uint64_t merge_share = std::max<std::uint64_t>(
      1, budget_ - std::min(budget_ - 1, claimed));
  pools_[0] = std::make_unique<sim::Resource>(
      sim_, static_cast<std::int64_t>(in_share));
  pools_[1] = std::make_unique<sim::Resource>(
      sim_, static_cast<std::int64_t>(out_share));
  pools_[2] = std::make_unique<sim::Resource>(
      sim_, static_cast<std::int64_t>(store_share));
  pools_[3] = std::make_unique<sim::Resource>(
      sim_, static_cast<std::int64_t>(merge_share));
  pools_[4] = std::make_unique<sim::Resource>(
      sim_, static_cast<std::int64_t>(combine_share));
}

std::uint64_t MemoryGovernor::pool_budget(Pool p) const {
  return static_cast<std::uint64_t>(
      pools_[static_cast<std::size_t>(p)]->capacity());
}

std::uint64_t MemoryGovernor::pool_in_use(Pool p) const {
  return static_cast<std::uint64_t>(
      pools_[static_cast<std::size_t>(p)]->in_use());
}

std::int64_t MemoryGovernor::clamp(Pool p, std::uint64_t bytes) const {
  const std::int64_t cap = pools_[static_cast<std::size_t>(p)]->capacity();
  if (bytes == 0) return 1;
  if (bytes > static_cast<std::uint64_t>(cap)) return cap;
  return static_cast<std::int64_t>(bytes);
}

bool MemoryGovernor::fits(Pool p, std::uint64_t bytes) const {
  const sim::Resource& r = *pools_[static_cast<std::size_t>(p)];
  return r.queue_length() == 0 && r.available() >= clamp(p, bytes);
}

bool MemoryGovernor::contended(Pool p) const {
  return pools_[static_cast<std::size_t>(p)]->queue_length() > 0;
}

MemoryGovernor::Acquire MemoryGovernor::acquire(Pool p, std::uint64_t bytes) {
  sim::Resource& pool = *pools_[static_cast<std::size_t>(p)];
  return Acquire(this, pool.acquire(clamp(p, bytes)), sim_.now());
}

sim::Resource::Hold MemoryGovernor::Acquire::await_resume() {
  sim::Resource::Hold hold = pool_.await_resume();
  gov_->stall_seconds_ += gov_->sim_.now() - t0_;
  gov_->note_occupancy();
  return hold;
}

void MemoryGovernor::note_occupancy() {
  std::uint64_t total = 0;
  for (const auto& pool : pools_) {
    total += static_cast<std::uint64_t>(pool->in_use());
  }
  peak_ = std::max(peak_, total);
}

}  // namespace gw::core

// Per-node memory governor for the external shuffle/sort path.
//
// Every buffer-holding component of the map/merge/reduce pipelines acquires
// its bytes from one of four per-stage budget pools carved out of
// JobConfig::node_memory_bytes: the map-input pool (staged input chunks),
// the map-output pool (framed collector output awaiting partitioning), the
// store pool (the intermediate store's run cache) and the merge pool (merge
// i/o buffers, decompression scratch and reduce-side merge inputs). Each
// pipeline stage draws from exactly one pool and no two stages of one
// pipeline ever queue on the same pool, so a stage blocked on its acquire
// can always be unblocked by a downstream stage releasing — the pool graph
// is acyclic and tiny budgets degrade to serial execution instead of
// deadlocking. Acquires block deterministically on the
// simulated clock under pressure — pool waiting is a FIFO sim::Resource, so
// results stay bit-identical across host thread counts — and the governor
// accounts the time spent blocked (mem_stall_seconds) plus the peak total
// occupancy (peak_mem_bytes, never above the budget by construction).
//
// Oversized single requests are clamped to the owning pool's full budget:
// an allocation larger than the pool is admitted alone, at full-pool
// occupancy, rather than deadlocking. This models "one buffer can always be
// processed, but nothing else runs beside it".
//
// Every node of every job has a governor. Budget 0 (node_memory_bytes ==
// 0) makes every pool unbounded: no acquire ever blocks, but holds still
// count toward peak_bytes().
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/sim.h"

namespace gw::core {

class MemoryGovernor {
 public:
  // Budget pools. Shares of node_memory_bytes: map-input 20%, map-output
  // 20%, store 40%, merge 20% (documented in DESIGN.md; the merge share
  // bounds the multi-level merge fan-in). With the combine pool enabled
  // (hierarchical combining active), the store share drops to 30% and the
  // combiner's staging buffers draw from a 10% combine pool — jobs without
  // combining keep the legacy four-pool split byte-identically.
  enum class Pool : int {
    kMapIn = 0,
    kMapOut = 1,
    kStore = 2,
    kMerge = 3,
    kCombine = 4,
  };
  static constexpr int kNumPools = 5;

  MemoryGovernor(sim::Simulation& sim, std::uint64_t node_memory_bytes,
                 bool with_combine_pool = false);

  std::uint64_t budget_bytes() const { return budget_; }
  // False for budget 0, whose pools are all unbounded.
  bool bounded() const { return budget_ > 0; }
  std::uint64_t pool_budget(Pool p) const;
  std::uint64_t pool_in_use(Pool p) const;

  // Awaiting acquire(p, bytes) clamps `bytes` to [1, pool_budget(p)] and
  // acquires that many units, blocking on the simulated clock while the pool
  // is exhausted. It yields a Hold that releases on destruction (or
  // explicitly via release()). A plain awaiter, not a coroutine: an acquire
  // that does not block completes inline and allocates nothing.
  class Acquire {
   public:
    bool await_ready() { return pool_.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { pool_.await_suspend(h); }
    sim::Resource::Hold await_resume();

   private:
    friend class MemoryGovernor;
    using PoolAwaiter =
        decltype(std::declval<sim::Resource&>().acquire(std::int64_t{1}));
    Acquire(MemoryGovernor* gov, PoolAwaiter pool, double t0)
        : gov_(gov), pool_(pool), t0_(t0) {}
    MemoryGovernor* gov_;
    PoolAwaiter pool_;
    double t0_;  // when the acquire was issued, for stall accounting
  };
  Acquire acquire(Pool p, std::uint64_t bytes);

  // Whether an acquire(p, bytes) would complete without blocking.
  bool fits(Pool p, std::uint64_t bytes) const;
  // Whether any coroutine is currently blocked on pool `p`.
  bool contended(Pool p) const;

  // Metrics.
  std::uint64_t peak_bytes() const { return peak_; }
  double stall_seconds() const { return stall_seconds_; }

 private:
  std::int64_t clamp(Pool p, std::uint64_t bytes) const;
  void note_occupancy();

  sim::Simulation& sim_;
  std::uint64_t budget_;
  std::array<std::unique_ptr<sim::Resource>, kNumPools> pools_;
  std::uint64_t peak_ = 0;
  double stall_seconds_ = 0;
};

}  // namespace gw::core

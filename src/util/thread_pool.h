// Work-stealing host-execution pool with futures.
//
// The simulator charges *simulated* time for kernels, but the work-items are
// real C++ and independent, so we execute them across host threads to speed
// up wall-clock runs on multicore machines. Two entry points:
//
//  - submit(fn) -> Future<T>: run fn on a worker thread; the caller joins
//    the future later. This is the offload-engine primitive: the simulator
//    submits a job at the simulated start of a compute phase and joins it at
//    the simulated point where the result is consumed, so independent nodes'
//    host work overlaps in wall-clock.
//  - parallel_for(begin, end, fn): fan a contiguous range out across the
//    pool and block until complete. The chunk decomposition depends only on
//    (begin, end) — never on the thread count — so per-chunk side effects
//    and counters are identical for every GW_THREADS setting; per-item
//    results are reduced associatively by the caller.
//
// Determinism: a pool with T threads executes the same set of pure jobs as
// a pool with 1 thread, only in a different wall-clock order. Each submitted
// task carries a deterministic sequential id (assigned in submission order,
// which the single-threaded simulator makes reproducible) usable as a seed;
// tasks spawned by parallel_for inherit the submitting task's id, so seeds
// never depend on the thread count.
//
// Joining a future from outside the pool "helps": if the task is still
// queued, the joiner claims and runs it inline. A 1-thread pool therefore
// has zero worker threads and degenerates to serial execution at the join
// points — the GW_THREADS=1 baseline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

namespace gw::util {

class ThreadPool;

// One slot of a per-group array that parallel_for chunks write, padded to a
// cache line of its own. ForJob hands out chunks one at a time, so
// neighbouring groups run on different threads at once; unpadded, their
// counters, tables and output lists share lines that bounce between cores
// on every record. The line size is a literal 64 (x86-64 and most arm64
// hosts): std::hardware_destructive_interference_size in a header draws
// GCC's -Winterference-size warning, which -Werror builds reject.
template <typename T>
struct alignas(64) CacheAligned {
  T value;
};

namespace detail {

struct TaskNode {
  std::function<void()> run;         // executes the body, completes the future
  std::atomic<bool> claimed{false};  // claimed by a worker or a helping joiner
  std::uint64_t seed_id = 0;         // deterministic per-task id
  bool counted = true;               // false for parallel_for helper tasks

  bool try_claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
};

struct FutureStateBase {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  std::uint64_t task_id = 0;
  ThreadPool* pool = nullptr;
  std::weak_ptr<TaskNode> node;  // claimable for inline help at join time
  std::atomic<int> handles{0};   // live Future handles referencing this task

  void mark_done();
  // Blocks until the task completed; if it is still queued, claims and runs
  // it on the calling thread instead (no deadlock on small pools).
  void wait();
  // Called when the last Future handle is dropped without a join. Task
  // closures may reference the abandoning caller's (dying) coroutine frame,
  // so an unclaimed task is claimed here and never runs; a task already
  // executing is waited for — the frame outlives this destructor call.
  void abandon();
};

template <typename T>
struct FutureState : FutureStateBase {
  std::optional<T> value;
};
template <>
struct FutureState<void> : FutureStateBase {};

}  // namespace detail

// Handle to a submitted task's eventual result. Copyable; get() is one-shot
// for move-only payloads (it moves the value out). Dropping every handle
// before the task ran CANCELS it (the closure is discarded unexecuted), so
// submitted work must be joined to take effect.
template <typename T>
class Future {
 public:
  Future() = default;
  Future(const Future& o) : state_(o.state_) { add_ref(); }
  Future(Future&& o) noexcept : state_(std::move(o.state_)) {}
  Future& operator=(const Future& o) {
    if (this != &o) {
      release();
      state_ = o.state_;
      add_ref();
    }
    return *this;
  }
  Future& operator=(Future&& o) noexcept {
    if (this != &o) {
      release();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  ~Future() { release(); }

  bool valid() const { return state_ != nullptr; }
  std::uint64_t task_id() const { return state_->task_id; }
  void wait() const { state_->wait(); }

  // Waits, then returns the task's result (rethrows its exception).
  T get() {
    state_->wait();
    if (state_->error) std::rethrow_exception(state_->error);
    if constexpr (!std::is_void_v<T>) return std::move(*state_->value);
  }

 private:
  friend class ThreadPool;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {
    add_ref();
  }
  void add_ref() {
    if (state_ != nullptr) {
      state_->handles.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void release() {
    if (state_ != nullptr &&
        state_->handles.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      state_->abandon();
    }
    state_.reset();
  }
  std::shared_ptr<detail::FutureState<T>> state_;
};

// The pool size GW_THREADS asks for: a decimal integer from 0 to
// ThreadPool::kMaxThreads, where 0 means hardware concurrency. nullopt for
// anything else (a sign, a suffix, an empty string, a larger number).
std::optional<std::size_t> parse_thread_count(std::string_view text);

class ThreadPool {
 public:
  // The largest pool GW_THREADS may ask for.
  static constexpr std::size_t kMaxThreads = 256;

  // threads == 0 picks GW_THREADS from the environment if set, else
  // hardware_concurrency (min 1). A GW_THREADS that parse_thread_count
  // rejects aborts, naming the variable, before any thread starts. A pool
  // of N threads runs N-1 workers; the caller participates in parallel_for
  // and in future joins.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  // Schedules fn to run on the pool; returns a future for its result.
  template <typename F>
  auto submit(F fn) -> Future<std::invoke_result_t<F&>> {
    using T = std::invoke_result_t<F&>;
    auto state = std::make_shared<detail::FutureState<T>>();
    auto node = std::make_shared<detail::TaskNode>();
    state->pool = this;
    state->task_id = next_task_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    state->node = node;
    node->seed_id = state->task_id;
    node->run = [state, fn = std::move(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<T>) {
          fn();
        } else {
          state->value.emplace(fn());
        }
      } catch (...) {
        state->error = std::current_exception();
      }
      state->mark_done();
    };
    enqueue(std::move(node));
    return Future<T>(std::move(state));
  }

  // Runs fn over [begin, end) partitioned into chunks claimed dynamically by
  // worker threads plus the calling thread; blocks until complete (rethrows
  // the lowest-chunk exception). fn(chunk_begin, chunk_end, chunk_index).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn);

  // Deterministic id of the task the calling thread is executing (0 outside
  // any pool task). parallel_for chunks report the enclosing task's id.
  static std::uint64_t current_task_id();

  // Process-wide shared pool (lazily constructed, honors GW_THREADS).
  static ThreadPool& global();
  // Replaces the global pool (tests / benchmarks only; the caller must
  // ensure no tasks are in flight). threads follows the ctor convention.
  static void reset_global(std::size_t threads);

  // Observability for wall-clock reports: submitted tasks executed and the
  // wall time their bodies consumed (nested parallel_for spans included).
  struct Stats {
    std::uint64_t tasks_executed = 0;
    double busy_seconds = 0;
  };
  Stats stats() const;

 private:
  friend struct detail::FutureStateBase;

  void enqueue(std::shared_ptr<detail::TaskNode> node);
  void run_node(detail::TaskNode& node);

  struct Impl;
  std::size_t threads_ = 1;
  std::atomic<std::uint64_t> next_task_id_{0};
  std::unique_ptr<Impl> impl_;
};

}  // namespace gw::util

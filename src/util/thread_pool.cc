#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "util/error.h"

namespace gw::util {

namespace {

// Deterministic id of the task the current thread is running (0 = none).
thread_local std::uint64_t t_current_task_id = 0;

std::size_t resolve_thread_count(std::size_t threads) {
  if (threads == 0) {
    if (const char* env = std::getenv("GW_THREADS")) {
      const std::optional<std::size_t> parsed = parse_thread_count(env);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "GW_THREADS=\"%s\": expected a whole number from 0 "
                     "(hardware concurrency) to %zu\n",
                     env, ThreadPool::kMaxThreads);
        std::abort();
      }
      threads = *parsed;
    }
  }
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return threads;
}

// parallel_for state, heap-allocated so straggler helper tasks that wake up
// after the loop completed can still touch it safely.
struct ForJob {
  ForJob(std::size_t begin, std::size_t total, std::size_t chunks,
         const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
      : begin(begin), total(total), chunks(chunks), fn(fn) {}

  const std::size_t begin, total, chunks;
  const std::function<void(std::size_t, std::size_t, std::size_t)>& fn;
  std::uint64_t parent_task_id = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;
  std::size_t error_chunk = static_cast<std::size_t>(-1);

  // Claims and runs chunks until none remain. Any participant (caller,
  // worker, helping joiner) may execute this; chunk boundaries depend only
  // on (begin, total, chunks), so the work done is identical regardless of
  // which thread claims which chunk.
  void run_chunks() {
    const std::uint64_t saved = t_current_task_id;
    t_current_task_id = parent_task_id;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      try {
        fn(begin + total * c / chunks, begin + total * (c + 1) / chunks, c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
    t_current_task_id = saved;
  }
};

}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t threads = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, threads);
  if (ec != std::errc{} || ptr != end || threads > ThreadPool::kMaxThreads) {
    return std::nullopt;
  }
  return threads;
}

struct ThreadPool::Impl {
  // One deque per worker (owner pushes/pops the back, thieves pop the
  // front) plus a global injector for tasks submitted from outside the
  // pool — i.e. from the single-threaded simulator.
  struct Deque {
    std::deque<std::shared_ptr<detail::TaskNode>> q;
  };

  std::mutex mutex;  // guards all deques + injector + sleep bookkeeping
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<detail::TaskNode>> injector;
  std::vector<Deque> deques;
  std::vector<std::thread> workers;
  bool stop = false;

  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> busy_nanos{0};

  // Index of the worker running on this thread, or -1.
  static thread_local int t_worker_index;

  std::shared_ptr<detail::TaskNode> pop_locked(int self) {
    if (self >= 0 && !deques[static_cast<std::size_t>(self)].q.empty()) {
      auto n = std::move(deques[static_cast<std::size_t>(self)].q.back());
      deques[static_cast<std::size_t>(self)].q.pop_back();
      return n;
    }
    if (!injector.empty()) {
      auto n = std::move(injector.front());
      injector.pop_front();
      return n;
    }
    const std::size_t w = deques.size();
    for (std::size_t k = 1; k <= w; ++k) {
      const std::size_t victim = (static_cast<std::size_t>(self + 1) + k) % w;
      if (!deques[victim].q.empty()) {
        auto n = std::move(deques[victim].q.front());
        deques[victim].q.pop_front();
        return n;
      }
    }
    return nullptr;
  }

  void worker_loop(ThreadPool* pool, int index) {
    t_worker_index = index;
    for (;;) {
      std::shared_ptr<detail::TaskNode> node;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stop || (node = pop_locked(index)); });
        if (node == nullptr) return;  // stop
      }
      if (node->try_claim()) pool->run_node(*node);
    }
  }
};

thread_local int ThreadPool::Impl::t_worker_index = -1;

void detail::FutureStateBase::mark_done() {
  std::lock_guard<std::mutex> lock(mutex);
  done = true;
  cv.notify_all();
}

void detail::FutureStateBase::abandon() {
  // Claiming an unclaimed task cancels it: pop sites skip claimed nodes, so
  // the closure (which may reference a dying coroutine frame) never runs.
  if (auto n = node.lock(); n != nullptr && n->try_claim()) return;
  // Already claimed: the task ran or is running on another thread. Wait it
  // out — everything its closure references is still alive during this call.
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done; });
}

void detail::FutureStateBase::wait() {
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (done) return;
  }
  // Help: if the task is still queued (common on small pools, guaranteed on
  // a 1-thread pool), run it right here instead of blocking.
  if (auto n = node.lock(); n != nullptr && n->try_claim()) {
    pool->run_node(*n);
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done; });
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(resolve_thread_count(threads)), impl_(new Impl) {
  // threads-1 workers; the caller participates in parallel_for and joins.
  const std::size_t workers = threads_ - 1;
  impl_->deques.resize(std::max<std::size_t>(1, workers));
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back(
        [this, i] { impl_->worker_loop(this, static_cast<int>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  // Complete any still-queued tasks inline so futures never dangle.
  for (;;) {
    std::shared_ptr<detail::TaskNode> node;
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      node = impl_->pop_locked(-1);
    }
    if (node == nullptr) break;
    if (node->try_claim()) run_node(*node);
  }
}

void ThreadPool::enqueue(std::shared_ptr<detail::TaskNode> node) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const int self = Impl::t_worker_index;
    if (self >= 0 && static_cast<std::size_t>(self) < impl_->deques.size()) {
      impl_->deques[static_cast<std::size_t>(self)].q.push_back(
          std::move(node));
    } else {
      impl_->injector.push_back(std::move(node));
    }
  }
  impl_->work_cv.notify_one();
}

void ThreadPool::run_node(detail::TaskNode& node) {
  const std::uint64_t saved = t_current_task_id;
  t_current_task_id = node.seed_id;
  const auto start = std::chrono::steady_clock::now();
  node.run();
  if (node.counted) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    impl_->busy_nanos.fetch_add(static_cast<std::uint64_t>(ns),
                                std::memory_order_relaxed);
    impl_->tasks_executed.fetch_add(1, std::memory_order_relaxed);
  }
  t_current_task_id = saved;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // Fixed fan-out: the decomposition must not depend on the thread count,
  // only the number of *helpers* does.
  constexpr std::size_t kMaxChunks = 64;
  const std::size_t chunks = std::min(total, kMaxChunks);
  if (chunks == 1 || threads_ == 1) {
    // Serial fast path; still a single fn call per chunk boundary set.
    auto job = std::make_shared<ForJob>(begin, total, chunks, fn);
    job->parent_task_id = t_current_task_id;
    job->run_chunks();
    if (job->error) std::rethrow_exception(job->error);
    return;
  }
  auto job = std::make_shared<ForJob>(begin, total, chunks, fn);
  job->parent_task_id = t_current_task_id;
  const std::size_t helpers = std::min(chunks, threads_) - 1;
  for (std::size_t i = 0; i < helpers; ++i) {
    auto node = std::make_shared<detail::TaskNode>();
    node->seed_id = job->parent_task_id;
    node->counted = false;
    node->run = [job] { job->run_chunks(); };
    enqueue(std::move(node));
  }
  job->run_chunks();
  std::unique_lock<std::mutex> lock(job->mutex);
  job->cv.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == job->chunks;
  });
  if (job->error) std::rethrow_exception(job->error);
}

std::uint64_t ThreadPool::current_task_id() { return t_current_task_id; }

namespace {
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  auto& slot = global_slot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::reset_global(std::size_t threads) {
  global_slot() = std::make_unique<ThreadPool>(threads);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = impl_->tasks_executed.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(impl_->busy_nanos.load(std::memory_order_relaxed)) *
      1e-9;
  return s;
}

}  // namespace gw::util

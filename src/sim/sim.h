// Discrete-event simulation engine.
//
// Every concurrent activity in the reproduced system — pipeline stages,
// merger threads, shuffle receivers, Hadoop task slots, device command
// queues, NIC transfers — is a C++20 coroutine (`sim::Task`) driven by a
// single `Simulation` event loop with a deterministic clock. Simulated
// processes wait with `co_await sim.delay(t)`, synchronize through counted
// `Resource`s (FIFO), one-shot `Event`s and bounded `Channel<T>`s, exactly
// the primitives the Glasswing runtime needs to express its 5-stage
// pipelines and buffer pools (paper §III-A, §III-D).
//
// Determinism: events are ordered by (time, insertion sequence); all wakeups
// go through the event queue (never resumed inline), so execution order is a
// pure function of the program and its seeds.
//
// Host-compute offload: real host work that a simulated process performs
// (kernel bodies, sorts, merges, compression) can be decoupled from the
// simulated timeline — submitted to the work-stealing `util::ThreadPool` at
// the simulated instant the work starts (`Simulation::offload`) and joined
// at the simulated instant its result is consumed (`co_await sim.join(f)`).
// The joining coroutine suspends with a pending-completion marker; the event
// loop resumes it *before* dispatching any further event, so event order is
// exactly that of a serial execution for every GW_THREADS value, while jobs
// whose submit and join lie at different simulated instants overlap in
// wall-clock with all events dispatched in between.
#pragma once

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace gw::sim {

class Simulation;
class TaskGroup;

namespace detail {

// Completion hook of a TaskGroup child (defined after TaskGroup).
void task_group_child_done(TaskGroup* group, std::exception_ptr error);

struct PromiseBase {
  Simulation* sim = nullptr;
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  bool detached = false;
  // Set on a detached TaskGroup child: completion (and any exception) is
  // reported to the group, so the child needs no wrapper coroutine.
  TaskGroup* group = nullptr;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.detached) {
        if (p.group != nullptr) {
          task_group_child_done(p.group, p.exception);
        } else {
          GW_CHECK_MSG(!p.exception, "detached sim::Task threw");
        }
        h.destroy();
        return std::noop_coroutine();
      }
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
};

}  // namespace detail

// A simulated process / async operation. Task<T> completes with a value of
// type T. Awaiting a Task starts it immediately (symmetric transfer);
// Simulation::spawn starts it as a detached root process.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        h.promise().continuation = parent;
        return h;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class Simulation;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class Simulation;
  friend class TaskGroup;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// The event loop. Single-threaded; simulated seconds.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  // Schedules `h` to resume after `delay` simulated seconds.
  void schedule(double delay, std::coroutine_handle<> h) {
    GW_CHECK_MSG(delay >= 0, "negative delay");
    queue_.push_back(Entry{now_ + delay, next_seq_++, h});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<Entry>{});
  }

  // Schedules at the current time, after already-queued same-time events.
  void schedule_now(std::coroutine_handle<> h) { schedule(0.0, h); }

  // Starts a detached root process at the current simulated time. The
  // coroutine frame self-destructs at final suspend.
  template <typename T>
  void spawn(Task<T>&& task) {
    GW_CHECK(task.handle_);
    auto h = std::exchange(task.handle_, {});
    h.promise().detached = true;
    schedule_now(h);
  }

  struct DelayAwaiter {
    Simulation* sim;
    double delay;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->schedule(delay, h); }
    void await_resume() {}
  };

  // co_await sim.delay(seconds)
  DelayAwaiter delay(double seconds) { return DelayAwaiter{this, seconds}; }

  // --- host-compute offload ---

  // Submits real host work to the process-wide pool. The returned future is
  // consumed with `co_await sim.join(std::move(f))` at the simulated point
  // where the result (or its derived charge) is needed.
  template <typename F>
  auto offload(F fn) {
    return util::ThreadPool::global().submit(std::move(fn));
  }

  template <typename T>
  class HostJoinAwaiter {
   public:
    HostJoinAwaiter(Simulation* sim, util::Future<T> f)
        : sim_(sim), future_(std::move(f)) {}
    // Suspends unconditionally — even when the job already finished — so the
    // resume path is identical whether or not the host happened to be fast.
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim_->pending_joins_.push_back(PendingJoin(future_, h));
    }
    T await_resume() { return future_.get(); }

   private:
    Simulation* sim_;
    util::Future<T> future_;
  };

  // co_await sim.join(std::move(future)) — rethrows the job's exception.
  template <typename T>
  HostJoinAwaiter<T> join(util::Future<T> f) {
    return HostJoinAwaiter<T>(this, std::move(f));
  }

  // Runs until the event queue drains. Returns the final simulated time.
  double run() {
    for (;;) {
      drain_pending_joins();
      if (queue_.empty()) break;
      step();
    }
    return now_;
  }

  // Runs events with time <= t_end, then sets now() = t_end.
  void run_until(double t_end) {
    for (;;) {
      drain_pending_joins();
      if (queue_.empty() || queue_.front().time > t_end) break;
      step();
    }
    if (t_end > now_) now_ = t_end;
  }

  std::uint64_t events_processed() const { return events_processed_; }

  // --- node failure injection ---
  //
  // Crash semantics (documented in DESIGN.md §III-E): a node crash is a
  // deterministic scheduled event. When it fires, node_alive(n) flips to
  // false and every registered listener runs synchronously, in registration
  // order, at the crash instant. Operations initiated before the crash
  // complete (the simulated hardware finishes in-flight DMA/disk work);
  // components consult node_alive() before STARTING new work. A restart
  // revives the node empty — lost state does not come back. When no crash is
  // scheduled, none of this adds events or changes behaviour.

  // True unless a crash event for `node` has fired (and no restart since).
  bool node_alive(int node) const {
    if (node < 0 || node >= static_cast<int>(alive_.size())) return true;
    return alive_[static_cast<std::size_t>(node)] != 0;
  }

  // Listener invoked at crash (`alive == false`) or restart (`alive ==
  // true`) time, on the sim thread, at an unchanged now(). Listeners may
  // spawn recovery processes. Returns an id for remove_crash_listener.
  using CrashListener = std::function<void(int node, bool alive)>;

  int add_crash_listener(CrashListener fn) {
    const int id = next_listener_id_++;
    crash_listeners_.emplace_back(id, std::move(fn));
    return id;
  }

  void remove_crash_listener(int id) {
    for (auto it = crash_listeners_.begin(); it != crash_listeners_.end();
         ++it) {
      if (it->first == id) {
        crash_listeners_.erase(it);
        return;
      }
    }
  }

  // Schedules `node` to crash `delay_s` simulated seconds from now, and —
  // when `restart_delay_s >= 0` (measured from now, must exceed `delay_s`)
  // — to restart empty at that later instant. Returns an id for
  // cancel_node_crash.
  int schedule_node_crash(int node, double delay_s,
                          double restart_delay_s = -1.0) {
    GW_CHECK(node >= 0);
    GW_CHECK_MSG(delay_s >= 0, "crash scheduled in the past");
    GW_CHECK_MSG(restart_delay_s < 0 || restart_delay_s > delay_s,
                 "restart must follow the crash");
    const int id = static_cast<int>(unfired_crashes_.size());
    Task<> process = crash_process(id, node, delay_s, restart_delay_s);
    unfired_crashes_.push_back(process.handle_);
    spawn(std::move(process));
    return id;
  }

  // Withdraws a crash that has not fired yet, together with its restart:
  // its queued entry goes, so it neither fires nor advances now(). A crash
  // that already fired is left as it is, pending restart included. Costs
  // one pass over the event queue; dispatch itself never checks for
  // cancelled entries.
  void cancel_node_crash(int id) {
    GW_CHECK_MSG(id >= 0 && id < static_cast<int>(unfired_crashes_.size()),
                 "cancel of an unknown crash id");
    std::coroutine_handle<>& process =
        unfired_crashes_[static_cast<std::size_t>(id)];
    if (!process) return;  // fired, or cancelled before
    std::erase_if(queue_,
                  [&](const Entry& e) { return e.handle == process; });
    std::make_heap(queue_.begin(), queue_.end(), std::greater<Entry>{});
    process.destroy();
    process = {};
  }

  // Flips liveness immediately and fires listeners. Exposed for tests; the
  // scheduled path above goes through here too.
  void set_node_alive(int node, bool alive) {
    GW_CHECK(node >= 0);
    if (static_cast<int>(alive_.size()) <= node) {
      alive_.resize(static_cast<std::size_t>(node) + 1, 1);
    }
    if ((alive_[static_cast<std::size_t>(node)] != 0) == alive) return;
    alive_[static_cast<std::size_t>(node)] = alive ? 1 : 0;
    // Iterate over a copy: listeners may register/unregister more listeners.
    const auto listeners = crash_listeners_;
    for (const auto& [id, fn] : listeners) fn(node, alive);
  }

  // Simulated-timeline tracer. Recording is a pure observer of the event
  // loop; callers stamp events with now(). Sim thread only.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  // Offload observability (wall-clock; never affects simulated time).
  std::uint64_t offload_joins() const { return offload_joins_; }
  double offload_join_block_seconds() const {
    return static_cast<double>(join_block_nanos_) * 1e-9;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  // A coroutine suspended on a host-job join: resumed (after blocking on the
  // job if needed) before the loop dispatches any further event, at an
  // unchanged now(). FIFO order = suspension order, which a serial execution
  // would also follow.
  struct PendingJoin {
    template <typename T>
    PendingJoin(const util::Future<T>& f, std::coroutine_handle<> h)
        : wait([f] { f.wait(); }), handle(h) {}
    std::function<void()> wait;
    std::coroutine_handle<> handle;
  };

  Task<> crash_process(int id, int node, double delay_s,
                       double restart_delay_s) {
    co_await delay(delay_s);
    unfired_crashes_[static_cast<std::size_t>(id)] = {};
    set_node_alive(node, false);
    if (restart_delay_s >= 0) {
      co_await delay(restart_delay_s - delay_s);
      set_node_alive(node, true);
    }
  }

  void step() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<Entry>{});
    const Entry e = queue_.back();
    queue_.pop_back();
    GW_CHECK(e.time >= now_);
    now_ = e.time;
    ++events_processed_;
    e.handle.resume();
  }

  void drain_pending_joins() {
    while (!pending_joins_.empty()) {
      PendingJoin p = std::move(pending_joins_.front());
      pending_joins_.pop_front();
      const auto start = std::chrono::steady_clock::now();
      p.wait();
      join_block_nanos_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      ++offload_joins_;
      p.handle.resume();  // may enqueue further events and pending joins
    }
  }

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t offload_joins_ = 0;
  std::uint64_t join_block_nanos_ = 0;
  // Binary min-heap on (time, seq), kept by hand rather than in a
  // std::priority_queue so cancel_node_crash can remove an entry.
  std::vector<Entry> queue_;
  std::deque<PendingJoin> pending_joins_;
  std::vector<char> alive_;  // lazily sized; absent == alive
  std::vector<std::pair<int, CrashListener>> crash_listeners_;
  int next_listener_id_ = 0;
  // By schedule_node_crash id: the crash's process while its crash is still
  // queued, null once it fired or was cancelled.
  std::vector<std::coroutine_handle<>> unfired_crashes_;
  trace::Tracer tracer_;
};

// One-shot event: processes wait until another sets it.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_->schedule_now(h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev->waiters_.push_back(h);
      }
      void await_resume() {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counted resource with FIFO admission. Models disks, NICs, PCIe links,
// host-core pools and the pipeline's data-buffer pools.
class Resource {
 public:
  Resource(Simulation& sim, std::int64_t capacity)
      : sim_(&sim), capacity_(capacity) {
    GW_CHECK(capacity > 0);
  }

  std::int64_t capacity() const { return capacity_; }
  std::int64_t in_use() const { return in_use_; }
  std::int64_t available() const { return capacity_ - in_use_; }
  std::size_t queue_length() const { return waiters_.size(); }

  // Move-only RAII hold; releases on destruction.
  class Hold {
   public:
    Hold() = default;
    Hold(Resource* r, std::int64_t n) : res_(r), n_(n) {}
    Hold(Hold&& o) noexcept
        : res_(std::exchange(o.res_, nullptr)), n_(std::exchange(o.n_, 0)) {}
    Hold& operator=(Hold&& o) noexcept {
      if (this != &o) {
        release();
        res_ = std::exchange(o.res_, nullptr);
        n_ = std::exchange(o.n_, 0);
      }
      return *this;
    }
    ~Hold() { release(); }

    void release() {
      if (res_) {
        res_->release(n_);
        res_ = nullptr;
        n_ = 0;
      }
    }
    // Disarms the hold WITHOUT releasing: the held units stay acquired and
    // must be returned later via Resource::release(n) by another party.
    // Used for ownership handoff across coroutine frames (e.g. transport
    // credit windows, where the receiver releases what the sender acquired).
    void forget() {
      res_ = nullptr;
      n_ = 0;
    }
    bool held() const { return res_ != nullptr; }

   private:
    Resource* res_ = nullptr;
    std::int64_t n_ = 0;
  };

  // co_await res.acquire(n) -> Hold
  auto acquire(std::int64_t n = 1) {
    GW_CHECK(n > 0 && n <= capacity_);
    struct Awaiter {
      Resource* res;
      std::int64_t n;
      bool await_ready() {
        // FIFO: even if capacity is free, queued waiters go first.
        if (res->waiters_.empty() && res->available() >= n) {
          res->in_use_ += n;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        res->waiters_.push_back(Waiter{n, h});
      }
      Hold await_resume() { return Hold(res, n); }
    };
    return Awaiter{this, n};
  }

  void release(std::int64_t n) {
    GW_CHECK(n > 0 && in_use_ >= n);
    in_use_ -= n;
    wake_waiters();
  }

  // Elastic resizing. Growing admits queued waiters immediately; shrinking
  // only lowers the admission threshold — outstanding holds are never
  // revoked, so `in_use_` may exceed the new capacity until holders release
  // (preemption of individual units happens at natural release boundaries).
  void set_capacity(std::int64_t capacity) {
    GW_CHECK(capacity > 0);
    const bool grew = capacity > capacity_;
    capacity_ = capacity;
    if (grew) wake_waiters();
  }

 private:
  struct Waiter {
    std::int64_t n;
    std::coroutine_handle<> handle;
  };

  void wake_waiters() {
    while (!waiters_.empty() && available() >= waiters_.front().n) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      in_use_ += w.n;  // reserve before the handle actually runs
      sim_->schedule_now(w.handle);
    }
  }

  Simulation* sim_;
  std::int64_t capacity_;
  std::int64_t in_use_ = 0;
  std::deque<Waiter> waiters_;
};

// Bounded MPMC channel connecting pipeline stages. recv() returns nullopt
// after close() once drained.
//
// Implementation note: send/recv are coroutines, so the value in flight
// lives in the send/recv coroutine frame and the blocked-waiter records hold
// only pointers into those frames. Carrying the payload inside a by-value
// awaiter object trips a GCC 12 coroutine bug (the materialized awaiter
// temporary is destroyed twice when the payload's move constructor is
// implicitly defined), which double-releases RAII members; pointer-only
// awaiters sidestep it.
//
// PAYLOAD RULE (GCC 12 workaround): types sent through a Channel, or
// constructed as temporaries inside a co_await full-expression, must have a
// user-declared constructor (i.e. must NOT be aggregates). GCC 12
// double-destroys aggregate-initialized temporaries that are materialized
// into a coroutine frame across a suspension point, which double-runs RAII
// members' destructors. A user-declared constructor suppresses the broken
// code path. All payload structs in this codebase follow the rule.
template <typename T>
class Channel {
 public:
  Channel(Simulation& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity) {
    GW_CHECK(capacity > 0);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::size_t size() const { return items_.size(); }
  bool closed() const { return closed_; }

  // Blocks (in simulated time) while the channel is full.
  [[nodiscard]] Task<> send(T value) { co_await put(&value); }

  // send() from a caller-owned value: `co_await ch.put(&value)` moves
  // `value` into the channel once it has room. The value must live in the
  // awaiting coroutine's frame; awaiting this directly saves send()'s
  // frame, with the same wakeups.
  auto put(T* value) {
    struct Awaiter {
      Channel* ch;
      T* value;
      bool await_ready() {
        GW_CHECK_MSG(!ch->closed_, "send on closed channel");
        if (ch->senders_.empty() && ch->items_.size() < ch->capacity_) {
          ch->push(std::move(*value));
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch->senders_.push_back(SenderWaiter{value, h});
      }
      void await_resume() {}
    };
    return Awaiter{this, value};
  }

  // Returns the next item, or nullopt once closed and drained.
  [[nodiscard]] Task<std::optional<T>> recv() {
    std::optional<T> slot;
    co_await next(&slot);
    co_return std::move(slot);
  }

  // recv() into a caller-owned slot: `co_await ch.next(&slot)` leaves the
  // next item in `slot`, or leaves it empty once closed and drained. The
  // slot must live in the awaiting coroutine's frame; awaiting this
  // directly saves recv()'s frame, with the same wakeups.
  auto next(std::optional<T>* slot) {
    struct Awaiter {
      Channel* ch;
      std::optional<T>* slot;
      bool await_ready() {
        if (!ch->items_.empty()) {
          *slot = std::move(ch->items_.front());
          ch->items_.pop_front();
          ch->admit_sender();
          return true;
        }
        return ch->closed_;  // drained + closed -> leave slot empty
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch->receivers_.push_back(ReceiverWaiter{slot, h});
      }
      void await_resume() {}
    };
    return Awaiter{this, slot};
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    GW_CHECK_MSG(senders_.empty(), "close with blocked senders");
    // Wake all blocked receivers; they observe closed+empty -> nullopt.
    for (auto& r : receivers_) sim_->schedule_now(r.handle);
    receivers_.clear();
  }

 private:
  struct SenderWaiter {
    T* value;
    std::coroutine_handle<> handle;
  };
  struct ReceiverWaiter {
    std::optional<T>* slot;
    std::coroutine_handle<> handle;
  };

  void push(T value) {
    // Deliver directly to a blocked receiver if any, else enqueue.
    if (!receivers_.empty()) {
      ReceiverWaiter r = receivers_.front();
      receivers_.pop_front();
      *r.slot = std::move(value);
      sim_->schedule_now(r.handle);
    } else {
      items_.push_back(std::move(value));
    }
  }

  void admit_sender() {
    if (!senders_.empty() && items_.size() < capacity_) {
      SenderWaiter s = senders_.front();
      senders_.pop_front();
      push(std::move(*s.value));
      sim_->schedule_now(s.handle);
    }
  }

  Simulation* sim_;
  std::size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  std::deque<SenderWaiter> senders_;
  std::deque<ReceiverWaiter> receivers_;
};

// Fork/join helper: spawn child processes, then await completion of all.
// The group may drain to zero and receive further spawns repeatedly (e.g. a
// stream of shuffle sends); wait() resolves only once the count is zero AT
// THE TIME IT CHECKS and no further children were added meanwhile. All
// children must be spawned before wait() is CALLED. The first child
// exception is rethrown from wait(). Single wait() per group.
class TaskGroup {
 public:
  explicit TaskGroup(Simulation& sim) : sim_(&sim) {}

  void spawn(Task<> task) {
    GW_CHECK_MSG(!waited_, "TaskGroup reused after wait()");
    GW_CHECK(task.handle_);
    ++pending_;
    task.handle_.promise().group = this;
    sim_->spawn(std::move(task));
  }

  Task<> wait() {
    waited_ = true;
    // Loop: the completion event is re-armed each round, so intermediate
    // drains (count hitting zero before later children were spawned) cannot
    // release the join early.
    while (pending_ > 0) {
      wakeup_ = std::make_unique<Event>(*sim_);
      co_await wakeup_->wait();
      wakeup_.reset();
    }
    if (first_exception_) std::rethrow_exception(first_exception_);
  }

  std::size_t pending() const { return pending_; }

 private:
  friend void detail::task_group_child_done(TaskGroup* group,
                                            std::exception_ptr error);

  // A child reached final suspend: record its exception (the first one
  // wins) and release wait() once none is pending. The child's frame is
  // destroyed right after, as when a wrapper coroutine awaited it.
  void child_done(std::exception_ptr error) {
    if (error && !first_exception_) first_exception_ = std::move(error);
    if (--pending_ == 0 && wakeup_ != nullptr) wakeup_->set();
  }

  Simulation* sim_;
  std::unique_ptr<Event> wakeup_;
  std::size_t pending_ = 0;
  bool waited_ = false;
  std::exception_ptr first_exception_;
};

inline void detail::task_group_child_done(TaskGroup* group,
                                          std::exception_ptr error) {
  group->child_done(std::move(error));
}

}  // namespace gw::sim

// Unit and property tests for the discrete-event simulation engine.
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim.h"

namespace gw::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  double observed = -1;
  auto proc = [](Simulation& s, double* out) -> Task<> {
    co_await s.delay(2.5);
    *out = s.now();
  };
  sim.spawn(proc(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, EventsOrderedByTimeThenFifo) {
  Simulation sim;
  std::vector<std::string> order;
  auto proc = [](Simulation& s, std::vector<std::string>* log, double t,
                 std::string name) -> Task<> {
    co_await s.delay(t);
    log->push_back(std::move(name));
  };
  // Same wakeup time: insertion order must be preserved.
  sim.spawn(proc(sim, &order, 1.0, "a"));
  sim.spawn(proc(sim, &order, 0.5, "b"));
  sim.spawn(proc(sim, &order, 1.0, "c"));
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "b");
  EXPECT_EQ(order[1], "a");
  EXPECT_EQ(order[2], "c");
}

TEST(Simulation, NestedTasksReturnValues) {
  Simulation sim;
  auto child = [](Simulation& s, int x) -> Task<int> {
    co_await s.delay(1.0);
    co_return x * 2;
  };
  int result = 0;
  auto parent = [&child](Simulation& s, int* out) -> Task<> {
    const int a = co_await child(s, 21);
    const int b = co_await child(s, a);
    *out = b;
  };
  sim.spawn(parent(sim, &result));
  sim.run();
  EXPECT_EQ(result, 84);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulation, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  auto child = [](Simulation& s) -> Task<> {
    co_await s.delay(0.1);
    throw util::Error("boom");
  };
  bool caught = false;
  auto parent = [&child](Simulation& s, bool* flag) -> Task<> {
    try {
      co_await child(s);
    } catch (const util::Error&) {
      *flag = true;
    }
  };
  sim.spawn(parent(sim, &caught));
  sim.run();
  EXPECT_TRUE(caught);
}

// A nested task whose frame holds N words across its suspension, so each N
// gives a different coroutine frame size.
template <std::size_t N>
Task<std::uint64_t> padded_leaf(Simulation& s, std::uint64_t x) {
  std::array<std::uint64_t, N> pad;
  for (std::size_t i = 0; i < N; ++i) pad[i] = x * 31 + i;
  co_await s.delay(1e-6 * static_cast<double>(1 + x % 5));
  std::uint64_t sum = s.now() > 0 ? 1 : 0;
  for (std::uint64_t v : pad) sum += v;
  co_return sum;
}

Task<> padded_root(Simulation& s, std::uint64_t first, int n,
                   std::uint64_t* acc) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = first + static_cast<std::uint64_t>(i);
    switch (x % 4) {
      case 0: *acc += co_await padded_leaf<2>(s, x); break;
      case 1: *acc += co_await padded_leaf<48>(s, x); break;
      case 2: *acc += co_await padded_leaf<400>(s, x); break;
      default: *acc += co_await padded_leaf<700>(s, x); break;
    }
  }
}

// 100k nested tasks over four frame sizes (up to ~6 KiB), 200 roots at a
// time so many frames are live together.
std::pair<std::uint64_t, std::uint64_t> run_padded_tasks() {
  Simulation sim;
  std::uint64_t acc = 0;
  constexpr int kRoots = 200;
  constexpr int kPerRoot = 500;
  for (int r = 0; r < kRoots; ++r) {
    sim.spawn(padded_root(sim, static_cast<std::uint64_t>(r) * kPerRoot,
                          kPerRoot, &acc));
  }
  sim.run();
  return {acc, sim.events_processed()};
}

TEST(Simulation, FramesRecycleAcrossRunsAndThreads) {
  const auto reference = run_padded_tasks();
  EXPECT_EQ(run_padded_tasks(), reference);  // reused frame memory
  std::pair<std::uint64_t, std::uint64_t> got[2][2];
  std::vector<std::thread> threads;
  for (auto& runs : got) {
    threads.emplace_back([&runs] {
      runs[0] = run_padded_tasks();
      runs[1] = run_padded_tasks();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& runs : got) {
    EXPECT_EQ(runs[0], reference);
    EXPECT_EQ(runs[1], reference);
  }
  // Frames allocated on one thread are resumed and freed on another.
  Simulation sim;
  std::uint64_t acc = 0;
  sim.spawn(padded_root(sim, 0, 8, &acc));
  std::thread([&sim] { sim.run(); }).join();
  EXPECT_GT(acc, 0u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  auto proc = [](Simulation& s, double t, int* n) -> Task<> {
    co_await s.delay(t);
    ++*n;
  };
  sim.spawn(proc(sim, 1.0, &fired));
  sim.spawn(proc(sim, 3.0, &fired));
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// A crash cancelled while it waits for its instant never happens, restart
// included: the node stays alive, no listener runs, and run() stops at the
// last live event instead of at the crash or restart instant.
TEST(Simulation, CancelledCrashNeverFires) {
  Simulation sim;
  std::vector<std::pair<int, bool>> seen;
  sim.add_crash_listener(
      [&seen](int node, bool alive) { seen.emplace_back(node, alive); });
  auto proc = [](Simulation& s, double t) -> Task<> { co_await s.delay(t); };
  sim.spawn(proc(sim, 1.0));
  const int crash = sim.schedule_node_crash(2, 5.0, 6.0);
  sim.run_until(0.5);
  const std::uint64_t events = sim.events_processed();
  sim.cancel_node_crash(crash);
  sim.cancel_node_crash(crash);  // a second cancel is a no-op
  EXPECT_DOUBLE_EQ(sim.run(), 1.0);
  EXPECT_EQ(sim.events_processed(), events + 1);
  EXPECT_TRUE(sim.node_alive(2));
  EXPECT_TRUE(seen.empty());
}

// Cancelling a crash that already fired changes nothing: its restart still
// comes at the scheduled instant.
TEST(Simulation, CancellingAFiredCrashKeepsItsRestart) {
  Simulation sim;
  std::vector<std::pair<int, bool>> seen;
  sim.add_crash_listener(
      [&seen](int node, bool alive) { seen.emplace_back(node, alive); });
  const int crash = sim.schedule_node_crash(3, 1.0, 2.0);
  sim.run_until(1.5);
  EXPECT_FALSE(sim.node_alive(3));
  sim.cancel_node_crash(crash);
  EXPECT_DOUBLE_EQ(sim.run(), 2.0);
  EXPECT_TRUE(sim.node_alive(3));
  const std::vector<std::pair<int, bool>> want = {{3, false}, {3, true}};
  EXPECT_EQ(seen, want);
}

TEST(Event, WaitersResumeAfterSet) {
  Simulation sim;
  Event ev(sim);
  std::vector<double> times;
  auto waiter = [](Simulation& s, Event& e, std::vector<double>* t) -> Task<> {
    co_await e.wait();
    t->push_back(s.now());
  };
  auto setter = [](Simulation& s, Event& e) -> Task<> {
    co_await s.delay(5.0);
    e.set();
  };
  sim.spawn(waiter(sim, ev, &times));
  sim.spawn(waiter(sim, ev, &times));
  sim.spawn(setter(sim, ev));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  double t = -1;
  auto waiter = [](Simulation& s, Event& e, double* out) -> Task<> {
    co_await s.delay(1.0);
    co_await e.wait();
    *out = s.now();
  };
  sim.spawn(waiter(sim, ev, &t));
  sim.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(Resource, SerializesWhenCapacityOne) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<double> start_times;
  auto user = [](Simulation& s, Resource& r,
                 std::vector<double>* starts) -> Task<> {
    auto hold = co_await r.acquire();
    starts->push_back(s.now());
    co_await s.delay(1.0);
  };
  for (int i = 0; i < 3; ++i) sim.spawn(user(sim, res, &start_times));
  sim.run();
  ASSERT_EQ(start_times.size(), 3u);
  EXPECT_DOUBLE_EQ(start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(start_times[1], 1.0);
  EXPECT_DOUBLE_EQ(start_times[2], 2.0);
}

TEST(Resource, ParallelismMatchesCapacity) {
  Simulation sim;
  Resource res(sim, 3);
  int completed = 0;
  auto user = [](Simulation& s, Resource& r, int* done) -> Task<> {
    auto hold = co_await r.acquire();
    co_await s.delay(1.0);
    ++*done;
  };
  for (int i = 0; i < 9; ++i) sim.spawn(user(sim, res, &completed));
  sim.run();
  EXPECT_EQ(completed, 9);
  // 9 unit jobs at parallelism 3 take exactly 3 time units.
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Resource, FifoAdmission) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<int> order;
  auto user = [](Simulation& s, Resource& r, std::vector<int>* log,
                 int id) -> Task<> {
    auto hold = co_await r.acquire();
    log->push_back(id);
    co_await s.delay(1.0);
  };
  for (int i = 0; i < 6; ++i) sim.spawn(user(sim, res, &order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Resource, MultiUnitAcquire) {
  Simulation sim;
  Resource res(sim, 4);
  std::vector<double> times;
  auto user = [](Simulation& s, Resource& r, std::int64_t n,
                 std::vector<double>* t) -> Task<> {
    auto hold = co_await r.acquire(n);
    t->push_back(s.now());
    co_await s.delay(1.0);
  };
  sim.spawn(user(sim, res, 3, &times));  // fits immediately
  sim.spawn(user(sim, res, 3, &times));  // must wait for first
  sim.spawn(user(sim, res, 1, &times));  // FIFO: waits behind the size-3 job
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 1.0);
}

TEST(Resource, HoldReleasesOnScopeExit) {
  Simulation sim;
  Resource res(sim, 1);
  EXPECT_EQ(res.available(), 1);
  auto user = [](Simulation& s, Resource& r) -> Task<> {
    {
      auto hold = co_await r.acquire();
      co_await s.delay(1.0);
    }
    // released here; re-acquire must succeed instantly
    auto again = co_await r.acquire();
    co_await s.delay(1.0);
  };
  sim.spawn(user(sim, res));
  sim.run();
  EXPECT_EQ(res.available(), 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Channel, FifoDelivery) {
  Simulation sim;
  Channel<int> ch(sim, 4);
  std::vector<int> received;
  auto producer = [](Simulation& s, Channel<int>& c) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await c.send(i);
      co_await s.delay(0.1);
    }
    c.close();
  };
  auto consumer = [](Channel<int>& c, std::vector<int>* out) -> Task<> {
    for (;;) {
      auto v = co_await c.recv();
      if (!v) break;
      out->push_back(*v);
    }
  };
  sim.spawn(producer(sim, ch));
  sim.spawn(consumer(ch, &received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BoundedCapacityBlocksSender) {
  Simulation sim;
  Channel<int> ch(sim, 1);
  std::vector<double> send_times;
  auto producer = [](Simulation& s, Channel<int>& c,
                     std::vector<double>* t) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await c.send(i);
      t->push_back(s.now());
    }
    c.close();
  };
  auto slow_consumer = [](Simulation& s, Channel<int>& c) -> Task<> {
    for (;;) {
      co_await s.delay(1.0);
      auto v = co_await c.recv();
      if (!v) break;
    }
  };
  sim.spawn(producer(sim, ch, &send_times));
  sim.spawn(slow_consumer(sim, ch));
  sim.run();
  ASSERT_EQ(send_times.size(), 3u);
  EXPECT_DOUBLE_EQ(send_times[0], 0.0);  // buffered immediately
  // Later sends gated by the 1-per-second consumer.
  EXPECT_DOUBLE_EQ(send_times[1], 1.0);
  EXPECT_DOUBLE_EQ(send_times[2], 2.0);
}

TEST(Channel, CloseWakesBlockedReceiver) {
  Simulation sim;
  Channel<int> ch(sim, 1);
  bool got_nullopt = false;
  auto consumer = [](Channel<int>& c, bool* flag) -> Task<> {
    auto v = co_await c.recv();
    *flag = !v.has_value();
  };
  auto closer = [](Simulation& s, Channel<int>& c) -> Task<> {
    co_await s.delay(3.0);
    c.close();
  };
  sim.spawn(consumer(ch, &got_nullopt));
  sim.spawn(closer(sim, ch));
  sim.run();
  EXPECT_TRUE(got_nullopt);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Channel, DrainsQueuedItemsAfterClose) {
  Simulation sim;
  Channel<int> ch(sim, 8);
  std::vector<int> received;
  auto producer = [](Channel<int>& c) -> Task<> {
    for (int i = 0; i < 4; ++i) co_await c.send(i);
    c.close();
  };
  auto consumer = [](Simulation& s, Channel<int>& c,
                     std::vector<int>* out) -> Task<> {
    co_await s.delay(1.0);  // start after close
    for (;;) {
      auto v = co_await c.recv();
      if (!v) break;
      out->push_back(*v);
    }
  };
  sim.spawn(producer(ch));
  sim.spawn(consumer(sim, ch, &received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Channel, MultipleConsumersShareWork) {
  Simulation sim;
  Channel<int> ch(sim, 2);
  std::vector<int> a, b;
  auto producer = [](Simulation& s, Channel<int>& c) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await c.send(i);
      co_await s.delay(0.1);
    }
    c.close();
  };
  auto consumer = [](Simulation& s, Channel<int>& c,
                     std::vector<int>* out) -> Task<> {
    for (;;) {
      auto v = co_await c.recv();
      if (!v) break;
      out->push_back(*v);
      co_await s.delay(0.15);
    }
  };
  sim.spawn(producer(sim, ch));
  sim.spawn(consumer(sim, ch, &a));
  sim.spawn(consumer(sim, ch, &b));
  sim.run();
  EXPECT_EQ(a.size() + b.size(), 10u);
  std::vector<int> all(a);
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(all[i], i);
}

TEST(SimulationTracer, AccumulatesBusyTime) {
  Simulation sim;
  auto& tr = sim.tracer();
  const auto ref = tr.track(0, "stage/0");
  const auto id = tr.intern("work");
  auto proc = [](Simulation& s, trace::TrackRef ref, std::int32_t id) -> Task<> {
    auto& tr = s.tracer();
    for (int i = 0; i < 3; ++i) {
      tr.begin(ref, trace::Kind::kStage, id, s.now());
      co_await s.delay(2.0);
      tr.end(ref, trace::Kind::kStage, id, s.now());
      co_await s.delay(1.0);  // idle, not counted
    }
  };
  sim.spawn(proc(sim, ref, id));
  sim.run();
  const auto occ = tr.occupancy(0, "work");
  EXPECT_DOUBLE_EQ(occ.busy, 6.0);
  EXPECT_EQ(occ.intervals, 3u);
  EXPECT_EQ(occ.spans, 3u);
  EXPECT_EQ(tr.validate(), "");
}

// Determinism property: identical programs produce identical event traces.
TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulation sim;
    Resource res(sim, 2);
    Channel<int> ch(sim, 3);
    std::vector<double> trace;
    auto producer = [](Simulation& s, Resource& r, Channel<int>& c,
                       std::vector<double>* t) -> Task<> {
      for (int i = 0; i < 20; ++i) {
        auto hold = co_await r.acquire();
        co_await s.delay(0.3);
        co_await c.send(i);
        t->push_back(s.now());
      }
      c.close();
    };
    auto consumer = [](Simulation& s, Channel<int>& c,
                       std::vector<double>* t) -> Task<> {
      for (;;) {
        auto v = co_await c.recv();
        if (!v) break;
        co_await s.delay(0.7);
        t->push_back(-s.now());
      }
    };
    sim.spawn(producer(sim, res, ch, &trace));
    sim.spawn(consumer(sim, ch, &trace));
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Pipeline property: with K buffers, total elapsed time of an N-item,
// S-stage pipeline matches the analytic bound (dominant stage governs).
class PipelineBuffering : public ::testing::TestWithParam<int> {};

TEST_P(PipelineBuffering, ElapsedMatchesDominantStage) {
  const int buffers = GetParam();
  Simulation sim;
  Resource pool(sim, buffers);
  constexpr int kItems = 10;
  constexpr double kStage1 = 1.0;
  constexpr double kStage2 = 2.0;  // dominant

  // Stage 1 acquires a buffer, produces, passes downstream; stage 2 frees it.
  // User-declared constructor per the sim.h channel payload rule.
  struct Item {
    Item(int id_in, Resource::Hold buffer_in)
        : id(id_in), buffer(std::move(buffer_in)) {}
    int id;
    Resource::Hold buffer;
  };
  auto stage1 = [](Simulation& s, Resource& p, Channel<Item>& out) -> Task<> {
    for (int i = 0; i < kItems; ++i) {
      auto buf = co_await p.acquire();
      co_await s.delay(kStage1);
      co_await out.send(Item{i, std::move(buf)});
    }
    out.close();
  };
  auto stage2 = [](Simulation& s, Channel<Item>& in) -> Task<> {
    for (;;) {
      auto item = co_await in.recv();
      if (!item) break;
      co_await s.delay(kStage2);
      item->buffer.release();  // free the buffer for stage 1 immediately
    }
  };
  Channel<Item> ch(sim, 16);
  sim.spawn(stage1(sim, pool, ch));
  sim.spawn(stage2(sim, ch));
  sim.run();

  if (buffers == 1) {
    // Fully interlocked: stages serialize.
    EXPECT_NEAR(sim.now(), kItems * (kStage1 + kStage2), 1e-9);
  } else {
    // Overlapped: dominant stage governs, plus one fill of stage 1.
    EXPECT_NEAR(sim.now(), kStage1 + kItems * kStage2, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(BufferCounts, PipelineBuffering,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace gw::sim

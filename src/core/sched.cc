#include "core/sched.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/memory.h"
#include "simnet/fabric.h"
#include "util/error.h"

namespace gw::core {

namespace {

// Per-node pipeline slots: how many resident jobs may run their map (resp.
// reduce) phase on one node at the same time. 1 = phases from different
// jobs time-share each node one-at-a-time (shuffle and merge still overlap
// freely — receivers are never gated, so no cross-job deadlock is
// possible).
constexpr int kMapSlotsPerNode = 1;
constexpr int kReduceSlotsPerNode = 1;
// Per-job cap on suspensions (bounds displacement thrash).
constexpr int kMaxPreemptionsPerJob = 1;
// Elastic mode: total task slots per node, split across residents, and the
// share of them the most urgent priority class may steal.
constexpr int kElasticSlotsPerNode = 4;
constexpr double kElasticStealFrac = 0.5;

}  // namespace

SchedPolicy parse_sched_policy(std::string_view name) {
  if (name == "fifo") return SchedPolicy::kFifo;
  if (name == "fair") return SchedPolicy::kFair;
  if (name == "priority") return SchedPolicy::kPriority;
  GW_CHECK_MSG(false, "unknown scheduling policy (fifo|fair|priority)");
  return SchedPolicy::kFifo;
}

const char* sched_policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kFair: return "fair";
    case SchedPolicy::kPriority: return "priority";
  }
  return "?";
}

Scheduler::Scheduler(GlasswingRuntime& runtime, cluster::Platform& platform,
                     dfs::FileSystem& fs, SchedulerConfig config)
    : runtime_(runtime), platform_(platform), fs_(fs),
      config_(std::move(config)) {
  GW_CHECK(config_.max_resident_jobs > 0);
  epoch_ = platform_.sim().now();
  const int n = platform_.num_nodes();
  for (int i = 0; i < n; ++i) {
    map_slots_.push_back(std::make_unique<sim::Resource>(
        platform_.sim(), kMapSlotsPerNode));
    reduce_slots_.push_back(std::make_unique<sim::Resource>(
        platform_.sim(), kReduceSlotsPerNode));
    env_.map_slots.push_back(map_slots_.back().get());
    env_.reduce_slots.push_back(reduce_slots_.back().get());
  }
  if (config_.node_memory_bytes > 0) {
    // One budget per NODE, shared by every tenant resident on it. No
    // combine pool: the split is fixed before the tenant mix is known
    // (run_async degrades combine_mode accordingly).
    for (int i = 0; i < n; ++i) {
      governors_.push_back(std::make_unique<MemoryGovernor>(
          platform_.sim(), config_.node_memory_bytes,
          /*with_combine_pool=*/false));
      env_.governors.push_back(governors_.back().get());
    }
  }
}

Scheduler::~Scheduler() = default;

int Scheduler::submit(JobRequest req) {
  const int id = static_cast<int>(requests_.size());
  GW_CHECK_MSG(req.arrival_s >= 0, "arrival in the past");
  if (!req.config.crash_events.empty()) any_crashes_ = true;
  ScheduledJob r;
  r.job_id = id;
  r.name = req.name;
  r.tenant = req.tenant;
  r.priority = req.priority;
  r.arrival_s = req.arrival_s;
  results_.push_back(std::move(r));
  requests_.push_back(std::move(req));
  preempts_.push_back(config_.preemption ? std::make_unique<PreemptControl>()
                                         : nullptr);
  platform_.sim().spawn(arrive(id));
  return id;
}

sim::Task<void> Scheduler::arrive(int id) {
  auto& sim = platform_.sim();
  const double at =
      epoch_ + requests_[static_cast<std::size_t>(id)].arrival_s;
  if (at > sim.now()) co_await sim.delay(at - sim.now());
  if (config_.max_queued_jobs > 0 &&
      static_cast<int>(queue_.size()) >= config_.max_queued_jobs) {
    results_[static_cast<std::size_t>(id)].rejected = true;
    ++rejected_;
    ++completed_;
    co_return;
  }
  results_[static_cast<std::size_t>(id)].arrival_seq = next_arrival_seq_++;
  queue_.push_back(id);
  queue_peak_ = std::max(queue_peak_, static_cast<int>(queue_.size()));
  pump();
}

double Scheduler::tenant_service(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0.0 : it->second.service_s;
}

double Scheduler::tenant_service_live(int tenant) const {
  double s = tenant_service(tenant);
  const double now = platform_.sim().now() - epoch_;
  for (int id : resident_ids_) {
    if (results_[static_cast<std::size_t>(id)].tenant != tenant) continue;
    s += now - running_.at(id).since;
  }
  return s;
}

namespace {

// Microsecond ticks on the simulated clock. Aging used to divide raw
// doubles: near an interval boundary, (now - arrival) / aging could land an
// ulp either side of an integer, so std::floor drifted between evaluations
// of the same queue and the promoted class flapped. Integer arithmetic on
// rounded ticks makes every evaluation agree exactly.
std::int64_t to_ticks(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

std::size_t Scheduler::pick_next() const {
  GW_CHECK(!queue_.empty());
  // Every policy breaks its ties by arrival_seq, so equal-rank jobs admit
  // in true arrival order even after suspensions re-enqueue at the back.
  const auto seq = [&](std::size_t i) {
    return results_[static_cast<std::size_t>(queue_[i])].arrival_seq;
  };
  switch (config_.policy) {
    case SchedPolicy::kFifo: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (seq(i) < seq(best)) best = i;
      }
      return best;
    }
    case SchedPolicy::kFair: {
      // Least accumulated tenant service first; ties by arrival.
      std::size_t best = 0;
      double best_service = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const double s =
            tenant_service(results_[static_cast<std::size_t>(queue_[i])].tenant);
        if (s < best_service || (s == best_service && seq(i) < seq(best))) {
          best_service = s;
          best = i;
        }
      }
      return best;
    }
    case SchedPolicy::kPriority: {
      // Strict classes, arrival order inside a class. Aging (if enabled)
      // promotes a job one class per full interval waited so a busy hot
      // class cannot starve colder ones indefinitely.
      const std::int64_t now_us = to_ticks(platform_.sim().now() - epoch_);
      const std::int64_t aging_us =
          config_.priority_aging_s > 0
              ? std::max<std::int64_t>(1, to_ticks(config_.priority_aging_s))
              : 0;
      std::size_t best = 0;
      std::int64_t best_class = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const auto& r = results_[static_cast<std::size_t>(queue_[i])];
        std::int64_t cls = r.priority;
        if (aging_us > 0) {
          const std::int64_t waited_us = now_us - to_ticks(r.arrival_s);
          if (waited_us > 0) cls -= waited_us / aging_us;
        }
        if (cls < best_class || (cls == best_class && seq(i) < seq(best))) {
          best_class = cls;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

void Scheduler::pump() {
  while (resident_ < config_.max_resident_jobs && !queue_.empty()) {
    const std::size_t i = pick_next();
    const int id = queue_[i];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    ++resident_;
    resident_peak_ = std::max(resident_peak_, resident_);
    platform_.sim().spawn(run_job(id));
  }
  maybe_preempt();
}

void Scheduler::maybe_preempt() {
  if (!config_.preemption || queue_.empty()) return;
  if (resident_ < config_.max_resident_jobs) return;
  // One wind-down at a time: a second request while a victim is still
  // draining could displace more residents than the queue deserves.
  for (int id : resident_ids_) {
    const PreemptControl* pc = preempts_[static_cast<std::size_t>(id)].get();
    if (pc != nullptr && pc->requested) return;
  }
  const auto& cand = results_[static_cast<std::size_t>(queue_[pick_next()])];
  int victim = -1;
  switch (config_.policy) {
    case SchedPolicy::kFifo:
      // FIFO never revokes: arrival order already admitted everyone ahead.
      return;
    case SchedPolicy::kPriority: {
      // Displace the least urgent resident whose class is strictly lower
      // (numerically greater) than the candidate's; ties pick the latest
      // admitted (least progress to throw away).
      for (int id : resident_ids_) {
        const auto& res = results_[static_cast<std::size_t>(id)];
        if (res.priority <= cand.priority) continue;
        if (victim < 0 ||
            res.priority > results_[static_cast<std::size_t>(victim)].priority ||
            (res.priority ==
                 results_[static_cast<std::size_t>(victim)].priority &&
             res.arrival_seq >
                 results_[static_cast<std::size_t>(victim)].arrival_seq)) {
          victim = id;
        }
      }
      break;
    }
    case SchedPolicy::kFair: {
      // Displace a resident of the most over-served tenant, but only if
      // that tenant has strictly more (live) service than the candidate's.
      const double cand_service = tenant_service_live(cand.tenant);
      double victim_service = 0;
      for (int id : resident_ids_) {
        const auto& res = results_[static_cast<std::size_t>(id)];
        if (res.tenant == cand.tenant) continue;
        const double s = tenant_service_live(res.tenant);
        if (s <= cand_service) continue;  // must be strictly more served
        if (victim < 0 || s > victim_service ||
            (s == victim_service &&
             res.arrival_seq >
                 results_[static_cast<std::size_t>(victim)].arrival_seq)) {
          victim_service = s;
          victim = id;
        }
      }
      break;
    }
  }
  if (victim < 0) return;
  PreemptControl* pc = preempts_[static_cast<std::size_t>(victim)].get();
  if (pc->preemptions >= kMaxPreemptionsPerJob) return;
  pc->requested = true;
}

int Scheduler::alloc_window() {
  if (!free_windows_.empty()) {
    const int w = free_windows_.front();
    free_windows_.erase(free_windows_.begin());
    return w;
  }
  return windows_created_++;
}

void Scheduler::free_window(int window) {
  // Keep the free-list sorted so the smallest window is always reused
  // first: the port footprint stays at [stride, stride * (peak + 1)).
  free_windows_.insert(
      std::lower_bound(free_windows_.begin(), free_windows_.end(), window),
      window);
}

void Scheduler::recompute_shares() {
  if (!config_.elastic_slots) return;
  const int k = static_cast<int>(resident_ids_.size());
  if (k == 0) return;
  const int total = kElasticSlotsPerNode;
  // Fair baseline: equal instantaneous shares in admission order, clamped
  // to >= 1 so every resident keeps making progress.
  std::vector<int> share(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    share[static_cast<std::size_t>(i)] =
        std::max(1, total / k + (i < total % k ? 1 : 0));
  }
  if (config_.policy == SchedPolicy::kPriority && k > 1) {
    // The most urgent resident steals slots one at a time from the least
    // urgent resident that can spare one, up to kElasticStealFrac of the node.
    std::vector<int> order(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto& ra = results_[static_cast<std::size_t>(
          resident_ids_[static_cast<std::size_t>(a)])];
      const auto& rb = results_[static_cast<std::size_t>(
          resident_ids_[static_cast<std::size_t>(b)])];
      if (ra.priority != rb.priority) return ra.priority < rb.priority;
      return ra.arrival_seq < rb.arrival_seq;
    });
    const int taker = order.front();
    const int taker_class = results_[static_cast<std::size_t>(
                                resident_ids_[static_cast<std::size_t>(taker)])]
                                .priority;
    int budget = static_cast<int>(kElasticStealFrac * total);
    while (budget > 0) {
      int donor = -1;
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const int pos = *it;
        const auto& res = results_[static_cast<std::size_t>(
            resident_ids_[static_cast<std::size_t>(pos)])];
        if (res.priority <= taker_class) break;  // only lower classes donate
        if (share[static_cast<std::size_t>(pos)] > 1) {
          donor = pos;
          break;
        }
      }
      if (donor < 0) break;
      --share[static_cast<std::size_t>(donor)];
      ++share[static_cast<std::size_t>(taker)];
      --budget;
    }
  }
  for (int i = 0; i < k; ++i) {
    auto it = running_.find(resident_ids_[static_cast<std::size_t>(i)]);
    if (it == running_.end()) continue;  // residency still being set up
    const int s = share[static_cast<std::size_t>(i)];
    for (auto& slot : it->second.map_slots) slot->set_capacity(s);
    for (auto& slot : it->second.reduce_slots) slot->set_capacity(s);
  }
}

sim::Task<void> Scheduler::run_job(int id) {
  auto& sim = platform_.sim();
  JobRequest& req = requests_[static_cast<std::size_t>(id)];
  ScheduledJob& r = results_[static_cast<std::size_t>(id)];
  PreemptControl* pc = preempts_[static_cast<std::size_t>(id)].get();
  const bool resumed_run = pc != nullptr && pc->preemptions > 0;
  const double since = sim.now() - epoch_;
  if (resumed_run) {
    ++r.resumes;
    ++resume_count_;
  } else {
    r.admit_s = since;
    // max() absorbs the epsilon of epoch addition/subtraction round-trips.
    r.queue_wait_s = std::max(0.0, r.admit_s - r.arrival_s);
  }

  // Build this residency's environment from the shared one. Port windows
  // are recycled through a free-list: peak residency bounds the footprint,
  // so arbitrarily many sequential jobs never walk off the end of the port
  // space. A window frees only after run_async's teardown verified its
  // range quiesced, so reuse can't cross-talk.
  const int window = alloc_window();
  Residency& res = running_[id];
  res.since = since;
  JobEnv& env = res.env;
  env = env_;
  env.job_id = id;
  env.port_base = net::kPortJobStride * (window + 1);
  // The trace scope stays keyed by JOB id (not window): a resumed job
  // reopens spans on the same labeled track across residencies.
  env.trace_scope = std::string("j").append(std::to_string(id)).append(".");
  // If ANY tenant injects node crashes, a neighbour's crash can reach
  // every job sharing the cluster, so each one arms its durable-output
  // ledger (submissions are all registered before run_all, so
  // any_crashes_ is final here).
  env.expect_crashes = any_crashes_;
  if (config_.elastic_slots) {
    // Private per-node slot pools, resized by recompute_shares as
    // residency churns.
    env.map_slots.clear();
    env.reduce_slots.clear();
    const int n = platform_.num_nodes();
    for (int i = 0; i < n; ++i) {
      res.map_slots.push_back(std::make_unique<sim::Resource>(sim, 1));
      res.reduce_slots.push_back(std::make_unique<sim::Resource>(sim, 1));
      env.map_slots.push_back(res.map_slots.back().get());
      env.reduce_slots.push_back(res.reduce_slots.back().get());
    }
    env.elastic = true;
  }
  if (pc != nullptr) {
    pc->requested = false;
    pc->suspended = false;
    env.preempt = pc;
  }
  resident_ids_.push_back(id);
  recompute_shares();

  dfs::FileSystem* fs = req.fs_override != nullptr ? req.fs_override : &fs_;
  try {
    r.result = co_await runtime_.run_async(req.app, req.config, env, fs);
  } catch (const std::exception&) {
    r.failed = true;
    ++failed_;
  }
  const double leave = sim.now() - epoch_;

  // Leave residency: release the port window and slot shares, then account
  // the residency span to the tenant (per-residency, so the fair policy
  // sees a suspended job's service immediately).
  resident_ids_.erase(
      std::find(resident_ids_.begin(), resident_ids_.end(), id));
  running_.erase(id);
  free_window(window);
  --resident_;
  recompute_shares();
  TenantStats& t = tenants_[req.tenant];
  t.tenant = req.tenant;
  t.service_s += leave - since;

  if (!r.failed && pc != nullptr && pc->suspended) {
    // Wound down at a task boundary: committed map output and materialized
    // rounds are durable in pc->state. Requeue the remainder; it re-enters
    // pick_next with its original arrival_seq.
    ++r.preemptions;
    ++preempt_count_;
    queue_.push_back(id);
    queue_peak_ = std::max(queue_peak_, static_cast<int>(queue_.size()));
    pump();
    co_return;
  }

  r.finish_s = leave;
  r.latency_s = r.finish_s - r.arrival_s;
  r.combine_degraded = !r.failed && r.result.combine_degraded;
  if (r.combine_degraded) ++combine_degraded_count_;
  ++t.jobs_finished;
  t.wait_s += r.queue_wait_s;
  ++completed_;
  pump();
}

void Scheduler::run_all() {
  platform_.sim().run();
  GW_CHECK_MSG(completed_ == static_cast<int>(requests_.size()),
               "scheduler hang: jobs pending after event queue drained");
}

std::vector<TenantStats> Scheduler::tenant_stats() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [_, t] : tenants_) out.push_back(t);
  return out;
}

TrafficGen::TrafficGen(std::uint64_t seed, double jobs_per_s)
    : rng_(seed), rate_(jobs_per_s) {
  GW_CHECK(jobs_per_s > 0);
}

double TrafficGen::next_arrival_s() {
  // Inverse-CDF exponential draw; log1p(-u) keeps precision near u = 0.
  clock_ += -std::log1p(-rng_.uniform()) / rate_;
  return clock_;
}

std::uint64_t TrafficGen::pick(std::uint64_t n) { return rng_.below(n); }

}  // namespace gw::core

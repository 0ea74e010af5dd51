#include "quake/svc/simulation_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "quake/par/communicator.hpp"

namespace quake::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Across-rank sum of a merged counter; 0 when the key is absent (obs
// disabled, or the solve never touched it).
double counter_sum(const obs::MergedReport& m, const std::string& key) {
  const auto it = m.counters.find(key);
  return it == m.counters.end() ? 0.0 : it->second.sum;
}

}  // namespace

struct SimulationService::Pending {
  std::uint64_t id = 0;
  int priority = 0;
  std::uint64_t seq = 0;  // admission order; FIFO tiebreak within a priority
  ScenarioRequest req;
  Clock::time_point admitted;
  std::promise<ScenarioResult> promise;
  std::shared_ptr<std::atomic<bool>> cancel_flag;
};

// One worker lane: a ParallelSetup replica, its shard of the admission
// queue, and the one request it is currently running. `queue` and the
// running_* state are guarded by the service-wide mu_; the counters are
// atomics so metrics() reads them without blocking admission.
struct SimulationService::Lane {
  int index = 0;
  par::ParallelSetup* setup = nullptr;
  std::deque<std::unique_ptr<Pending>> queue;

  // The in-flight request's id (0 = idle; ids start at 1) and its
  // cooperative cancel flag.
  std::uint64_t running_id = 0;
  std::shared_ptr<std::atomic<bool>> running_cancel;

  std::atomic<std::int64_t> requests{0};  // requests this lane picked up
  std::atomic<std::int64_t> rejected{0};  // shed at admission to this shard

  std::thread worker;
};

SimulationService::SimulationService(const mesh::HexMesh& mesh,
                                     const par::Partition& part,
                                     const solver::OperatorOptions& op_opt,
                                     const solver::SolverOptions& base,
                                     Options opt)
    : setup_(mesh, part, op_opt, base), opt_(opt) {
  if (opt_.lanes < 1) {
    throw std::invalid_argument("SimulationService: lanes must be >= 1");
  }
  paused_ = opt_.start_paused;
  replica_setups_.reserve(static_cast<std::size_t>(opt_.lanes - 1));
  for (int k = 1; k < opt_.lanes; ++k) {
    replica_setups_.push_back(
        std::make_unique<par::ParallelSetup>(mesh, part, op_opt, base));
  }
  lanes_.reserve(static_cast<std::size_t>(opt_.lanes));
  for (int k = 0; k < opt_.lanes; ++k) {
    auto lane = std::make_unique<Lane>();
    lane->index = k;
    lane->setup =
        k == 0 ? &setup_ : replica_setups_[static_cast<std::size_t>(k - 1)].get();
    lanes_.push_back(std::move(lane));
  }
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    l->worker = std::thread([this, l] { worker_loop(*l); });
  }
}

SimulationService::~SimulationService() {
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    for (auto& lane : lanes_) {
      for (auto& p : lane->queue) orphans.push_back(std::move(p));
      lane->queue.clear();
      // Cancel whatever is in flight.
      if (lane->running_cancel) {
        lane->running_cancel->store(true, std::memory_order_relaxed);
      }
    }
  }
  work_cv_.notify_all();
  for (auto& p : orphans) {
    ScenarioResult r;
    r.id = p->id;
    r.status = RequestStatus::kCancelled;
    r.total_seconds = seconds_between(p->admitted, Clock::now());
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    p->promise.set_value(std::move(r));
  }
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
}

SimulationService::Ticket SimulationService::submit(ScenarioRequest req) {
  auto p = std::make_unique<Pending>();
  p->req = std::move(req);
  p->priority = p->req.priority;
  p->cancel_flag = std::make_shared<std::atomic<bool>>(false);
  std::future<ScenarioResult> fut = p->promise.get_future();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) {
      throw std::runtime_error("SimulationService: submit after shutdown");
    }
    // Route to the shallowest shard, ties to the lowest lane index. The
    // bound is per shard; because routing picks the minimum, admission only
    // sheds when every shard is full.
    Lane* shard = lanes_.front().get();
    for (auto& lane : lanes_) {
      if (lane->queue.size() < shard->queue.size()) shard = lane.get();
    }
    if (shard->queue.size() >= opt_.queue_bound) {
      shard->rejected.fetch_add(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      throw QueueFullError("SimulationService: admission queue full (" +
                           std::to_string(opt_.queue_bound) +
                           " requests waiting on shard " +
                           std::to_string(shard->index) + ")");
    }
    id = next_id_.fetch_add(1, std::memory_order_relaxed);
    p->id = id;
    p->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    p->admitted = Clock::now();
    admitted_.fetch_add(1, std::memory_order_relaxed);
    shard->queue.push_back(std::move(p));
  }
  work_cv_.notify_all();
  return Ticket{id, std::move(fut)};
}

bool SimulationService::cancel(std::uint64_t id) {
  std::unique_ptr<Pending> victim;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    for (auto& lane : lanes_) {
      // In flight on this lane: flip its cooperative flag; the run stops
      // at its next step-boundary agreement. An idle lane's running_id is
      // 0, which no request carries, so id 0 never matches it.
      if (lane->running_id != 0 && lane->running_id == id) {
        lane->running_cancel->store(true, std::memory_order_relaxed);
        return true;
      }
      const auto it = std::find_if(
          lane->queue.begin(), lane->queue.end(),
          [id](const std::unique_ptr<Pending>& p) { return p->id == id; });
      if (it != lane->queue.end()) {
        victim = std::move(*it);
        lane->queue.erase(it);
        break;
      }
    }
    if (!victim) return false;
  }
  ScenarioResult r;
  r.id = id;
  r.status = RequestStatus::kCancelled;
  r.total_seconds = seconds_between(victim->admitted, Clock::now());
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  victim->promise.set_value(std::move(r));
  idle_cv_.notify_all();
  return true;
}

void SimulationService::pause() {
  const std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void SimulationService::resume() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void SimulationService::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] {
    for (const auto& lane : lanes_) {
      if (!lane->queue.empty() || lane->running_id != 0) return false;
    }
    return true;
  });
}

std::size_t SimulationService::queue_depth() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->queue.size();
  return depth;
}

obs::Registry SimulationService::metrics() const {
  obs::Registry m;
  {
    const std::lock_guard<std::mutex> lk(agg_mu_);
    m = agg_;
  }
  m.counters["svc/requests_admitted"] =
      admitted_.load(std::memory_order_relaxed);
  m.counters["svc/requests_completed"] =
      completed_.load(std::memory_order_relaxed);
  m.counters["svc/requests_rejected"] =
      rejected_.load(std::memory_order_relaxed);
  m.counters["svc/requests_cancelled"] =
      cancelled_.load(std::memory_order_relaxed);
  m.counters["svc/requests_deadline_exceeded"] =
      deadline_exceeded_.load(std::memory_order_relaxed);
  m.counters["svc/requests_failed"] = failed_.load(std::memory_order_relaxed);
  m.counters["svc/retries"] = retries_.load(std::memory_order_relaxed);
  m.gauges["svc/lanes"] = static_cast<double>(opt_.lanes);
  {
    const std::lock_guard<std::mutex> lk(mu_);
    std::size_t depth = 0;
    for (const auto& lane : lanes_) {
      const std::string prefix = "svc/lane" + std::to_string(lane->index);
      m.gauges[prefix + "/queue_depth"] =
          static_cast<double>(lane->queue.size());
      m.counters[prefix + "/requests"] =
          lane->requests.load(std::memory_order_relaxed);
      m.counters[prefix + "/rejected"] =
          lane->rejected.load(std::memory_order_relaxed);
      depth += lane->queue.size();
    }
    m.gauges["svc/queue_depth"] = static_cast<double>(depth);
  }
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    m.gauges["svc/degraded"] = degraded_ ? 1.0 : 0.0;
  }
  return m;
}

ServiceHealth SimulationService::health() const {
  ServiceHealth h;
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    h = last_exec_;
    h.degraded = degraded_;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    h.queue_depth = 0;
    h.in_flight = false;
    for (const auto& lane : lanes_) {
      h.queue_depth += lane->queue.size();
      if (lane->running_id != 0) h.in_flight = true;
    }
  }
  h.retries_total = retries_.load(std::memory_order_relaxed);
  h.failed_total = failed_.load(std::memory_order_relaxed);
  return h;
}

void SimulationService::worker_loop(Lane& lane) {
  for (;;) {
    std::unique_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(
          lk, [&] { return shutdown_ || (!paused_ && !lane.queue.empty()); });
      if (shutdown_) return;
      // Priority order within the shard: higher priority first, FIFO
      // within a level (admission seq as the tiebreak).
      auto best = lane.queue.begin();
      for (auto qi = lane.queue.begin(); qi != lane.queue.end(); ++qi) {
        if ((*qi)->priority > (*best)->priority ||
            ((*qi)->priority == (*best)->priority &&
             (*qi)->seq < (*best)->seq)) {
          best = qi;
        }
      }
      p = std::move(*best);
      lane.queue.erase(best);
      lane.running_id = p->id;
      lane.running_cancel = p->cancel_flag;
    }

    const std::uint64_t exec_index =
        exec_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    lane.requests.fetch_add(1, std::memory_order_relaxed);
    ScenarioResult res = execute(*lane.setup, *p, exec_index);
    switch (res.status) {
      case RequestStatus::kCompleted:
        completed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kFailed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    p->promise.set_value(std::move(res));

    {
      const std::lock_guard<std::mutex> lk(mu_);
      lane.running_id = 0;
      lane.running_cancel.reset();
    }
    idle_cv_.notify_all();
  }
}

ScenarioResult SimulationService::execute(par::ParallelSetup& setup,
                                          Pending& p,
                                          std::uint64_t exec_index) {
  ScenarioResult res;
  res.id = p.id;
  res.exec_index = exec_index;
  const Clock::time_point picked = Clock::now();
  res.queue_seconds = seconds_between(p.admitted, picked);

  // All request-scoped telemetry lands in a registry local to this request,
  // merged into the service aggregate afterwards — metrics() never reads a
  // registry a thread is still writing.
  obs::Registry req_reg;
  {
    const obs::ScopedRegistry install(req_reg);
    QUAKE_OBS_SCOPE("svc/request");

    // An end-to-end deadline covers queueing: what is left of the budget
    // after the wait is what the solve gets.
    double remaining_budget = 0.0;
    bool run_it = true;
    if (p.req.deadline_seconds > 0.0) {
      remaining_budget = p.req.deadline_seconds - res.queue_seconds;
      if (remaining_budget <= 0.0) {
        res.status = RequestStatus::kDeadlineExceeded;
        run_it = false;
      }
    }
    if (run_it && p.cancel_flag->load(std::memory_order_relaxed)) {
      res.status = RequestStatus::kCancelled;
      run_it = false;
    }

    if (run_it) {
      // Materialize the request's sources against the service's mesh; this
      // (plus receiver snapping inside the solve) is all the per-request
      // setup there is — the expensive state is shared.
      std::vector<std::unique_ptr<solver::SourceModel>> sources;
      {
        QUAKE_OBS_SCOPE("setup");
        sources.reserve(p.req.point_sources.size() +
                        p.req.fault_sources.size());
        for (const PointSourceSpec& s : p.req.point_sources) {
          sources.push_back(std::make_unique<solver::PointSource>(
              setup.mesh(), s.position, s.direction, s.amplitude, s.fp,
              s.tc));
        }
        for (const solver::FaultSource::Spec& s : p.req.fault_sources) {
          sources.push_back(
              std::make_unique<solver::FaultSource>(setup.mesh(), s));
        }
      }
      std::vector<const solver::SourceModel*> src_ptrs;
      src_ptrs.reserve(sources.size());
      for (const auto& s : sources) src_ptrs.push_back(s.get());

      par::RunControl ctl;
      ctl.cancel = p.cancel_flag.get();
      ctl.deadline_seconds = remaining_budget;
      ctl.check_every = opt_.cancel_check_every;

      const Clock::time_point t0 = Clock::now();
      // Service-level degradation: when the solve's own revival/restart
      // budget is spent (a rank-failure escapes ParallelSetup::run), retry
      // the whole request up to req.max_attempts times with exponential
      // backoff. Only recoverable faults are retried; deadlocks and setup
      // errors are deterministic and fail immediately. The run leaves the
      // shared setup reusable after a failure, so a retry starts clean.
      const int max_attempts = std::max(1, p.req.max_attempts);
      for (;;) {
        ++res.attempts;
        try {
          QUAKE_OBS_SCOPE("solve");
          res.solve = setup.run(p.req.t_end, src_ptrs, p.req.receivers,
                                p.req.ft, ctl);
          break;
        } catch (const par::DeadlockError& e) {
          res.status = RequestStatus::kFailed;
          res.error = e.what();
          break;
        } catch (const par::RankFailedError& e) {
          res.status = RequestStatus::kFailed;
          res.error = e.what();
          if (res.attempts >= max_attempts) break;
          if (p.cancel_flag->load(std::memory_order_relaxed)) break;
          if (p.req.deadline_seconds > 0.0 &&
              seconds_between(p.admitted, Clock::now()) >=
                  p.req.deadline_seconds) {
            break;  // the end-to-end budget is gone; a retry cannot finish
          }
          retries_.fetch_add(1, std::memory_order_relaxed);
          if (p.req.retry_backoff_seconds > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                p.req.retry_backoff_seconds *
                std::ldexp(1.0, res.attempts - 1)));
          }
          res.status = RequestStatus::kCompleted;  // reset for the retry
          res.error.clear();
        } catch (const std::exception& e) {
          // Request-level failure (bad receiver, unusable checkpoint, ...):
          // this request fails, the service — and the shared setup — keep
          // serving.
          res.status = RequestStatus::kFailed;
          res.error = e.what();
          break;
        }
      }
      res.solve_seconds = seconds_between(t0, Clock::now());

      {
        QUAKE_OBS_SCOPE("extract");
        if (res.status != RequestStatus::kFailed && res.solve.cancelled) {
          // Both stop conditions funnel through the same step-boundary
          // agreement; the cancel flag tells them apart.
          res.status = p.cancel_flag->load(std::memory_order_relaxed)
                           ? RequestStatus::kCancelled
                           : RequestStatus::kDeadlineExceeded;
        }
      }
    }
    res.total_seconds = seconds_between(p.admitted, Clock::now());
  }

  if (res.attempts > 0) {
    // Health bookkeeping for requests that actually ran: the service is
    // degraded while requests need service-level retries (or fail), and
    // recovers as soon as one completes on its first attempt.
    const std::lock_guard<std::mutex> lk(health_mu_);
    degraded_ = res.attempts > 1 || res.status == RequestStatus::kFailed;
    last_exec_.last_id = res.id;
    last_exec_.last_attempts = res.attempts;
    last_exec_.last_revives_used = res.solve.revives_used;
    last_exec_.last_revives_budget = p.req.ft.max_revives;
    last_exec_.last_revives_remaining =
        std::max(0, p.req.ft.max_revives - res.solve.revives_used);
    last_exec_.last_recoveries =
        counter_sum(res.solve.obs_summary, "par/recoveries");
    last_exec_.last_steps_rolled_back =
        counter_sum(res.solve.obs_summary, "par/steps_rolled_back");
    last_exec_.last_steps_replayed =
        counter_sum(res.solve.obs_summary, "par/steps_replayed");
    last_exec_.last_donation_restores =
        counter_sum(res.solve.obs_summary, "par/donation_restores");
    last_exec_.last_multi_victim_replays =
        counter_sum(res.solve.obs_summary, "par/multi_victim_replays");
    last_exec_.last_solve_seconds = res.solve_seconds;
  }

  {
    const std::lock_guard<std::mutex> lk(agg_mu_);
    agg_.merge_from(req_reg);
    agg_.series["svc/latency_seconds"].push_back(res.total_seconds);
    agg_.series["svc/queue_seconds"].push_back(res.queue_seconds);
    agg_.series["svc/solve_seconds"].push_back(res.solve_seconds);
  }
  return res;
}

}  // namespace quake::svc

// serve: short point-source scenarios through one SimulationService (lanes
// x ranks per lane, on a smaller mesh than forward). Requests are short,
// so admission, queueing and the per-run fixed cost dominate.
//
// The end-to-end run sends closed bursts (the service saturated: its
// capacity). The traced run drives an open loop of independent users:
// seeded Poisson arrivals at a fixed ladder of offered rates, one
// generator thread that both sends and collects, each request timed from
// when it was due, so a stalled generator or a full queue shows in the
// latency of every request behind it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <thread>
#include <vector>

#include "basin.hpp"
#include "layers.hpp"
#include "quake/obs/obs.hpp"
#include "quake/svc/simulation_service.hpp"
#include "quake/vel/model.hpp"

namespace pb {

namespace svc = quake::svc;

namespace {

constexpr double kExtent = 20000.0;
constexpr double kTEnd = 0.12;  // three steps on the serve mesh

mesh::MeshOptions serve_mesh_options() {
  mesh::MeshOptions m;
  m.domain_size = kExtent;
  m.f_max = 0.05;
  m.n_lambda = 8.0;
  m.min_level = 3;
  m.max_level = 5;
  return m;
}

const quake::vel::BasinModel& serve_model() {
  static const quake::vel::BasinModel model =
      quake::vel::BasinModel::demo(kExtent);
  return model;
}

svc::ScenarioRequest make_request(Rng& rng, double t_end) {
  svc::ScenarioRequest req;
  svc::PointSourceSpec p;
  p.position = {rng.uniform(0.15, 0.85) * kExtent,
                rng.uniform(0.15, 0.85) * kExtent, rng.uniform(1000.0, 6000.0)};
  const double az = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double dip = rng.uniform(-1.0, 1.0);
  const double h = std::sqrt(1.0 - dip * dip);
  p.direction = {h * std::cos(az), h * std::sin(az), dip};
  p.amplitude = 1.0e6;
  p.fp = rng.uniform(1.5, 2.5);
  p.tc = 0.2;
  req.point_sources = {p};
  for (int s = 0; s < 3; ++s) {
    const double x = rng.uniform(0.1, 0.9) * kExtent;
    req.receivers.push_back({x, rng.uniform(0.1, 0.9) * kExtent, 0.0});
  }
  req.t_end = t_end;
  return req;
}

struct ServeSetup {
  std::unique_ptr<mesh::HexMesh> mesh;
  std::unique_ptr<par::Partition> part;
  std::unique_ptr<svc::SimulationService> service;
};

ServeSetup build_service(const Options& opt, Trace& tr) {
  ServeSetup s;
  {
    SpanScope sp(tr, "mesh.generate_out_of_core");
    s.mesh = std::make_unique<mesh::HexMesh>(mesh::generate_mesh_out_of_core(
        serve_model(), serve_mesh_options(), opt.work_dir + "/serve.etree"));
  }
  {
    SpanScope sp(tr, "par.partition");
    s.part = std::make_unique<par::Partition>(
        par::partition_sfc(*s.mesh, opt.ranks_per_lane));
  }
  SpanScope sp(tr, "svc.construct");
  svc::ServiceOptions so;
  so.lanes = opt.lanes;
  so.queue_bound = static_cast<std::size_t>(opt.queue_bound);
  s.service = std::make_unique<svc::SimulationService>(
      *s.mesh, *s.part, solver::OperatorOptions{}, solver::SolverOptions{}, so);
  return s;
}

// One request as the generator saw it.
struct Sample {
  std::uint64_t index = 0;  // position in the rung's schedule
  double due = 0.0, sent = 0.0, submit_s = 0.0;
  double latency = INFINITY;  // due -> completion; inf = refused or failed
  double queue_s = 0.0, solve_s = 0.0, total_s = 0.0;
  bool refused = false, failed = false;
};

struct RungResult {
  double rate = 0.0, wall = 0.0;
  std::vector<Sample> samples;
  std::vector<double> depth;  // queue_depth() at each send
  std::vector<std::pair<std::uint64_t, svc::ScenarioResult>> kept;
};

// Sends one request at each offset in `due` (seconds from the start),
// then waits for every outstanding request. Request inputs come from
// `seed`; results of the schedule positions in `keep` are retained for the
// bitwise check.
RungResult run_schedule(svc::SimulationService& service, double rate,
                        const std::vector<double>& due, std::uint64_t seed,
                        const std::vector<std::uint64_t>& keep,
                        std::uint64_t first_id, Trace& tr) {
  RungResult r;
  r.rate = rate;
  Rng inputs(seed ^ 0x5eedull);
  struct Pending {
    std::size_t sample;
    std::future<svc::ScenarioResult> result;
  };
  std::vector<Pending> pending;
  r.samples.resize(due.size());
  const double t0 = now_s() + 0.01;
  std::size_t next = 0;
  while (next < due.size() || !pending.empty()) {
    const double now = now_s();
    if (next < due.size() && now >= t0 + due[next]) {
      Sample& s = r.samples[next];
      s.index = next;
      s.due = t0 + due[next];
      s.sent = now;
      svc::ScenarioRequest req = make_request(inputs, kTEnd);
      try {
        auto ticket = service.submit(std::move(req));
        pending.push_back({next, std::move(ticket.result)});
      } catch (const svc::QueueFullError&) {
        s.refused = true;
      }
      s.submit_s = now_s() - s.sent;
      r.depth.push_back(static_cast<double>(service.queue_depth()));
      ++next;
      continue;
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      svc::ScenarioResult res = pending[i].result.get();
      Sample& s = r.samples[pending[i].sample];
      s.queue_s = res.queue_seconds;
      s.solve_s = res.solve_seconds;
      s.total_s = res.total_seconds;
      s.failed = res.status != svc::RequestStatus::kCompleted;
      if (!s.failed) s.latency = (s.sent - s.due) + res.total_seconds;
      if (tr.enabled && !s.failed) {
        const std::uint64_t rq = first_id + s.index;
        const int id = tr.add("svc.request", s.due, s.due + s.latency,
                              tr.current(), rq, 2);
        tr.add("gen.lag", s.due, s.sent, id, rq, 2);
        tr.add("svc.submit", s.sent, s.sent + s.submit_s, id, rq, 2);
        tr.add("svc.queue", s.sent, s.sent + s.queue_s, id, rq, 2);
        tr.add("svc.solve", s.sent + s.queue_s,
               s.sent + s.queue_s + s.solve_s, id, rq, 2);
      }
      if (std::find(keep.begin(), keep.end(), s.index) != keep.end()) {
        r.kept.emplace_back(s.index, std::move(res));
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    // Sleep until the next send, or block on the oldest outstanding
    // request once everything is sent: completion times come from the
    // service, so the generator never polls and never competes with the
    // rank threads for a core.
    if (next < due.size()) {
      const double nap = t0 + due[next] - now_s();
      if (nap > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(nap));
      }
    } else if (!pending.empty()) {
      pending.front().result.wait();
    }
  }
  r.wall = now_s() - t0;
  return r;
}

// One rung: Poisson arrivals at `rate` for `seconds`.
RungResult run_rung(svc::SimulationService& service, double rate,
                    double seconds, std::uint64_t seed,
                    const std::vector<std::uint64_t>& keep,
                    std::uint64_t first_id, Trace& tr) {
  Rng arrivals(seed);
  std::vector<double> due;
  for (double t = arrivals.exponential(rate); t < seconds;
       t += arrivals.exponential(rate)) {
    due.push_back(t);
  }
  return run_schedule(service, rate, due, seed, keep, first_id, tr);
}

// Every segment at one offered rate, merged.
struct RateResult {
  double rate = 0.0, wall = 0.0;
  std::vector<Sample> samples;
  std::vector<double> depth;
  bool steady = true;  // nothing refused or failed, no growing backlog
};

// A segment is steady when nothing was refused or failed and the backlog
// did not grow: the mean queue depth over the last quarter of sends
// exceeds the first quarter's by at most two requests.
bool steady(const RungResult& r) {
  for (const Sample& s : r.samples) {
    if (s.refused || s.failed) return false;
  }
  const std::size_t q = r.depth.size() / 4;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += r.depth[i];
    last += r.depth[r.depth.size() - 1 - i];
  }
  return q == 0 || (last - first) / static_cast<double>(q) <= 2.0;
}

void merge(RateResult& into, const RungResult& r) {
  into.rate = r.rate;
  into.wall += r.wall;
  into.samples.insert(into.samples.end(), r.samples.begin(), r.samples.end());
  into.depth.insert(into.depth.end(), r.depth.begin(), r.depth.end());
  into.steady = into.steady && steady(r);
}

std::vector<double> pick(const RateResult& r, double Sample::*field) {
  std::vector<double> v;
  for (const Sample& s : r.samples) v.push_back(s.*field);
  return v;
}

// A rate meets the limit when every segment was steady and the tail
// latency of all its requests is within `limit`.
bool meets_limit(const RateResult& r, double limit) {
  return r.steady && r.samples.size() >= 4 &&
         tail(pick(r, &Sample::latency)).value <= limit;
}

// Replays kept requests directly through ParallelSetup::run on a fresh
// setup of the same mesh and partition; each must be bitwise equal.
void check_against_direct(const ServeSetup& s, const RungResult& r,
                          std::uint64_t seed, Report& rep) {
  par::ParallelSetup direct(*s.mesh, *s.part, solver::OperatorOptions{},
                            solver::SolverOptions{});
  Rng inputs(seed ^ 0x5eedull);
  std::vector<svc::ScenarioRequest> reqs;
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    reqs.push_back(make_request(inputs, kTEnd));
  }
  for (const auto& [index, res] : r.kept) {
    const svc::ScenarioRequest& q = reqs[index];
    const svc::PointSourceSpec& p = q.point_sources[0];
    const solver::PointSource src(*s.mesh, p.position, p.direction,
                                  p.amplitude, p.fp, p.tc);
    const solver::SourceModel* srcs[] = {&src};
    const par::ParallelResult want = direct.run(q.t_end, srcs, q.receivers);
    rep.check(fingerprint(want) == fingerprint(res.solve),
              "served request is bitwise equal to a direct run");
  }
}

}  // namespace

int run_serve(const Options& opt, Report& rep, Trace& tr) {
  if (opt.ladder.empty() || opt.nominal_rps <= 0 || opt.limit_s <= 0) {
    throw std::invalid_argument("serve needs --ladder, --nominal, --limit");
  }
  Trace off;

  // Set-up, several times: mesh out of core, partition, the service (one
  // ParallelSetup replica per lane), and one one-step request per lane.
  std::vector<double> setup_s;
  ServeSetup s;
  for (int k = 0; k < (opt.smoke ? 1 : 5); ++k) {
    s = ServeSetup{};
    setup_s.push_back(timed([&] {
      s = build_service(opt, off);
      Rng rng(opt.seed);
      std::vector<svc::SimulationService::Ticket> first;
      for (int l = 0; l < opt.lanes; ++l) {
        first.push_back(s.service->submit(make_request(rng, s.service->dt())));
      }
      for (auto& t : first) t.result.get();
    }));
  }

  if (!opt.trace) {
    // Closed bursts: kBurst requests sent at once, first send to last
    // completion, repeated until `seconds` pass. The service stays
    // saturated, so a burst's time is its capacity; open-loop latency at
    // the nominal rate varies up to 2x run to run on a shared host (its
    // millisecond-scale thread wake-ups), so it is reported per-layer.
    constexpr std::size_t kBurst = 64;
    std::vector<std::uint64_t> keep;
    Rng pick_rng(opt.seed * 31 + 7);
    for (int i = 0; i < 4; ++i) keep.push_back(pick_rng.range(0, kBurst - 1));
    std::vector<double> burst_s;
    RungResult first;
    const double stop = now_s() + opt.seconds;
    for (std::uint64_t k = 0; now_s() < stop || burst_s.size() < 3; ++k) {
      RungResult b = run_schedule(*s.service, 0.0,
                                  std::vector<double>(kBurst, 0.0),
                                  opt.seed * 1000 + k,
                                  k == 0 ? keep : std::vector<std::uint64_t>{},
                                  0, off);
      rep.attempt(kBurst);
      std::int64_t bad = 0;
      for (const Sample& smp : b.samples) bad += smp.refused || smp.failed;
      rep.fail(bad, "burst requests refused or failed");
      burst_s.push_back(b.wall);
      if (k == 0) first = std::move(b);
    }
    check_against_direct(s, first, opt.seed * 1000, rep);
    rep.set("setup_s", median(setup_s), "s");
    rep.set("op_p25_s", quantile(burst_s, 0.25), "s");
    return 0;
  }

  // Open loop. The nominal rate gets half of the untraced pass, split into
  // one segment before each other rung so its samples spread over the
  // pass; the second half of the run is the traced pass.
  const double budget = opt.seconds / 2;
  std::vector<double> others;
  for (const double r : opt.ladder) {
    if (r != opt.nominal_rps) others.push_back(r);
  }
  if (others.size() == opt.ladder.size()) {
    throw std::invalid_argument("--nominal is not on --ladder");
  }
  const std::size_t n_seg = std::max<std::size_t>(others.size(), 1);
  const double seg = budget / 2 / static_cast<double>(n_seg);
  std::map<double, RateResult> rates;
  RungResult first_nominal;
  std::vector<std::uint64_t> keep;
  Rng pick_rng(opt.seed * 31 + 7);
  for (std::size_t k = 0; k < n_seg; ++k) {
    const std::uint64_t seed = opt.seed * 1000 + 2 * k;
    if (k == 0) {
      const int n_expect = std::max(2, static_cast<int>(opt.nominal_rps * seg));
      for (int i = 0; i < 4; ++i) {
        keep.push_back(pick_rng.range(0, n_expect / 2));
      }
    }
    RungResult nom = run_rung(*s.service, opt.nominal_rps, seg, seed,
                              k == 0 ? keep : std::vector<std::uint64_t>{},
                              seed * 100000, off);
    merge(rates[opt.nominal_rps], nom);
    if (k == 0) first_nominal = std::move(nom);
    if (k < others.size()) {
      merge(rates[others[k]], run_rung(*s.service, others[k], seg, seed + 1, {},
                                       (seed + 1) * 100000, off));
    }
  }
  const RateResult& nominal = rates[opt.nominal_rps];

  // Failures: at the nominal rate every refusal or failure counts; above
  // it refusals are the measured outcome, failed solves still count.
  std::int64_t failed_nominal = 0, failed_other = 0;
  for (const auto& [rate, r] : rates) {
    for (const Sample& smp : r.samples) {
      if (rate == opt.nominal_rps) {
        rep.attempt();
        failed_nominal += smp.refused || smp.failed;
      } else {
        failed_other += smp.failed;
      }
    }
  }
  rep.fail(failed_nominal, "requests refused or failed at the nominal rate");
  rep.fail(failed_other, "requests failed above the nominal rate");
  check_against_direct(s, first_nominal, opt.seed * 1000, rep);

  const std::vector<double> lat = pick(nominal, &Sample::latency);
  std::vector<double> lag, handoff;
  double busy = 0.0;
  for (const Sample& smp : nominal.samples) {
    lag.push_back(smp.sent - smp.due);
    handoff.push_back(smp.total_s - smp.queue_s - smp.solve_s);
    busy += smp.solve_s;
  }

  // Traced pass: the nominal rung again with quake::obs and spans on.
  tr.enabled = true;
  quake::obs::set_enabled(true);
  const int root = tr.begin("serve");
  RateResult traced;
  merge(traced, run_rung(*s.service, opt.nominal_rps, budget,
                         opt.seed * 1000, {}, 1, tr));
  tr.end(root);
  quake::obs::set_enabled(false);
  rep.set("obs.overhead_frac",
          median(pick(traced, &Sample::latency)) / median(lat) - 1.0, "frac");
  rep.set("ledger_residual_frac", tr.residual_frac("svc.request"), "frac");

  rep.set("svc.latency_p50_s", median(lat), "s");
  const Tail t = tail(lat);
  rep.set("svc.latency_tail_s", t.value, "s");
  rep.set("svc.latency_tail_pct", t.percentile, "%");
  rep.set("svc.latency_tail_n", static_cast<double>(t.beyond), "count");
  double max_rate = 0.0;
  for (const auto& [rate, r] : rates) {
    if (meets_limit(r, opt.limit_s)) max_rate = std::max(max_rate, rate);
  }
  rep.set("svc.max_rate_rps", max_rate, "1/s");
  rep.set("svc.failed_frac",
          static_cast<double>(failed_nominal) /
              static_cast<double>(std::max<std::size_t>(lat.size(), 1)),
          "frac");

  const std::vector<double> queue = pick(nominal, &Sample::queue_s);
  rep.set("svc.submit_tail_s", tail(pick(nominal, &Sample::submit_s)).value,
          "s");
  rep.set("svc.queue_p50_s", median(queue), "s");
  rep.set("svc.queue_tail_s", tail(queue).value, "s");
  rep.set("svc.solve_p50_s", median(pick(nominal, &Sample::solve_s)), "s");
  rep.set("svc.handoff_p50_s", median(handoff), "s");
  rep.set("svc.queue_depth_max",
          *std::max_element(nominal.depth.begin(), nominal.depth.end()),
          "count");
  rep.set("svc.lane_busy_frac", busy / (opt.lanes * nominal.wall), "frac");
  rep.set("svc.gen_lag_max_s", *std::max_element(lag.begin(), lag.end()), "s");
  double sent = 0, completed = 0, failed = 0, rejected = 0;
  for (const auto& [rate, r] : rates) {
    for (const Sample& smp : r.samples) {
      sent += 1;
      completed += !smp.refused && !smp.failed;
      failed += smp.failed;
      rejected += smp.refused;
    }
  }
  rep.set("svc.sent", sent, "count");
  rep.set("svc.completed", completed, "count");
  rep.set("svc.failed", failed, "count");
  rep.set("svc.rejected", rejected, "count");

  // Per-run fixed cost and marginal step cost of one lane's solve, measured
  // directly on a ParallelSetup of the serve mesh.
  {
    par::ParallelSetup direct(*s.mesh, *s.part, solver::OperatorOptions{},
                              solver::SolverOptions{});
    Rng rng(opt.seed);
    const svc::ScenarioRequest q = make_request(rng, kTEnd);
    const svc::PointSourceSpec& p = q.point_sources[0];
    const solver::PointSource src(*s.mesh, p.position, p.direction,
                                  p.amplitude, p.fp, p.tc);
    const solver::SourceModel* srcs[] = {&src};
    const double t_many = 11 * direct.dt();
    const int extra = direct.n_steps(t_many) - direct.n_steps(direct.dt());
    std::vector<double> one, many;
    for (int k = 0; k < (opt.smoke ? 2 : 30); ++k) {
      one.push_back(timed([&] {
        SpanScope sp(tr, "par.run_fixed");
        direct.run(direct.dt(), srcs, q.receivers);
      }));
      many.push_back(timed([&] {
        SpanScope sp(tr, "par.run_steps");
        direct.run(t_many, srcs, q.receivers);
      }));
    }
    rep.set("par.run_fixed_s", median(one), "s");
    rep.set("par.run_step_s", (median(many) - median(one)) / extra, "s");
  }
  report_mesh_layers(serve_model(), serve_mesh_options(), s.mesh->n_elements(),
                     opt.ranks_per_lane, opt.smoke ? 1 : 3, opt.work_dir, tr,
                     rep);
  return 0;
}

}  // namespace pb

// recover: the forward solve at R=4 with fault tolerance armed (checkpoint
// cadence, buddy donation, message log) and seeded mid-solve rank kills,
// each repaired in place by tier-1 replay. It runs the same step loop as
// `forward` through its checkpoint writes, log appends and replay, so a
// change that slows the recovery path but not the plain path shows here
// and nowhere else.

#include <filesystem>
#include <string>
#include <vector>

#include "basin.hpp"
#include "layers.hpp"
#include "quake/obs/obs.hpp"
#include "quake/par/communicator.hpp"
#include "quake/util/checkpoint.hpp"

namespace pb {

namespace {

constexpr int kRanks = 4;
constexpr int kKills = 2;

double counter_sum(const par::ParallelResult& r, const char* key) {
  const auto it = r.obs_summary.counters.find(key);
  return it == r.obs_summary.counters.end() ? 0.0 : it->second.sum;
}

struct Runs {
  std::vector<double> plain, armed, killed;
  par::ParallelResult last_killed;
};

}  // namespace

int run_recover(const Options& opt, Report& rep, Trace& tr) {
  const BasinCase c = make_basin_case(opt.seed, opt.smoke);
  Trace off;

  std::vector<double> setup_s;
  BasinSetup b;
  for (int k = 0; k < (opt.smoke ? 1 : 5); ++k) {
    b = BasinSetup{};
    setup_s.push_back(timed([&] {
      b = build_basin(c, {kRanks}, opt.work_dir, off);
      const solver::SourceModel* src[] = {b.source.get()};
      b.setups[0]->run(b.setups[0]->dt(), src, c.stations);
    }));
  }
  par::ParallelSetup& setup = *b.setups[0];

  // Seeded kills: the seed picks the victim ranks and which of the three
  // checkpoint intervals after the first cut they die in (two different
  // ones, so each kill is its own recovery epoch). Each dies half an
  // interval past its cut, so every seed replays the same number of steps.
  const int n = setup.n_steps(c.t_end);
  const int every = std::max(2, n / 4);
  Rng rng(opt.seed * 7919 + 17);
  const int skip = rng.range(1, 3);  // the interval without a kill
  par::FaultPlan plan;
  for (int i = 1; i <= 3 && static_cast<int>(plan.kills.size()) < kKills; ++i) {
    if (i == skip) continue;
    plan.kills.push_back({rng.range(0, kRanks - 1), i * every + every / 2});
  }
  const std::string ckpt = opt.work_dir + "/ckpt";
  par::FaultToleranceOptions armed;
  armed.checkpoint_dir = ckpt;
  armed.checkpoint_every = every;
  armed.max_revives = kKills + 1;
  par::FaultToleranceOptions killed = armed;
  killed.fault_plan = &plan;

  const par::ParallelResult ref = solve(c, b, setup);
  const std::uint64_t want = fingerprint(ref);
  const auto run = [&](const par::FaultToleranceOptions& ft, const char* span,
                       par::ParallelResult* out) {
    std::filesystem::remove_all(ckpt);
    par::ParallelResult r;
    const double t = timed([&] {
      SpanScope s(tr, span);
      r = solve(c, b, setup, ft);
    });
    rep.check(fingerprint(r) == want,
              "final field and seismograms bitwise equal to an undisturbed "
              "run");
    if (ft.fault_plan != nullptr) {
      rep.check(r.revives_used == kKills, "revives_used equals kills injected");
    }
    if (out != nullptr) *out = std::move(r);
    return t;
  };
  // Killed solves until `seconds` pass; with `all`, each round also runs
  // the unarmed and armed-without-fault solves.
  const auto measure = [&](double seconds, bool all) {
    Runs r;
    const double stop = now_s() + seconds;
    while (now_s() < stop || r.killed.size() < 3) {
      if (all) {
        r.plain.push_back(run({}, "par.run", nullptr));
        r.armed.push_back(run(armed, "par.run_armed", nullptr));
      }
      r.killed.push_back(run(killed, "par.run_recover", &r.last_killed));
    }
    std::filesystem::remove_all(ckpt);
    return r;
  };

  if (!opt.trace) {
    const Runs r = measure(opt.seconds, false);
    rep.set("setup_s", median(setup_s), "s");
    rep.set("op_p25_s", quantile(r.killed, 0.25), "s");
    return 0;
  }

  const Runs u = measure(opt.seconds / 2, true);
  tr.enabled = true;
  quake::obs::set_enabled(true);
  Runs t;
  const int root = tr.begin("recover");
  t = measure(opt.seconds / 2, false);
  tr.end(root);
  quake::obs::set_enabled(false);

  const double plain = median(u.plain), arm = median(u.armed),
               kill = median(u.killed);
  rep.set("par.ft_armed_overhead_s", arm - plain, "s");
  rep.set("par.recovery_s", kill - arm, "s");
  rep.set("par.revives_used", u.last_killed.revives_used, "count");
  rep.set("par.steps_replayed",
          counter_sum(t.last_killed, "par/steps_replayed"), "count");
  rep.set("par.steps_rolled_back",
          counter_sum(t.last_killed, "par/steps_rolled_back"), "count");
  const auto& scopes = t.last_killed.obs_summary.scopes;
  const auto replay = scopes.find("recover/replay");
  rep.set("par.recover_replay_s",
          replay == scopes.end() ? 0.0 : replay->second.seconds.max, "s");
  rep.set("obs.overhead_frac", median(t.killed) / kill - 1.0, "frac");
  rep.set("ledger_residual_frac", tr.residual_frac("recover"), "frac");

  // A direct snapshot write of one rank's checkpoint state (u, u_prev,
  // dku_prev over its local nodes).
  {
    const std::size_t local = ref.rank_stats[0].n_local_nodes;
    quake::util::Snapshot snap;
    snap.step = every;
    Rng fill(opt.seed);
    for (const char* name : {"u", "u_prev", "dku_prev"}) {
      std::vector<double> v(3 * local);
      for (double& x : v) x = fill.uniform(-1.0, 1.0);
      snap.add(name, std::move(v));
    }
    const std::string path = opt.work_dir + "/snapshot.ckpt";
    std::vector<double> write;
    for (int k = 0; k < (opt.smoke ? 2 : 10); ++k) {
      write.push_back(timed([&] {
        SpanScope s(tr, "util.save_snapshot");
        quake::util::save_snapshot(path, snap);
      }));
    }
    rep.set("util.ckpt_bytes",
            static_cast<double>(std::filesystem::file_size(path)), "B");
    rep.set("util.ckpt_write_s", median(write), "s");
    std::filesystem::remove(path);
  }

  report_mesh_layers(basin_model(), c.mesh_opt, b.mesh->n_elements(), kRanks,
                     opt.smoke ? 1 : 2, opt.work_dir, tr, rep);
  return 0;
}

}  // namespace pb

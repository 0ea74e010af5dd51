// forward: the Table 2.1 time-to-solution. The LA-basin mesh is built out
// of core (etree path), then one long solve runs at R=4 through
// ParallelSetup::run, interleaved with the same solve at R=1 as the plain
// single-thread baseline. Kernel, Stacey faces, hanging-node fold, lumped
// update and ghost exchange do almost all the work; the per-run fixed cost
// and the service do almost none.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "basin.hpp"
#include "layers.hpp"
#include "quake/obs/obs.hpp"

namespace pb {

namespace {

constexpr int kRanks = 4;

struct Runs {
  std::vector<double> t4, t1;
  par::ParallelResult last4, last1;
};

// Solves at R=4 until `seconds` have passed, with `with_r1` also one R=1
// solve per two R=4 solves, checking every result: R=4 repeats bitwise,
// R=1 repeats bitwise, and R=4 agrees with R=1 to rounding.
Runs measure(const BasinCase& c, BasinSetup& b, double seconds, bool with_r1,
             std::uint64_t want4, const par::ParallelResult& ref1,
             Trace& tr, Report& rep) {
  Runs r;
  const double stop = now_s() + seconds;
  for (int i = 0; now_s() < stop || r.t4.size() < 3 ||
                  (with_r1 && r.t1.size() < 2);
       ++i) {
    r.t4.push_back(timed([&] {
      SpanScope s(tr, "par.run_r4");
      r.last4 = solve(c, b, *b.setups[0]);
    }));
    rep.check(fingerprint(r.last4) == want4, "R=4 output repeats bitwise");
    rep.check(max_rel_diff(r.last4, ref1) <= 1e-9,
              "R=4 seismograms agree with R=1 to rounding");
    if (with_r1 && i % 2 == 1) {
      r.t1.push_back(timed([&] {
        SpanScope s(tr, "par.run_r1");
        r.last1 = solve(c, b, *b.setups[1]);
      }));
      rep.check(fingerprint(r.last1) == fingerprint(ref1),
                "R=1 output repeats bitwise");
    }
  }
  return r;
}

// The R=4 hash of this seed must repeat across invocations of the same
// binary: kept in the work directory keyed by the executable's identity.
void check_hash_across_runs(const Options& opt, std::uint64_t h, Report& rep) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return;
  const std::string id =
      std::to_string(std::filesystem::file_size(exe, ec)) + ":" +
      std::to_string(
          std::filesystem::last_write_time(exe, ec).time_since_epoch().count());
  const std::string path = opt.work_dir + "/forward-seed" +
                           std::to_string(opt.seed) +
                           (opt.smoke ? "-smoke" : "") + ".hash";
  std::string old_id;
  std::uint64_t old_h = 0;
  if (std::ifstream in(path); in >> old_id >> old_h && old_id == id) {
    rep.check(old_h == h, "R=4 output hash repeats run to run");
    return;
  }
  std::ofstream(path) << id << " " << h << "\n";
}

}  // namespace

int run_forward(const Options& opt, Report& rep, Trace& tr) {
  const BasinCase c = make_basin_case(opt.seed, opt.smoke);
  Trace off;

  // Set-up, several times: mesh out of core, source, partition and setup at
  // both rank counts, and a first one-step solve at each (so lazy work in
  // the first run counts as set-up).
  std::vector<double> setup_s;
  BasinSetup b;
  for (int k = 0; k < (opt.smoke ? 1 : 5); ++k) {
    b = BasinSetup{};
    setup_s.push_back(timed([&] {
      b = build_basin(c, {kRanks, 1}, opt.work_dir, off);
      for (auto& s : b.setups) {
        const solver::SourceModel* src[] = {b.source.get()};
        s->run(s->dt(), src, c.stations);
      }
    }));
  }
  const par::ParallelResult ref1 = solve(c, b, *b.setups[1]);
  const std::uint64_t want4 = fingerprint(solve(c, b, *b.setups[0]));
  check_hash_across_runs(opt, want4, rep);

  if (!opt.trace) {
    const Runs r = measure(c, b, opt.seconds, false, want4, ref1, off, rep);
    rep.set("setup_s", median(setup_s), "s");
    rep.set("op_p25_s", quantile(r.t4, 0.25), "s");
    return 0;
  }

  // Traced run: an untraced pass for the reference numbers, then the same
  // pass with quake::obs and the benchmark's spans on.
  const Runs u = measure(c, b, opt.seconds / 2, true, want4, ref1, off, rep);
  tr.enabled = true;
  quake::obs::set_enabled(true);
  Runs t;
  const int root = tr.begin("forward");
  {
    BasinSetup bt = build_basin(c, {kRanks, 1}, opt.work_dir, tr);
    t = measure(c, bt, opt.seconds / 2, true, want4, ref1, tr, rep);
  }
  tr.end(root);
  quake::obs::set_enabled(false);

  const double n = u.last4.n_steps;
  const double t4 = median(u.t4), t1 = median(u.t1);
  rep.set("par.step_s", t4 / n, "s");
  rep.set("par.step_r1_s", t1 / n, "s");
  rep.set("par.parallel_eff", t1 / (kRanks * t4), "frac");
  rep.set("obs.overhead_frac", median(t.t4) / t4 - 1.0, "frac");
  rep.set("ledger_residual_frac", tr.residual_frac("forward"), "frac");

  double cmax = 0, cmin = 1e300, xmax = 0, omin = 1e300, sent = 0, upd = 0;
  for (const auto& s : u.last4.rank_stats) {
    cmax = std::max(cmax, s.compute_seconds);
    cmin = std::min(cmin, s.compute_seconds);
    xmax = std::max(xmax, s.exchange_seconds);
    omin = std::min(omin, s.overlap_fraction);
    sent += static_cast<double>(s.doubles_sent_per_step);
    upd += static_cast<double>(s.element_updates);
  }
  rep.set("par.compute_max_s", cmax / n, "s");
  rep.set("par.compute_min_s", cmin / n, "s");
  rep.set("par.exchange_max_s", xmax / n, "s");
  rep.set("par.overlap_min", omin, "frac");
  rep.set("par.doubles_sent_per_step", sent, "count");
  rep.set("par.element_updates", upd, "count");
  const auto& scopes = t.last4.obs_summary.scopes;
  const auto wait = scopes.find("step/exchange/drain/wait");
  rep.set("par.drain_wait_max_s",
          wait == scopes.end() ? 0.0 : wait->second.seconds.max / n, "s");

  // Single layers, measured one at a time after the passes.
  report_mesh_layers(basin_model(), c.mesh_opt, b.mesh->n_elements(), kRanks,
                     opt.smoke ? 1 : 2, opt.work_dir, tr, rep);
  const OperatorTimes op = time_operator(*b.mesh, opt.smoke ? 3 : 15, tr);
  const double step_r1 = t1 / n;
  rep.set("fem.kernel_s", op.kernel_s, "s");
  rep.set("fem.kernel_gflops", op.kernel_flops / op.kernel_s * 1e-9, "GFLOP/s");
  rep.set("fem.kernel_flop_per_byte", op.kernel_flops / op.kernel_bytes,
          "flop/B");
  rep.set("fem.kernel_gbps", op.kernel_bytes / op.kernel_s * 1e-9, "GB/s");
  rep.set("fem.working_set_mb", op.kernel_bytes / (1024.0 * 1024.0), "MB");
  rep.set("fem.faces_s", op.faces_s, "s");
  rep.set("solver.fold_s", op.fold_s, "s");
  rep.set("solver.update_s", step_r1 - op.kernel_s - op.faces_s - op.fold_s,
          "s");

  // Bandwidth ceiling: each triad array at least 4x the last-level cache.
  const std::size_t llc = llc_bytes();
  const std::size_t array_bytes =
      opt.smoke ? (std::size_t{64} << 20)
                : std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const Triad tri = measure_triad(array_bytes, kRanks, opt.smoke ? 1 : 3);
  rep.set("mem.llc_mb", static_cast<double>(llc) / (1024.0 * 1024.0), "MB");
  rep.set("mem.triad_array_mb",
          static_cast<double>(array_bytes) / (1024.0 * 1024.0), "MB");
  rep.set("mem.triad_gbps", tri.gbps, "GB/s");
  rep.set("mem.triad_1t_gbps", tri.gbps_1t, "GB/s");
  rep.set("fem.kernel_bw_frac",
          op.kernel_bytes / op.kernel_s * 1e-9 / tri.gbps_1t, "frac");
  return 0;
}

}  // namespace pb

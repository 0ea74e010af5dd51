// invert: one multiscale Gauss-Newton-CG material inversion on the 2D SH
// problem of bench_table3_1, single-threaded, solved to a fixed gradient
// reduction per stage. It touches none of fem/par/svc, so every change to
// those layers is predicted to leave it unchanged.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common.hpp"
#include "quake/inverse/material_inversion.hpp"
#include "quake/obs/obs.hpp"
#include "quake/vel/model.hpp"

namespace pb {

namespace inverse = quake::inverse;
namespace wave2d = quake::wave2d;

namespace {

constexpr double kRho = 2200.0;
constexpr double kGradTol = 0.1;
// Gates: the data misfit must fall at least 20x from the homogeneous start
// and the recovered model must sit within 25% (relative L2) of the target.
constexpr double kMaxMisfitRatio = 0.05;
constexpr double kMaxModelError = 0.25;

struct InvertCase {
  wave2d::ShGrid grid{48, 28, 625.0};
  std::vector<double> mu_true;
  std::unique_ptr<inverse::InversionProblem> prob;
};

// The basin cross-section target recorded at every surface station; the
// seed draws the measurement noise (Gaussian, 0.5% of the data RMS), which
// leaves the iteration counts, and so the work, nearly seed-independent.
InvertCase build_case(std::uint64_t seed, bool smoke) {
  InvertCase c;
  const wave2d::ShGrid& g = c.grid;
  const quake::vel::BasinModel basin = quake::vel::BasinModel::demo(g.width());
  c.mu_true.resize(static_cast<std::size_t>(g.n_elems()));
  for (int e = 0; e < g.n_elems(); ++e) {
    const int i = e % g.nx, k = e / g.nx;
    const double vs = std::clamp(
        basin.at((i + 0.5) * g.h, 0.55 * g.width(), (k + 0.5) * g.h).vs(),
        800.0, 3200.0);
    c.mu_true[static_cast<std::size_t>(e)] = kRho * vs * vs;
  }
  const wave2d::ShModel truth(g, std::vector<double>(c.mu_true), kRho);

  inverse::InversionSetup s;
  s.grid = g;
  s.rho = kRho;
  s.fault = {g.nx / 2, 6, 20};
  s.source = wave2d::make_rupture_params(g, s.fault, 1.5, 1.5, 13, 2800.0);
  for (int i = 1; i < g.nx; ++i) s.receiver_nodes.push_back(g.node(i, 0));
  s.dt = truth.stable_dt(0.4);
  s.nt = smoke ? 60 : 120;
  {
    const inverse::InversionProblem gen(s);
    s.observations = gen.forward(truth, s.source, false).march.records;
  }
  double ss = 0.0, count = 0.0;
  for (const auto& rec : s.observations) {
    for (const double d : rec) ss += d * d;
    count += static_cast<double>(rec.size());
  }
  const double sigma = 0.005 * std::sqrt(ss / std::max(count, 1.0));
  Rng rng(seed);
  for (auto& rec : s.observations) {
    for (double& d : rec) {
      // Box-Muller.
      const double r = std::sqrt(-2.0 * std::log1p(-rng.uniform()));
      d += sigma * r * std::cos(2.0 * std::numbers::pi * rng.uniform());
    }
  }
  c.prob = std::make_unique<inverse::InversionProblem>(std::move(s));
  return c;
}

inverse::MaterialInversionOptions inversion_options(bool smoke) {
  inverse::MaterialInversionOptions mo;
  mo.stages = smoke ? std::vector<std::pair<int, int>>{{2, 1}}
                    : std::vector<std::pair<int, int>>{{3, 2}, {6, 4}};
  mo.max_newton = 40;
  mo.cg = {60, 0.5};
  mo.beta_tv = 1e-14;
  mo.tv_eps = 5e7;
  mo.mu_min = 5e8;
  mo.initial_mu = kRho * 1800.0 * 1800.0;
  mo.grad_tol = kGradTol;
  mo.frankel_sweeps = 2;
  return mo;
}

struct Runs {
  std::vector<double> t;
  inverse::MaterialInversionResult last;
};

}  // namespace

int run_invert(const Options& opt, Report& rep, Trace& tr) {
  Trace off;
  std::vector<double> setup_s;
  InvertCase c;
  for (int k = 0; k < (opt.smoke ? 1 : 15); ++k) {
    setup_s.push_back(timed([&] { c = build_case(opt.seed, opt.smoke); }));
  }
  const inverse::MaterialInversionOptions mo = inversion_options(opt.smoke);

  std::vector<double> want_mu;
  const auto measure = [&](double seconds, Trace& t) {
    Runs r;
    const double stop = now_s() + seconds;
    while (now_s() < stop || r.t.size() < 3) {
      r.t.push_back(timed([&] {
        SpanScope s(t, "inverse.invert_material");
        r.last = inverse::invert_material(*c.prob, mo, c.mu_true);
      }));
      const auto& st = r.last.stages;
      bool reached = !st.empty();
      for (const auto& s : st) {
        reached = reached && s.grad_reduction <= kGradTol;
      }
      rep.check(reached, "every stage reaches the gradient reduction");
      rep.check(!st.empty() && st.back().misfit_final <=
                                   kMaxMisfitRatio * st.front().misfit_initial,
                "misfit reduction within bound");
      rep.check(!st.empty() &&
                    (opt.smoke || st.back().model_error <= kMaxModelError),
                "model error within bound");
      if (want_mu.empty()) want_mu = r.last.mu;
      rep.check(r.last.mu.size() == want_mu.size() &&
                    std::memcmp(r.last.mu.data(), want_mu.data(),
                                want_mu.size() * sizeof(double)) == 0,
                "inversion repeats bitwise");
    }
    return r;
  };

  if (!opt.trace) {
    const Runs r = measure(opt.seconds, off);
    rep.set("setup_s", median(setup_s), "s");
    rep.set("op_p25_s", quantile(r.t, 0.25), "s");
    return 0;
  }

  const Runs u = measure(opt.seconds / 2, off);
  tr.enabled = true;
  quake::obs::set_enabled(true);
  const int root = tr.begin("invert");
  const Runs t = measure(opt.seconds / 2, tr);
  tr.end(root);
  quake::obs::set_enabled(false);
  rep.set("obs.overhead_frac", median(t.t) / median(u.t) - 1.0, "frac");
  rep.set("ledger_residual_frac", tr.residual_frac("invert"), "frac");
  rep.set("opt.newton_iters", u.last.total_newton, "count");
  rep.set("opt.cg_iters", u.last.total_cg, "count");

  // One call of each inversion building block on the homogeneous start.
  const inverse::InversionProblem& prob = *c.prob;
  const auto& s = prob.setup();
  const wave2d::ShModel m0(s.grid,
                           std::vector<double>(c.mu_true.size(), mo.initial_mu),
                           kRho);
  std::vector<double> fwd, adj, grad, gn;
  Rng rng(opt.seed);
  std::vector<double> dmu(c.mu_true.size()), out(c.mu_true.size());
  for (double& x : dmu) x = rng.uniform(-1e8, 1e8);
  for (int k = 0; k < (opt.smoke ? 2 : 7); ++k) {
    inverse::InversionProblem::ForwardOut fo;
    fwd.push_back(timed([&] {
      SpanScope sp(tr, "wave2d.forward");
      fo = prob.forward(m0, s.source, true);
    }));
    inverse::History nu;
    adj.push_back(timed([&] {
      SpanScope sp(tr, "inverse.adjoint");
      nu = prob.adjoint(m0, fo.residuals);
    }));
    grad.push_back(timed([&] {
      SpanScope sp(tr, "inverse.gradient");
      std::fill(out.begin(), out.end(), 0.0);
      prob.assemble_material_gradient(m0, s.source, fo.march.history, nu, out);
    }));
    gn.push_back(timed([&] {
      SpanScope sp(tr, "inverse.gn_product");
      prob.gauss_newton_material(m0, s.source, fo.march.history, dmu, out);
    }));
  }
  rep.set("wave2d.forward_s", median(fwd), "s");
  rep.set("inverse.adjoint_s", median(adj), "s");
  rep.set("inverse.gradient_s", median(grad), "s");
  rep.set("inverse.gn_product_s", median(gn), "s");
  return 0;
}

}  // namespace pb

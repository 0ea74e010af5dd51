#include "quake/inverse/inversion3d.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "quake/obs/obs.hpp"
#include "quake/opt/gauss_newton.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"

namespace quake::inverse {

using wave3d::ScalarGrid3d;
using wave3d::ScalarModel3d;

namespace {

double ricker(double t, double fp, double tc) {
  const double a = std::numbers::pi * fp * (t - tc);
  return (1.0 - 2.0 * a * a) * std::exp(-a * a);
}

// The substrate's source hook for the Ricker point sources, which do not
// depend on the material.
struct PointForces {
  const std::vector<PointSource3d>& sources;

  void add_forces(const ScalarModel3d&, double t, std::span<double> f) const {
    for (const PointSource3d& s : sources) {
      f[static_cast<std::size_t>(s.node)] += s.amplitude * ricker(t, s.fp, s.tc);
    }
  }
};

}  // namespace

ScalarInversion3d::ScalarInversion3d(Setup3d setup)
    : setup_(std::move(setup)) {
  setup_.grid.validate();
  setup_.validate("ScalarInversion3d");
}

ForwardOut ScalarInversion3d::forward(const ScalarModel3d& model,
                                      bool store_history) const {
  return inverse::forward(setup_, model, PointForces{setup_.sources},
                          store_history);
}

History ScalarInversion3d::adjoint(const ScalarModel3d& model,
                                   const Records& driver) const {
  return inverse::adjoint(setup_, model, driver);
}

void ScalarInversion3d::assemble_gradient(const ScalarModel3d& model,
                                          const History& u, const History& nu,
                                          std::span<double> ge) const {
  assemble_material_gradient(setup_, model, PointForces{setup_.sources}, u, nu,
                             ge);
}

void ScalarInversion3d::gauss_newton(const ScalarModel3d& model,
                                     const History& u,
                                     std::span<const double> dmu,
                                     std::span<double> h_dmu) const {
  gauss_newton_material(setup_, model, PointForces{setup_.sources}, u, dmu,
                        h_dmu);
}

MaterialGrid3d::MaterialGrid3d(const ScalarGrid3d& wave, int gx, int gy,
                               int gz)
    : gx_(gx), gy_(gy), gz_(gz) {
  if (gx < 1 || gy < 1 || gz < 1) {
    throw std::invalid_argument("MaterialGrid3d: need >= 1 cell per side");
  }
  const double dx = wave.nx * wave.h / gx;
  const double dy = wave.ny * wave.h / gy;
  const double dz = wave.nz * wave.h / gz;
  elem_interp_.reserve(static_cast<std::size_t>(wave.n_elems()));
  for (int e = 0; e < wave.n_elems(); ++e) {
    const int i = e % wave.nx;
    const int j = (e / wave.nx) % wave.ny;
    const int k = e / (wave.nx * wave.ny);
    const double fx =
        std::clamp(((i + 0.5) * wave.h) / dx, 0.0, static_cast<double>(gx));
    const double fy =
        std::clamp(((j + 0.5) * wave.h) / dy, 0.0, static_cast<double>(gy));
    const double fz =
        std::clamp(((k + 0.5) * wave.h) / dz, 0.0, static_cast<double>(gz));
    const int ci = std::min(static_cast<int>(fx), gx - 1);
    const int cj = std::min(static_cast<int>(fy), gy - 1);
    const int ck = std::min(static_cast<int>(fz), gz - 1);
    const double tx = fx - ci, ty = fy - cj, tz = fz - ck;
    Interp it;
    int q = 0;
    for (int c = 0; c < 8; ++c) {
      const int ii = ci + (c & 1);
      const int jj = cj + ((c >> 1) & 1);
      const int kk = ck + ((c >> 2) & 1);
      it.idx[q] = (kk * (gy + 1) + jj) * (gx + 1) + ii;
      it.w[q] = ((c & 1) ? tx : 1.0 - tx) * ((c & 2) ? ty : 1.0 - ty) *
                ((c & 4) ? tz : 1.0 - tz);
      ++q;
    }
    elem_interp_.push_back(it);
  }
}

void MaterialGrid3d::apply(std::span<const double> m,
                           std::span<double> mu) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    double v = 0.0;
    for (int c = 0; c < 8; ++c) {
      v += it.w[c] * m[static_cast<std::size_t>(it.idx[c])];
    }
    mu[e] = v;
  }
}

void MaterialGrid3d::apply_transpose(std::span<const double> ge,
                                     std::span<double> gm) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    for (int c = 0; c < 8; ++c) {
      gm[static_cast<std::size_t>(it.idx[c])] += it.w[c] * ge[e];
    }
  }
}

namespace {

// Graph Laplacian on the (gx+1)x(gy+1)x(gz+1) material grid: out += L v.
void graph_laplacian(int gx, int gy, int gz, std::span<const double> v,
                     std::span<double> out) {
  const int sx = 1, sy = gx + 1, sz = (gx + 1) * (gy + 1);
  for (int k = 0; k <= gz; ++k) {
    for (int j = 0; j <= gy; ++j) {
      for (int i = 0; i <= gx; ++i) {
        const int idx = k * sz + j * sy + i * sx;
        double acc = 0.0;
        int deg = 0;
        auto nb = [&](int o) {
          acc += v[static_cast<std::size_t>(o)];
          ++deg;
        };
        if (i > 0) nb(idx - sx);
        if (i < gx) nb(idx + sx);
        if (j > 0) nb(idx - sy);
        if (j < gy) nb(idx + sy);
        if (k > 0) nb(idx - sz);
        if (k < gz) nb(idx + sz);
        out[static_cast<std::size_t>(idx)] +=
            deg * v[static_cast<std::size_t>(idx)] - acc;
      }
    }
  }
}

}  // namespace

Inversion3dReport invert_material3d(const ScalarInversion3d& prob,
                                    const Inversion3dOptions& opt,
                                    std::span<const double> mu_target) {
  if (!(opt.initial_mu > 0.0)) {
    throw std::invalid_argument("invert_material3d: initial_mu must be > 0");
  }
  const auto& setup = prob.setup();
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());
  const MaterialGrid3d mg(setup.grid, opt.gx, opt.gy, opt.gz);
  const std::size_t np = mg.n_params();

  double beta_h1 = 0.0;  // calibrated at the first linearization
  bool calibrated = false;
  std::vector<double> m(np, opt.initial_mu);
  std::vector<double> mu(ne);

  auto h1_value = [&](std::span<const double> mm) {
    if (!(beta_h1 > 0.0)) return 0.0;
    std::vector<double> lm(np, 0.0);
    graph_laplacian(opt.gx, opt.gy, opt.gz, mm, lm);
    return 0.5 * beta_h1 * util::dot(mm, lm);
  };
  auto projected = [&](std::span<const double> d, double alpha) {
    std::vector<double> trial(m);
    for (std::size_t i = 0; i < np; ++i) {
      trial[i] = std::max(opt.mu_min, trial[i] + alpha * d[i]);
    }
    return trial;
  };

  opt::GnProblem gn;
  gn.linearize = [&] {
    mg.apply(m, mu);
    const auto model =
        std::make_shared<const ScalarModel3d>(setup.grid, mu, setup.rho);
    const auto fwd = [&] {
      QUAKE_OBS_SCOPE("forward");
      return std::make_shared<const ForwardOut>(
          prob.forward(*model, /*history=*/true));
    }();
    opt::GnLinearization lin;
    lin.hessian = [&, model, fwd](std::span<const double> v,
                                  std::span<double> hv) {
      std::vector<double> dmu(ne), he(ne, 0.0);
      mg.apply(v, dmu);
      prob.gauss_newton(*model, fwd->march.history, dmu, he);
      mg.apply_transpose(he, hv);
      if (beta_h1 > 0.0) {
        std::vector<double> lv(np, 0.0);
        graph_laplacian(opt.gx, opt.gy, opt.gz, v, lv);
        for (std::size_t i = 0; i < np; ++i) hv[i] += beta_h1 * lv[i];
      }
    };
    if (opt.beta_h1_rel > 0.0 && !calibrated) {
      // Calibrate the smoothness weight against the data-term curvature
      // (beta_h1 is still 0) on an alternating-sign probe direction.
      std::vector<double> v(np), hv(np, 0.0), lv(np, 0.0);
      for (std::size_t i = 0; i < np; ++i) v[i] = (i % 2 == 0) ? 1.0 : -1.0;
      lin.hessian(v, hv);
      graph_laplacian(opt.gx, opt.gy, opt.gz, v, lv);
      const double hn = util::norm_l2(hv), ln = util::norm_l2(lv);
      beta_h1 = ln > 0.0 ? opt.beta_h1_rel * hn / ln : 0.0;
      QUAKE_LOG_DEBUG("inv3d: calibrated beta_h1 = %.3e", beta_h1);
    }
    calibrated = true;

    std::vector<double> ge(ne, 0.0);
    {
      QUAKE_OBS_SCOPE("adjoint");
      const auto nu = prob.adjoint(*model, fwd->residuals);
      prob.assemble_gradient(*model, fwd->march.history, nu, ge);
    }
    lin.gradient.assign(np, 0.0);
    mg.apply_transpose(ge, lin.gradient);
    if (beta_h1 > 0.0) {
      std::vector<double> lm(np, 0.0);
      graph_laplacian(opt.gx, opt.gy, opt.gz, m, lm);
      for (std::size_t i = 0; i < np; ++i) lin.gradient[i] += beta_h1 * lm[i];
    }
    lin.misfit = fwd->misfit;
    lin.objective = fwd->misfit + h1_value(m);
    return lin;
  };
  gn.trial = [&](std::span<const double> d, double alpha) {
    const std::vector<double> mm = projected(d, alpha);
    std::vector<double> mu_try(ne);
    mg.apply(mm, mu_try);
    const ScalarModel3d model(setup.grid, std::move(mu_try), setup.rho);
    return prob.forward(model, false).misfit + h1_value(mm);
  };
  gn.accept = [&](auto d, double alpha) { m = projected(d, alpha); };

  const opt::GnReport gr = opt::gauss_newton(
      gn, {.max_newton = opt.max_newton,
           .cg = opt.cg,
           .grad_tol = opt.grad_tol,
           .lbfgs_pairs = 30});
  Inversion3dReport report{.n_params = np,
                           .newton_iters = gr.newton_iters,
                           .cg_iters = gr.cg_iters,
                           .misfit_initial = gr.misfit_initial,
                           .misfit_final = gr.misfit_final,
                           .grad_reduction = gr.grad_reduction,
                           .mu = std::vector<double>(ne)};
  mg.apply(m, report.mu);
  if (!mu_target.empty()) {
    report.model_error = util::rel_l2(report.mu, mu_target);
  }
  return report;
}

}  // namespace quake::inverse

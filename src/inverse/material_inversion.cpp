#include "quake/inverse/material_inversion.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "quake/inverse/band.hpp"
#include "quake/inverse/regularization.hpp"
#include "quake/obs/obs.hpp"
#include "quake/opt/gauss_newton.hpp"
#include "quake/util/stats.hpp"

namespace quake::inverse {

MaterialInversionResult invert_material(const InversionProblem& prob,
                                        const MaterialInversionOptions& opt,
                                        std::span<const double> mu_target) {
  if (opt.stages.empty()) {
    throw std::invalid_argument("invert_material: no stages");
  }
  const auto& setup = prob.setup();
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());

  MaterialInversionResult result;
  std::vector<double> m;  // current material-grid iterate
  std::unique_ptr<MaterialGrid> prev_grid;

  std::size_t stage_idx = 0;
  for (const auto& [gx, gz] : opt.stages) {
    // Frequency continuation: band-limit the misfit for this stage.
    std::unique_ptr<ResidualFilter> rf;
    if (stage_idx < opt.stage_f_cut.size() &&
        opt.stage_f_cut[stage_idx] > 0.0) {
      rf = std::make_unique<ResidualFilter>(opt.stage_f_cut[stage_idx],
                                            1.0 / setup.dt);
    }
    ++stage_idx;
    auto mg = std::make_unique<MaterialGrid>(setup.grid, gx, gz);
    const std::size_t np = mg->n_params();
    if (prev_grid == nullptr) {
      const double mu0 = opt.initial_mu > 0.0 ? opt.initial_mu
                                              : std::max(10.0 * opt.mu_min, 1e7);
      m.assign(np, mu0);
    } else {
      m = prev_grid->prolongate(m, *mg);
      for (double& v : m) v = std::max(v, opt.mu_min * 1.01);
    }

    const TotalVariation tv(*mg, opt.beta_tv, opt.tv_eps);
    const LogBarrier barrier(opt.barrier_kappa, opt.mu_min);
    const bool use_barrier = opt.barrier_kappa > 0.0;

    std::vector<double> mu(ne);

    auto data_misfit = [&](const InversionProblem::ForwardOut& fwd) {
      if (rf == nullptr) return fwd.misfit;
      return 0.5 * setup.dt * rf->filtered_norm2(fwd.residuals);
    };
    // Projected step: the mu >= mu_min bound is enforced by projection.
    const double floor = opt.mu_min * 1.0001;
    auto projected = [&](std::span<const double> d, double alpha) {
      std::vector<double> trial(m);
      for (std::size_t i = 0; i < np; ++i) {
        trial[i] = std::max(floor, trial[i] + alpha * d[i]);
      }
      return trial;
    };

    opt::GnProblem gn;
    gn.linearize = [&] {
      mg->apply(m, mu);
      const auto model = std::make_shared<const wave2d::ShModel>(
          setup.grid, std::vector<double>(mu), setup.rho);
      const auto fwd = [&] {
        QUAKE_OBS_SCOPE("forward");
        return std::make_shared<const InversionProblem::ForwardOut>(
            prob.forward(*model, setup.source, /*history=*/true));
      }();
      opt::GnLinearization lin;
      lin.misfit = data_misfit(*fwd);
      lin.objective = lin.misfit + tv.value(m);
      if (use_barrier) lin.objective += barrier.value(m);

      // Gradient (band-limited misfit drives the adjoint with B^T B r).
      std::vector<double> ge(ne, 0.0);
      {
        QUAKE_OBS_SCOPE("adjoint");
        const History nu = prob.adjoint(
            *model, rf ? rf->apply_symmetric(fwd->residuals) : fwd->residuals);
        prob.assemble_material_gradient(*model, setup.source,
                                        fwd->march.history, nu, ge);
      }
      lin.gradient.assign(np, 0.0);
      mg->apply_transpose(ge, lin.gradient);
      tv.add_gradient(m, lin.gradient);
      if (use_barrier) barrier.add_gradient(m, lin.gradient);

      // Gauss-Newton Hessian-vector product in material-grid space
      // (J^T W J with W = B^T B when band-limited).
      lin.hessian = [&, model, fwd](std::span<const double> v,
                                    std::span<double> hv) {
        std::vector<double> dmu(ne), he(ne, 0.0);
        mg->apply(v, dmu);
        const History& u = fwd->march.history;
        Records du =
            prob.incremental_forward_material(*model, setup.source, u, dmu);
        if (rf != nullptr) du = rf->apply_symmetric(du);
        const History nu_h = prob.adjoint(*model, du);
        prob.assemble_material_gradient(*model, setup.source, u, nu_h, he);
        mg->apply_transpose(he, hv);
        tv.add_hessian_vec(m, v, hv);
        if (use_barrier) barrier.add_hessian_vec(m, v, hv);
      };
      return lin;
    };
    gn.trial = [&](std::span<const double> d, double alpha) {
      const std::vector<double> mm = projected(d, alpha);
      std::vector<double> mu_try(ne);
      mg->apply(mm, mu_try);
      for (double v : mu_try) {
        if (!(v > 0.0)) return std::numeric_limits<double>::infinity();
      }
      const wave2d::ShModel model(setup.grid, std::move(mu_try), setup.rho);
      const auto fwd = prob.forward(model, setup.source, /*history=*/false);
      double j = data_misfit(fwd) + tv.value(mm);
      if (use_barrier) j += barrier.value(mm);
      return j;
    };
    gn.accept = [&](auto d, double alpha) { m = projected(d, alpha); };

    const opt::GnReport gr = opt::gauss_newton(
        gn, {.max_newton = opt.max_newton,
             .cg = opt.cg,
             .grad_tol = opt.grad_tol,
             .lbfgs_pairs = opt.precondition ? 10u : 0u,
             .frankel_sweeps = opt.frankel_sweeps});
    StageReport report{.gx = gx,
                       .gz = gz,
                       .n_params = np,
                       .newton_iters = gr.newton_iters,
                       .cg_iters = gr.cg_iters,
                       .misfit_initial = gr.misfit_initial,
                       .misfit_final = gr.misfit_final,
                       .grad_reduction = gr.grad_reduction};
    if (!mu_target.empty()) {
      mg->apply(m, mu);
      report.model_error = util::rel_l2(mu, mu_target);
    }
    result.total_newton += report.newton_iters;
    result.total_cg += report.cg_iters;
    result.stages.push_back(report);
    prev_grid = std::move(mg);
  }

  result.m = m;
  result.mu.resize(ne);
  prev_grid->apply(m, result.mu);
  return result;
}

}  // namespace quake::inverse

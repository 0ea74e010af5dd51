#include "quake/inverse/source_inversion.hpp"

#include <algorithm>

#include "quake/inverse/regularization.hpp"
#include "quake/obs/obs.hpp"
#include "quake/opt/gauss_newton.hpp"

namespace quake::inverse {

SourceInversionResult invert_source(const InversionProblem& prob,
                                    const wave2d::ShModel& model,
                                    const SourceInversionOptions& opt) {
  const auto& setup = prob.setup();
  const std::size_t np = static_cast<std::size_t>(setup.fault.n_points());
  const double h = setup.grid.h;
  const Tikhonov1d reg_u0(opt.beta_u0, h), reg_t0(opt.beta_t0, h),
      reg_T(opt.beta_T, h);

  wave2d::SourceParams2d p;
  p.u0.assign(np, opt.u0_init);
  p.t0.assign(np, opt.t0_init);
  p.T.assign(np, opt.T_init);

  SourceInversionResult result;

  auto regularization = [&](const wave2d::SourceParams2d& q) {
    return reg_u0.value(q.u0) + reg_t0.value(q.t0) + reg_T.value(q.T);
  };
  // Projected step: bounds (t0 >= t0_min, T >= T_min) are enforced by
  // projection inside the line search, so an active bound on one fault
  // node never blocks progress on the others (gradient projection).
  auto projected = [&](std::span<const double> d, double alpha) {
    wave2d::SourceParams2d trial = p;
    for (std::size_t i = 0; i < np; ++i) {
      trial.u0[i] += alpha * d[i];
      trial.t0[i] = std::max(opt.t0_min, trial.t0[i] + alpha * d[np + i]);
      trial.T[i] = std::max(opt.T_min, trial.T[i] + alpha * d[2 * np + i]);
    }
    return trial;
  };

  opt::GnProblem gn;
  gn.linearize = [&] {
    const auto fwd = [&] {
      QUAKE_OBS_SCOPE("forward");
      return prob.forward(model, p, /*history=*/false);
    }();
    result.iterates.push_back({p, fwd.misfit});
    opt::GnLinearization lin;
    lin.misfit = fwd.misfit;
    lin.objective = fwd.misfit + regularization(p);

    // Gradient: adjoint from residuals, then the parameter forms.
    std::vector<double>& g = lin.gradient;
    g.assign(3 * np, 0.0);
    {
      QUAKE_OBS_SCOPE("adjoint");
      const History nu = prob.adjoint(model, fwd.residuals);
      prob.assemble_source_gradient(model, p, nu, {g.data(), np},
                                    {g.data() + np, np},
                                    {g.data() + 2 * np, np});
    }
    reg_u0.add_gradient(p.u0, {g.data(), np});
    reg_t0.add_gradient(p.t0, {g.data() + np, np});
    reg_T.add_gradient(p.T, {g.data() + 2 * np, np});

    lin.hessian = [&](std::span<const double> v, std::span<double> hv) {
      prob.gauss_newton_source(model, p, v, hv);
      reg_u0.add_hessian_vec({v.data(), np}, {hv.data(), np});
      reg_t0.add_hessian_vec({v.data() + np, np}, {hv.data() + np, np});
      reg_T.add_hessian_vec({v.data() + 2 * np, np}, {hv.data() + 2 * np, np});
    };
    return lin;
  };
  gn.trial = [&](std::span<const double> d, double alpha) {
    const wave2d::SourceParams2d q = projected(d, alpha);
    return prob.forward(model, q, /*history=*/false).misfit +
           regularization(q);
  };
  gn.accept = [&](auto d, double alpha) { p = projected(d, alpha); };

  const opt::GnReport gr = opt::gauss_newton(
      gn,
      {.max_newton = opt.max_newton, .cg = opt.cg, .grad_tol = opt.grad_tol});
  result.newton_iters = gr.newton_iters;
  result.cg_iters = gr.cg_iters;
  result.misfit_final = gr.misfit_final;
  result.params = p;
  return result;
}

}  // namespace quake::inverse

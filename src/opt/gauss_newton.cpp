#include "quake/opt/gauss_newton.hpp"

#include <utility>

#include "quake/obs/obs.hpp"
#include "quake/opt/frankel.hpp"
#include "quake/opt/lbfgs.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"

namespace quake::opt {

GnReport gauss_newton(const GnProblem& problem, const GnOptions& options) {
  GnReport report;
  const bool precondition = options.lbfgs_pairs > 0;
  // Morales-Nocedal refresh: precondition each CG with the curvature pairs
  // harvested from the PREVIOUS Newton step's CG (the Hessian changes
  // between steps, so stale pairs are discarded).
  LbfgsOperator lbfgs_prev(0), lbfgs_next(0);
  const LinOp precond = [&](std::span<const double> v, std::span<double> out) {
    lbfgs_prev.apply(v, out);
  };
  const PairCollector collect = [&](std::span<const double> s,
                                    std::span<const double> y) {
    lbfgs_next.add_pair(s, y);
  };

  double g0 = -1.0;
  for (int newton = 0; newton < options.max_newton; ++newton) {
    QUAKE_OBS_SCOPE("gn/newton");
    obs::counter_add("gn/newton_total", 1);
    const GnLinearization lin = problem.linearize();
    const std::vector<double>& g = lin.gradient;
    const std::size_t n = g.size();
    if (newton == 0) {
      report.misfit_initial = lin.misfit;
      lbfgs_prev = lbfgs_next = LbfgsOperator(n, options.lbfgs_pairs);
    }
    report.misfit_final = lin.misfit;

    const double gnorm = util::norm_l2(g);
    // Per-outer-iteration convergence trace (Table 3.1 columns).
    obs::series_append("gn/misfit", lin.misfit);
    obs::series_append("gn/grad_norm", gnorm);
    if (g0 < 0.0) g0 = gnorm;
    report.grad_reduction = g0 > 0.0 ? gnorm / g0 : 1.0;
    QUAKE_LOG_DEBUG("gn newton %d: J=%.6e misfit=%.6e |g|=%.3e", newton,
                    lin.objective, lin.misfit, gnorm);
    if (gnorm <= options.grad_tol * g0) break;

    const LinOp hessvec = [&lin](std::span<const double> v,
                                 std::span<double> hv) {
      QUAKE_OBS_SCOPE("hessvec");
      lin.hessian(v, hv);
    };
    std::vector<double> b(n), d(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) b[i] = -g[i];
    if (precondition && options.frankel_sweeps > 0 && newton == 0) {
      // Seed the L-BFGS preconditioner with Frankel sweeps on H d = -g.
      std::vector<double> x0(n, 0.0);
      frankel_two_step(hessvec, b, x0, {options.frankel_sweeps, 0.0, 0.0, 4},
                       &lbfgs_prev);
    }
    lbfgs_next.clear();
    const CgResult cg = [&] {
      QUAKE_OBS_SCOPE("cg");
      return conjugate_gradient(hessvec, b, d, options.cg,
                                precondition ? &precond : nullptr,
                                precondition ? &collect : nullptr);
    }();
    report.cg_iters += cg.iterations;
    obs::series_append("gn/cg_iters", static_cast<double>(cg.iterations));
    obs::counter_add("gn/cg_total", cg.iterations);
    if (util::norm_l2(d) == 0.0) break;

    if (problem.restrict_direction) problem.restrict_direction(d);
    double dphi0 = util::dot(g, d);
    if (dphi0 >= 0.0) {
      // Fall back to steepest descent if CG returned a non-descent
      // direction (or the active set removed all of its descent).
      for (std::size_t i = 0; i < n; ++i) d[i] = -g[i];
      if (problem.restrict_direction) {
        problem.restrict_direction(d);
        dphi0 = util::dot(g, d);
      } else {
        dphi0 = -gnorm * gnorm;
      }
      if (dphi0 >= 0.0) break;  // stationary within the feasible set
    }
    const double dmax = options.max_step > 0.0 ? util::norm_max(d) : 0.0;
    if (dmax > options.max_step) {
      const double scale = options.max_step / dmax;
      for (double& v : d) v *= scale;
      dphi0 *= scale;
    }

    const ArmijoResult ls = [&] {
      QUAKE_OBS_SCOPE("linesearch");
      return armijo_backtracking(
          [&](double alpha) { return problem.trial(d, alpha); },
          lin.objective, dphi0, ArmijoOptions{});
    }();
    obs::series_append("gn/ls_evals", static_cast<double>(ls.evaluations));
    ++report.newton_iters;
    std::swap(lbfgs_prev, lbfgs_next);
    QUAKE_LOG_DEBUG("gn   cg=%d%s dphi0=%.3e alpha=%.3e", cg.iterations,
                    cg.hit_negative_curvature ? " (NEGCURV)" : "", dphi0,
                    ls.alpha);
    if (!ls.success) {
      QUAKE_LOG_DEBUG("gn: line search failed; phi0=%.6e phi(1e-4)=%.6e "
                      "phi(1e-8)=%.6e",
                      lin.objective, problem.trial(d, 1e-4),
                      problem.trial(d, 1e-8));
      break;
    }
    problem.accept(d, ls.alpha);
  }
  return report;
}

}  // namespace quake::opt

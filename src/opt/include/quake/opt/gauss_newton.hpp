#pragma once

// The Gauss-Newton-CG outer iteration of the inversion algorithm (§3.1):
// matrix-free CG on H d = -g, preconditioned by L-BFGS (Morales-Nocedal
// refresh, optional Frankel seed), and a projected Armijo search. Every
// inversion driver runs this loop and emits its `gn/*` telemetry.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "quake/opt/cg.hpp"

namespace quake::opt {

struct GnLinearization {
  double objective = 0.0;  // J at the iterate (the line search's phi(0))
  double misfit = 0.0;     // data part of J, reported per iteration
  std::vector<double> gradient;
  LinOp hessian;  // Gauss-Newton operator; may own the forward state
};

struct GnProblem {
  std::function<GnLinearization()> linearize;  // at the current iterate
  // Objective at the iterate x + alpha d projected onto the bounds.
  std::function<double(std::span<const double> d, double alpha)> trial;
  // Moves the iterate to that projected point.
  std::function<void(std::span<const double> d, double alpha)> accept;
  // Optional active-set reduction: zeroes the components of d that push
  // into an active bound; the descent slope is then re-measured, and the
  // iteration stops when none is left.
  std::function<void(std::span<double> d)> restrict_direction;
};

struct GnOptions {
  int max_newton = 12;
  CgOptions cg;
  double grad_tol = 1e-2;       // stop when |g| <= grad_tol |g_0|
  std::size_t lbfgs_pairs = 0;  // L-BFGS memory; 0: unpreconditioned CG
  int frankel_sweeps = 0;       // preconditioner seeding at the first step
  double max_step = 0.0;        // cap on max_i |d_i| (0: none)
};

struct GnReport {
  int newton_iters = 0;  // steps that reached the line search
  int cg_iters = 0;
  double misfit_initial = 0.0;
  double misfit_final = 0.0;    // at the last linearization
  double grad_reduction = 1.0;  // |g| / |g_0| at the last linearization
};

GnReport gauss_newton(const GnProblem& problem, const GnOptions& options);

}  // namespace quake::opt

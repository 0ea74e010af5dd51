// Tests for the optimization kernels: CG, L-BFGS, Frankel two-step, Armijo,
// and the Gauss-Newton-CG driver built from them.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "quake/opt/cg.hpp"
#include "quake/opt/frankel.hpp"
#include "quake/opt/gauss_newton.hpp"
#include "quake/opt/lbfgs.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"

namespace {

using namespace quake::opt;

// SPD tridiagonal test operator: A = diag(2 + i/n) with -1 off-diagonals.
LinOp tridiag_op(std::size_t n) {
  return [n](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < n; ++i) {
      double v = (2.5 + static_cast<double>(i) / static_cast<double>(n)) * x[i];
      if (i > 0) v -= x[i - 1];
      if (i + 1 < n) v -= x[i + 1];
      y[i] += v;
    }
  };
}

TEST(Cg, SolvesSpdSystem) {
  const std::size_t n = 50;
  const LinOp a = tridiag_op(n);
  quake::util::Rng rng(1);
  std::vector<double> x_true(n), b(n, 0.0), x(n, 0.0);
  for (double& v : x_true) v = rng.uniform(-1.0, 1.0);
  a(x_true, b);
  CgOptions opts;
  opts.max_iterations = 200;
  opts.rel_tolerance = 1e-10;
  const CgResult res = conjugate_gradient(a, b, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(quake::util::rel_l2(x, x_true), 1e-8);
}

TEST(Cg, RespectsIterationCap) {
  const std::size_t n = 200;
  const LinOp a = tridiag_op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  CgOptions opts;
  opts.max_iterations = 3;
  opts.rel_tolerance = 1e-14;
  const CgResult res = conjugate_gradient(a, b, x, opts);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_FALSE(res.converged);
  EXPECT_LT(res.final_residual, res.initial_residual);
}

TEST(Cg, DetectsNegativeCurvature) {
  const std::size_t n = 4;
  const LinOp a = [](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += -x[i];  // A = -I
  };
  std::vector<double> b(n, 1.0), x(n, 0.0);
  const CgResult res = conjugate_gradient(a, b, x, CgOptions{});
  EXPECT_TRUE(res.hit_negative_curvature);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const std::size_t n = 10;
  const LinOp a = tridiag_op(n);
  std::vector<double> b(n, 0.0), x(n, 0.0);
  const CgResult res = conjugate_gradient(a, b, x, CgOptions{});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Cg, CollectorReceivesValidPairs) {
  const std::size_t n = 30;
  const LinOp a = tridiag_op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  int pairs = 0;
  PairCollector collect = [&](std::span<const double> s,
                              std::span<const double> y) {
    // s^T y = alpha^2 p^T A p > 0 for SPD A.
    EXPECT_GT(quake::util::dot(s, y), 0.0);
    ++pairs;
  };
  CgOptions opts;
  opts.max_iterations = 10;
  opts.rel_tolerance = 1e-14;
  const CgResult res = conjugate_gradient(a, b, x, opts, nullptr, &collect);
  EXPECT_EQ(pairs, res.iterations);
  EXPECT_GT(pairs, 0);
}

TEST(Lbfgs, ApproximatesInverseOnQuadratic) {
  // Feed exact (s, As) pairs; the two-loop recursion should then solve
  // A z = v well within the spanned subspace.
  const std::size_t n = 20;
  const LinOp a = tridiag_op(n);
  LbfgsOperator lbfgs(n, 20);
  quake::util::Rng rng(3);
  for (int p = 0; p < 20; ++p) {
    std::vector<double> s(n), y(n, 0.0);
    for (double& v : s) v = rng.uniform(-1.0, 1.0);
    a(s, y);
    lbfgs.add_pair(s, y);
  }
  std::vector<double> v(n), z(n, 0.0), az(n, 0.0);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  lbfgs.apply(v, z);
  a(z, az);
  EXPECT_LT(quake::util::rel_l2(az, v), 0.5);
}

TEST(Lbfgs, RejectsNonPositiveCurvature) {
  LbfgsOperator lbfgs(3);
  std::vector<double> s = {1.0, 0.0, 0.0};
  std::vector<double> y = {-1.0, 0.0, 0.0};
  lbfgs.add_pair(s, y);
  EXPECT_EQ(lbfgs.n_pairs(), 0u);
}

TEST(Lbfgs, EmptyIsScaledIdentity) {
  LbfgsOperator lbfgs(3);
  std::vector<double> v = {1.0, -2.0, 0.5}, out(3, 0.0);
  lbfgs.apply(v, out);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)]);
}

TEST(Frankel, ReducesResidual) {
  const std::size_t n = 40;
  const LinOp a = tridiag_op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  FrankelOptions fo;
  fo.sweeps = 25;
  frankel_two_step(a, b, x, fo, nullptr);
  std::vector<double> ax(n, 0.0);
  a(x, ax);
  EXPECT_LT(quake::util::diff_l2(ax, b), 0.5 * quake::util::norm_l2(b));
}

TEST(Frankel, SeedsLbfgsPairs) {
  const std::size_t n = 40;
  const LinOp a = tridiag_op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  LbfgsOperator lbfgs(n);
  FrankelOptions fo;
  fo.sweeps = 5;
  frankel_two_step(a, b, x, fo, &lbfgs);
  EXPECT_EQ(lbfgs.n_pairs(), 5u);
}

TEST(PreconditionedCg, FewerIterationsWithLbfgs) {
  // Ill-conditioned diagonal operator; L-BFGS built from Frankel sweeps
  // must cut the CG iteration count.
  const std::size_t n = 120;
  const LinOp a = [n](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += (1.0 + 500.0 * static_cast<double>(i) / static_cast<double>(n)) * x[i];
    }
  };
  std::vector<double> b(n, 1.0);
  CgOptions opts;
  opts.max_iterations = 400;
  opts.rel_tolerance = 1e-8;

  std::vector<double> x1(n, 0.0);
  const CgResult plain = conjugate_gradient(a, b, x1, opts);

  LbfgsOperator lbfgs(n, 30);
  std::vector<double> warm(n, 0.0);
  FrankelOptions fo;
  fo.sweeps = 25;
  frankel_two_step(a, b, warm, fo, &lbfgs);
  LinOp precond = [&](std::span<const double> v, std::span<double> out) {
    lbfgs.apply(v, out);
  };
  std::vector<double> x2(n, 0.0);
  const CgResult pre = conjugate_gradient(a, b, x2, opts, &precond);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(Armijo, AcceptsFullStepOnEasyQuadratic) {
  // phi(a) = (a - 1)^2: from phi(0) = 1, dphi(0) = -2, alpha = 1 is optimal.
  const auto res = armijo_backtracking(
      [](double a) { return (a - 1.0) * (a - 1.0); }, 1.0, -2.0,
      ArmijoOptions{});
  EXPECT_TRUE(res.success);
  EXPECT_DOUBLE_EQ(res.alpha, 1.0);
}

TEST(Armijo, BacktracksOnOvershoot) {
  // Steep quartic: full step increases phi; must shrink.
  const auto res = armijo_backtracking(
      [](double a) { return std::pow(10.0 * a - 1.0, 4) / 10000.0 - 0.1 * a + 0.0001; },
      0.0001, -0.104, ArmijoOptions{});
  EXPECT_TRUE(res.success);
  EXPECT_LT(res.alpha, 1.0);
  EXPECT_GT(res.evaluations, 1);
}

TEST(Armijo, RejectsAscentDirection) {
  EXPECT_THROW(armijo_backtracking([](double) { return 0.0; }, 0.0, 1.0,
                                   ArmijoOptions{}),
               std::invalid_argument);
}

// Bound-constrained nonlinear least squares in Rosenbrock form:
// J(x) = 1/2 |r(x)|^2, r = (x0 - 1, 10 (x1 - x0^2)), x >= lo by projection.
// The Gauss-Newton operator is J_r^T J_r with J_r = [[1, 0], [-20 x0, 10]].
struct Rosenbrock {
  explicit Rosenbrock(std::array<double, 2> x0) : x(x0) {}

  std::array<double, 2> x;
  std::array<double, 2> lo{-std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  std::vector<std::array<double, 2>> accepted;

  static double value(const std::array<double, 2>& y) {
    const double r0 = y[0] - 1.0, r1 = 10.0 * (y[1] - y[0] * y[0]);
    return 0.5 * (r0 * r0 + r1 * r1);
  }
  std::array<double, 2> projected(std::span<const double> d,
                                  double alpha) const {
    return {std::max(lo[0], x[0] + alpha * d[0]),
            std::max(lo[1], x[1] + alpha * d[1])};
  }
  GnProblem problem() {
    GnProblem p;
    p.linearize = [this] {
      const double r0 = x[0] - 1.0, r1 = 10.0 * (x[1] - x[0] * x[0]);
      const double j10 = -20.0 * x[0], j11 = 10.0;
      GnLinearization lin;
      lin.objective = lin.misfit = value(x);
      lin.gradient = {r0 + j10 * r1, j11 * r1};
      lin.hessian = [j10, j11](std::span<const double> v,
                               std::span<double> hv) {
        const double a = v[0], b = j10 * v[0] + j11 * v[1];
        hv[0] += a + j10 * b;
        hv[1] += j11 * b;
      };
      return lin;
    };
    p.trial = [this](std::span<const double> d, double alpha) {
      return value(projected(d, alpha));
    };
    p.accept = [this](std::span<const double> d, double alpha) {
      x = projected(d, alpha);
      accepted.push_back(x);
    };
    return p;
  }
};

TEST(GaussNewton, ConvergesToGradTolOnRosenbrock) {
  // Unpreconditioned, and with the L-BFGS preconditioner seeded by Frankel
  // sweeps: both reach the minimizer (1, 1) within the gradient tolerance.
  for (const std::size_t pairs : {std::size_t{0}, std::size_t{5}}) {
    Rosenbrock rb({-1.2, 1.0});
    GnOptions o;
    o.max_newton = 50;
    o.cg = {10, 1e-10};
    o.grad_tol = 1e-10;
    o.lbfgs_pairs = pairs;
    o.frankel_sweeps = pairs > 0 ? 2 : 0;
    const GnReport rep = gauss_newton(rb.problem(), o);
    EXPECT_LE(rep.grad_reduction, 1e-10) << "pairs " << pairs;
    EXPECT_LT(rep.newton_iters, o.max_newton);
    EXPECT_NEAR(rb.x[0], 1.0, 1e-8);
    EXPECT_NEAR(rb.x[1], 1.0, 1e-8);
    EXPECT_GT(rep.misfit_initial, 1.0);
    EXPECT_LT(rep.misfit_final, 1e-16);
    EXPECT_EQ(rep.newton_iters, static_cast<int>(rb.accepted.size()));
    EXPECT_GE(rep.cg_iters, rep.newton_iters);
  }
}

TEST(GaussNewton, ProjectionKeepsBoundWhereItIsActive) {
  // x1 >= 2 excludes the unconstrained minimizer (1, 1). Every accepted
  // iterate stays feasible. Plain projection stalls once the Gauss-Newton
  // step points straight into the bound (its x0 part vanishes at x0 = 1),
  // and the driver exits cleanly; with the active-set reduction the
  // steepest-descent fallback moves along the bound to the minimizer of
  // (x0 - 1)^2 + 100 (2 - x0^2)^2.
  for (const bool active_set : {false, true}) {
    Rosenbrock rb({1.0, 3.0});
    rb.lo[1] = 2.0;
    GnProblem p = rb.problem();
    if (active_set) {
      p.restrict_direction = [&rb](std::span<double> d) {
        for (std::size_t i = 0; i < 2; ++i) {
          if (rb.x[i] <= rb.lo[i] && d[i] < 0.0) d[i] = 0.0;
        }
      };
    }
    GnOptions o;
    o.max_newton = 60;
    o.cg = {10, 1e-10};
    o.grad_tol = 1e-12;
    const GnReport rep = gauss_newton(p, o);
    ASSERT_FALSE(rb.accepted.empty());
    for (const auto& y : rb.accepted) EXPECT_GE(y[1], 2.0);
    EXPECT_EQ(rb.x[1], 2.0);
    EXPECT_LT(rep.misfit_final, rep.misfit_initial);
    // The bound keeps |g| > 0: the exit is a failed line search, well
    // inside the iteration budget.
    EXPECT_LT(rep.newton_iters, o.max_newton);
    if (active_set) {
      const double x0 = rb.x[0];
      EXPECT_NEAR(2.0 * (x0 - 1.0) - 400.0 * x0 * (2.0 - x0 * x0), 0.0, 1e-5);
    } else {
      EXPECT_NEAR(rb.x[0], 1.0, 1e-9);
    }
  }
}

// J(x) = 1/2 |x - c|^2, linearized with a caller-chosen gradient sign and
// Gauss-Newton operator (a stand-in for an inconsistent model of the
// objective).
struct Quadratic {
  std::vector<double> x, c;
  LinOp hessian;
  double gradient_sign = 1.0;
  int trials = 0;
  std::vector<std::vector<double>> directions;  // of accepted steps

  double value(std::span<const double> y) const {
    double j = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      j += 0.5 * (y[i] - c[i]) * (y[i] - c[i]);
    }
    return j;
  }
  std::vector<double> step(std::span<const double> d, double alpha) const {
    std::vector<double> y(x);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * d[i];
    return y;
  }
  GnProblem problem() {
    GnProblem p;
    p.linearize = [this] {
      GnLinearization lin;
      lin.objective = lin.misfit = value(x);
      for (std::size_t i = 0; i < x.size(); ++i) {
        lin.gradient.push_back(gradient_sign * (x[i] - c[i]));
      }
      lin.hessian = hessian;
      return lin;
    };
    p.trial = [this](std::span<const double> d, double alpha) {
      ++trials;
      return value(step(d, alpha));
    };
    p.accept = [this](std::span<const double> d, double alpha) {
      x = step(d, alpha);
      directions.emplace_back(d.begin(), d.end());
    };
    return p;
  }
};

TEST(GaussNewton, SteepestDescentFallbackOnNonDescentCgStep) {
  // With a symmetric operator and preconditioner, a CG step that takes any
  // iteration is a descent direction (g.d = -sum rz_k^2 / pAp_k), so the
  // fallback is forced with a non-symmetric operator: three CG iterations
  // on it from g = (-1, -1, -1) return d with g.d > 0. The driver must
  // replace d by -g, which reaches the minimizer c in one unit step.
  Quadratic q;
  q.x = {0.0, 0.0, 0.0};
  q.c = {1.0, 1.0, 1.0};
  q.hessian = [](std::span<const double> v, std::span<double> hv) {
    hv[0] += 2.0 * v[0] - 2.0 * v[1] + v[2];
    hv[1] += -2.0 * v[0] + 3.0 * v[1] + 3.0 * v[2];
    hv[2] += v[1] + v[2];
  };
  std::vector<double> probe(3, 0.0), b = {1.0, 1.0, 1.0};
  ASSERT_FALSE(conjugate_gradient(q.hessian, b, probe, {3, 1e-14})
                   .hit_negative_curvature);
  ASSERT_LT(quake::util::dot(b, probe), 0.0);  // g.d > 0 for g = -b

  GnOptions o;
  o.cg = {3, 1e-14};
  const GnReport rep = gauss_newton(q.problem(), o);
  ASSERT_EQ(q.directions.size(), 1u);
  EXPECT_EQ(q.directions[0], (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(q.x, q.c);
  EXPECT_EQ(rep.grad_reduction, 0.0);
}

TEST(GaussNewton, ActiveSetStopsAtBoundStationaryPoint) {
  // x0 >= 0 is active at x = 0 and the gradient (1, 0) pushes into it. The
  // CG step (-5.26, 4.74) loses its descent once its x0 part is removed,
  // and so does the steepest-descent fallback: no step is taken.
  Quadratic q;
  q.x = {0.0, 0.0};
  const double det = 1.0 - 0.81;
  q.c = {-1.0 / det, 0.9 / det};  // H (x - c) = (1, 0) at x = 0
  q.hessian = [](std::span<const double> v, std::span<double> hv) {
    hv[0] += v[0] + 0.9 * v[1];
    hv[1] += 0.9 * v[0] + v[1];
  };
  GnProblem p = q.problem();
  p.linearize = [&q] {
    GnLinearization lin;
    lin.objective = lin.misfit = 0.0;
    lin.gradient = {q.x[0] - q.c[0] + 0.9 * (q.x[1] - q.c[1]),
                    0.9 * (q.x[0] - q.c[0]) + q.x[1] - q.c[1]};
    lin.hessian = q.hessian;
    return lin;
  };
  int restricted = 0;
  p.restrict_direction = [&](std::span<double> d) {
    ++restricted;
    if (q.x[0] <= 0.0 && d[0] < 0.0) d[0] = 0.0;
  };
  GnOptions o;
  o.cg = {10, 1e-12};
  const GnReport rep = gauss_newton(p, o);
  EXPECT_EQ(restricted, 2);  // the CG step, then the fallback
  EXPECT_EQ(rep.newton_iters, 0);
  EXPECT_TRUE(q.directions.empty());
}

TEST(GaussNewton, FailedLineSearchExitsWithoutStep) {
  // A gradient of the wrong sign makes every trial step go uphill: Armijo
  // backtracking exhausts its trials and the driver stops cleanly, leaving
  // the iterate untouched.
  Quadratic q;
  q.x = {0.5, -0.5};
  q.c = {1.0, 1.0};
  q.gradient_sign = -1.0;
  q.hessian = [](std::span<const double> v, std::span<double> hv) {
    hv[0] += v[0];
    hv[1] += v[1];
  };
  const GnReport rep = gauss_newton(q.problem(), GnOptions{});
  EXPECT_GE(q.trials, ArmijoOptions{}.max_trials);
  EXPECT_EQ(rep.newton_iters, 1);
  EXPECT_EQ(rep.cg_iters, 1);
  EXPECT_TRUE(q.directions.empty());
  EXPECT_EQ(q.x, (std::vector<double>{0.5, -0.5}));
}

}  // namespace

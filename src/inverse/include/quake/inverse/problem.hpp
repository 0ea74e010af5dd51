#pragma once

// The discrete PDE-constrained inverse problem of §3.1: forward antiplane
// wave propagation, the (exactly discrete) adjoint wave equation solved
// backward in time, first-order gradient assembly for the material field
// and the source parameter fields, and the incremental (tangent) solves
// that realize matrix-free Gauss-Newton Hessian-vector products. Every
// derivative here is the exact transpose of the discrete forward recurrence
// — verified against finite differences in the tests.

#include <span>
#include <vector>

#include "quake/wave2d/fault.hpp"
#include "quake/wave2d/march.hpp"
#include "quake/wave2d/sh_model.hpp"

namespace quake::inverse {

using History = std::vector<std::vector<double>>;   // [k][node], u^{k+1}
using Records = std::vector<std::vector<double>>;   // [receiver][k]

struct InversionSetup {
  wave2d::ShGrid grid;
  double rho = 0.0;
  wave2d::Fault2d fault;
  wave2d::SourceParams2d source;   // true source (material inversion) or
                                   // current iterate (source inversion)
  std::vector<int> receiver_nodes;
  double dt = 0.0;
  int nt = 0;
  Records observations;            // d[r][k], matching receiver order
};

class InversionProblem {
 public:
  explicit InversionProblem(InversionSetup setup);

  [[nodiscard]] const InversionSetup& setup() const { return setup_; }
  [[nodiscard]] const wave2d::FaultSource2d& source_op() const { return src_; }

  struct ForwardOut {
    wave2d::MarchResult march;
    Records residuals;  // u_r - d_r per receiver and step
    double misfit = 0.0;  // 1/2 dt sum_k sum_r residual^2
  };

  // Forward solve for a given material (element mu) and source parameters.
  ForwardOut forward(const wave2d::ShModel& model,
                     const wave2d::SourceParams2d& p, bool store_history) const;

  // Adjoint solve driven by per-receiver time series (residuals for the
  // gradient; J*delta records for Gauss-Newton products). Returns the
  // adjoint history in *reversed* time: result[tau] = nu^{tau+1},
  // i.e. lambda^{k+1} = result[nt - k - 1].
  History adjoint(const wave2d::ShModel& model,
                  const Records& driver) const;

  // -- material inversion pieces -------------------------------------------

  // ge[e] += dL/dmu_e for the data term, assembled from the forward and
  // adjoint histories (includes the stiffness, absorbing-boundary, and
  // source mu-sensitivity terms of eq. 3.4's discrete analogue).
  void assemble_material_gradient(const wave2d::ShModel& model,
                                  const wave2d::SourceParams2d& p,
                                  const History& u, const History& nu,
                                  std::span<double> ge) const;

  // f -= K'[dmu] u^k + C'[dmu] (u^{k+1} - u^{k-1}) / (2 dt): the stiffness
  // and absorbing-boundary part of the step-k forcing of the incremental
  // forward solve in material direction dmu about the forward history u.
  void subtract_material_tangent(const wave2d::ShModel& model,
                                 const History& u, std::span<const double> dmu,
                                 int k, std::span<double> f) const;

  // Records of the incremental forward solve in material direction dmu
  // (the J*dmu needed by the Gauss-Newton product).
  Records incremental_forward_material(const wave2d::ShModel& model,
                                       const wave2d::SourceParams2d& p,
                                       const History& u,
                                       std::span<const double> dmu) const;

  // Full data-term Gauss-Newton product: H dmu (element space). Costs one
  // incremental forward plus one adjoint solve.
  void gauss_newton_material(const wave2d::ShModel& model,
                             const wave2d::SourceParams2d& p, const History& u,
                             std::span<const double> dmu,
                             std::span<double> h_dmu) const;

  // -- source inversion pieces ----------------------------------------------

  // Gradients with respect to the per-fault-node parameter fields.
  void assemble_source_gradient(const wave2d::ShModel& model,
                                const wave2d::SourceParams2d& p,
                                const History& nu, std::span<double> g_u0,
                                std::span<double> g_t0,
                                std::span<double> g_T) const;

  Records incremental_forward_source(const wave2d::ShModel& model,
                                     const wave2d::SourceParams2d& p,
                                     std::span<const double> du0,
                                     std::span<const double> dt0,
                                     std::span<const double> dT) const;

  // Data-term Gauss-Newton product in source-parameter space; the direction
  // and result stack (u0, t0, T) contiguously.
  void gauss_newton_source(const wave2d::ShModel& model,
                           const wave2d::SourceParams2d& p,
                           std::span<const double> d_stacked,
                           std::span<double> h_stacked) const;

  // Misfit of given records vs the observations.
  [[nodiscard]] double misfit_of(const Records& records) const;

 private:
  InversionSetup setup_;
  wave2d::FaultSource2d src_;
};

}  // namespace quake::inverse

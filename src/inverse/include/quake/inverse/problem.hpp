#pragma once

// The discrete PDE-constrained inverse problem of §3.1 on the 2D antiplane
// model: the fault source, forward, adjoint, material gradient and
// Gauss-Newton product from the shared substrate (wave_inversion.hpp),
// plus the source-parameter gradient and its incremental (tangent) solves.
// Every derivative here is the exact transpose of the discrete forward
// recurrence — verified against finite differences in the tests.

#include <span>
#include <vector>

#include "quake/inverse/wave_inversion.hpp"
#include "quake/wave2d/fault.hpp"
#include "quake/wave2d/sh_model.hpp"

namespace quake::inverse {

struct InversionSetup : Survey {
  wave2d::ShGrid grid;
  double rho = 0.0;
  wave2d::Fault2d fault;
  wave2d::SourceParams2d source;   // true source (material inversion) or
                                   // current iterate (source inversion)
};

// The fault dipole at fixed parameters, as the substrate's source hook: its
// forcing scales with the local mu, so it also supplies df/dmu.
struct FaultForcing {
  const wave2d::FaultSource2d& src;
  const wave2d::SourceParams2d& p;

  void add_forces(const wave2d::ShModel& model, double t,
                  std::span<double> f) const {
    src.add_forces(model, p, t, f);
  }
  void add_forces_delta_mu(const wave2d::ShModel& model,
                           std::span<const double> dmu, double t,
                           std::span<double> f) const {
    src.add_forces_delta_mu(model, p, dmu, t, f);
  }
  void accumulate_material_form(const wave2d::ShModel& model, double t,
                                std::span<const double> lambda,
                                std::span<double> ge) const {
    src.accumulate_material_form(model, p, t, lambda, ge);
  }
};

class InversionProblem {
 public:
  explicit InversionProblem(InversionSetup setup);

  [[nodiscard]] const InversionSetup& setup() const { return setup_; }
  [[nodiscard]] const wave2d::FaultSource2d& source_op() const { return src_; }

  using ForwardOut = inverse::ForwardOut;

  // Forward solve for a given material (element mu) and source parameters.
  ForwardOut forward(const wave2d::ShModel& model,
                     const wave2d::SourceParams2d& p, bool store_history) const;

  // Reversed-time adjoint solve; see inverse::adjoint.
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

 private:
  InversionSetup setup_;
  wave2d::FaultSource2d src_;
};

}  // namespace quake::inverse

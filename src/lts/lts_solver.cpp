#include "quake/lts/lts_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "quake/obs/obs.hpp"
#include "quake/util/timer.hpp"

namespace quake::lts {

LtsSolver::LtsSolver(const solver::ElasticOperator& op,
                     const solver::SolverOptions& opt, const LtsOptions& lts)
    : op_(&op) {
  if (op.options().rayleigh) {
    throw std::invalid_argument(
        "LtsSolver: Rayleigh damping is not supported (the off-diagonal "
        "stiffness-damping term couples u^{k-1} across rates)");
  }
  dt_ = opt.dt > 0.0 ? opt.dt : op.stable_dt(opt.cfl_fraction);
  if (!(dt_ > 0.0) || !(opt.t_end > 0.0)) {
    throw std::invalid_argument("LtsSolver: bad dt or t_end");
  }
  n_steps_ = static_cast<int>(std::ceil(opt.t_end / dt_));

  const mesh::HexMesh& mesh = op.mesh();
  cl_ = cluster_elements(mesh, dt_, opt.cfl_fraction, lts.max_rate);

  // Per-class / per-rate sweep lists, ascending so the full single-class
  // lists reproduce the global scheme's pack alignment bitwise.
  elems_of_class_.resize(static_cast<std::size_t>(cl_.n_classes));
  faces_of_class_.resize(static_cast<std::size_t>(cl_.n_classes));
  nodes_of_rate_.resize(static_cast<std::size_t>(cl_.n_classes));
  cons_of_rate_.resize(static_cast<std::size_t>(cl_.n_classes));
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    elems_of_class_[cl_.elem_class_log2[e]].push_back(
        static_cast<mesh::ElemId>(e));
  }
  for (std::size_t fi = 0; fi < mesh.boundary_faces.size(); ++fi) {
    const std::size_t e =
        static_cast<std::size_t>(mesh.boundary_faces[fi].elem);
    faces_of_class_[cl_.elem_class_log2[e]].push_back(
        static_cast<std::int32_t>(fi));
  }
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    nodes_of_rate_[cl_.node_rate_log2[n]].push_back(
        static_cast<mesh::NodeId>(n));
  }
  for (std::size_t ci = 0; ci < mesh.constraints.size(); ++ci) {
    const std::size_t h =
        static_cast<std::size_t>(mesh.constraints[ci].node);
    cons_of_rate_[cl_.node_rate_log2[h]].push_back(
        static_cast<std::int32_t>(ci));
  }

  // Per-dof coefficients of the eq. 2.4 recurrence at the node's own step
  // dt_n = 2^lg * dt. ldexp is exact, and at lg = 0 yields dt itself, so
  // the single-class coefficients match ExplicitSolver's bitwise.
  const std::size_t nd = op.n_dofs();
  inv_lhs_.assign(nd, 0.0);
  const auto mass = op.lumped_mass();
  const auto am = op.alpha_mass();
  const auto bk = op.beta_k_diag();
  const auto cab = op.cab_diag();
  for (std::size_t d = 0; d < nd; ++d) {
    const double dtn =
        std::ldexp(dt_, static_cast<int>(cl_.node_rate_log2[d / 3]));
    const double lhs = mass[d] + 0.5 * dtn * (am[d] + bk[d] + cab[d]);
    inv_lhs_[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;  // hanging dofs have zero mass
  }

  u_.assign(nd, 0.0);
  u_prev_.assign(nd, 0.0);
  un_.assign(nd, 0.0);
  f_.assign(nd, 0.0);
  ku_.assign(nd, 0.0);
  u_final_.assign(nd, 0.0);
}

std::size_t LtsSolver::add_receiver(std::array<double, 3> position) {
  solver::Receiver r;
  r.node = solver::nearest_node(op_->mesh(), position);
  receivers_.push_back(std::move(r));
  return receivers_.size() - 1;
}

void LtsSolver::set_initial_conditions(std::span<const double> u0,
                                       std::span<const double> v0) {
  const std::size_t nd = op_->n_dofs();
  if (u0.size() != nd || v0.size() != nd) {
    throw std::invalid_argument("set_initial_conditions: bad sizes");
  }
  std::copy(u0.begin(), u0.end(), u_.begin());
  op_->expand_constraints(u_);
  // Second-order start per node: u^{-p} = u0 - dt_n v0 + dt_n^2/2 a0 (the
  // bracket opens one whole node-step before t = 0).
  std::fill(ku_.begin(), ku_.end(), 0.0);
  op_->apply_stiffness(u_, ku_, {});
  op_->accumulate_constraints(ku_);
  std::fill(f_.begin(), f_.end(), 0.0);
  for (const solver::SourceModel* s : sources_) s->add_forces(0.0, f_);
  op_->accumulate_constraints(f_);
  const auto mass = op_->lumped_mass();
  for (std::size_t d = 0; d < nd; ++d) {
    const double a0 = mass[d] > 0.0 ? (f_[d] - ku_[d]) / mass[d] : 0.0;
    const double dtn = std::ldexp(dt_, cl_.node_rate_log2[d / 3]);
    u_prev_[d] = u_[d] - dtn * v0[d] + 0.5 * dtn * dtn * a0;
  }
  op_->expand_constraints(u_prev_);
}

void LtsSolver::bracket_at(std::size_t n, int k_target, double* out) const {
  // k_target lies in (k0, k0 + p] for the node's last update k0 — true for
  // the step being computed, the step just completed and the final time.
  // An active node's u is exactly u^{k_target}; a stale node's bracket
  // (u_prev = u^{k0}, u = u^{k0+p}) interpolates linearly. theta's
  // numerator and denominator are exact small integers.
  const int p = 1 << cl_.node_rate_log2[n];
  const int m = k_target & (p - 1);
  const std::size_t b = 3 * n;
  if (m == 0) {
    out[0] = u_[b];
    out[1] = u_[b + 1];
    out[2] = u_[b + 2];
  } else {
    const double theta = static_cast<double>(m) / static_cast<double>(p);
    for (std::size_t c = 0; c < 3; ++c) {
      out[c] = u_prev_[b + c] + theta * (u_[b + c] - u_prev_[b + c]);
    }
  }
}

void LtsSolver::substep(int k) {
  const double t_k = k * dt_;
  const auto mass = op_->lumped_mass();
  const auto am = op_->alpha_mass();
  const auto cab = op_->cab_diag();

  for (std::size_t n = 0; n < op_->mesh().n_nodes(); ++n) {
    bracket_at(n, k, un_.data() + 3 * n);  // the time-k field
  }

  {
    QUAKE_OBS_SCOPE("source");
    std::fill(f_.begin(), f_.end(), 0.0);
    for (const solver::SourceModel* s : sources_) s->add_forces(t_k, f_);
    op_->accumulate_constraints(f_);
  }

  // Stiffness of the active classes only. ku is rebuilt from zero, which is
  // complete at every node updating this step: the node's rate divides k,
  // so every element touching it (class <= rate, class | rate) is active.
  std::fill(ku_.begin(), ku_.end(), 0.0);
  std::uint64_t updates = 0;
  const int cap = Clustering::active_cap(cl_.n_classes, k);
  for (int c = 0; c <= cap; ++c) {
    const auto& elems = elems_of_class_[static_cast<std::size_t>(c)];
    op_->apply_stiffness_subset(
        elems, faces_of_class_[static_cast<std::size_t>(c)], un_, ku_, {});
    updates += elems.size();
  }
  op_->accumulate_constraints(ku_);
  element_updates_ += updates;
  obs::counter_add("lts/element_updates",
                   static_cast<std::int64_t>(updates));

  QUAKE_OBS_SCOPE("update");  // eq. 2.4 at dt_n, active rates only
  for (int lg = 0; lg <= cap; ++lg) {
    const double dtn = std::ldexp(dt_, lg);  // exact: lg = 0 is dt itself
    const double dt2 = dtn * dtn;
    const double hdt = 0.5 * dtn;
    for (const mesh::NodeId node : nodes_of_rate_[static_cast<std::size_t>(lg)]) {
      const std::size_t b = 3 * static_cast<std::size_t>(node);
      for (std::size_t d = b; d < b + 3; ++d) {
        const double old_u = u_[d];
        const double rhs = 2.0 * mass[d] * u_[d] - dt2 * ku_[d] + dt2 * f_[d] +
                           (hdt * am[d] - mass[d]) * u_prev_[d] +
                           hdt * cab[d] * u_prev_[d];
        u_prev_[d] = old_u;
        u_[d] = rhs * inv_lhs_[d];
      }
    }
    // Close the hanging brackets of this cadence: u_prev keeps the old
    // (time-k) expanded value, u gets the masters' fresh combination —
    // masters share the group's cadence, so they updated above.
    for (const std::int32_t ci : cons_of_rate_[static_cast<std::size_t>(lg)]) {
      const mesh::Constraint& c =
          op_->mesh().constraints[static_cast<std::size_t>(ci)];
      for (int comp = 0; comp < 3; ++comp) {
        double v = 0.0;
        for (int m = 0; m < c.n_masters; ++m) {
          v += c.weights[static_cast<std::size_t>(m)] *
               u_[3 * static_cast<std::size_t>(
                        c.masters[static_cast<std::size_t>(m)]) +
                  static_cast<std::size_t>(comp)];
        }
        u_[3 * static_cast<std::size_t>(c.node) +
           static_cast<std::size_t>(comp)] = v;
      }
    }
    if (fixed_[0] || fixed_[1] || fixed_[2]) {
      for (const mesh::NodeId node :
           nodes_of_rate_[static_cast<std::size_t>(lg)]) {
        for (int c = 0; c < 3; ++c) {
          if (fixed_[static_cast<std::size_t>(c)]) {
            u_[3 * static_cast<std::size_t>(node) +
               static_cast<std::size_t>(c)] = 0.0;
          }
        }
      }
    }
  }

  // Receivers sample t_{k+1}; a rate-1 node reads u directly (bitwise the
  // global scheme's recording), a coarse node interpolates its bracket.
  for (solver::Receiver& r : receivers_) {
    std::array<double, 3> s;
    bracket_at(static_cast<std::size_t>(r.node), k + 1, s.data());
    r.u.push_back(s);
  }
}

void LtsSolver::run() {
  QUAKE_OBS_SCOPE("lts/run");
  util::Timer timer;
  obs::gauge_set("lts/n_classes", cl_.n_classes);
  for (int k = 0; k < n_steps_; ++k) substep(k);
  for (std::size_t n = 0; n < op_->mesh().n_nodes(); ++n) {
    bracket_at(n, n_steps_, u_final_.data() + 3 * n);
  }
  obs::gauge_set("lts/updates_saved_ratio", updates_saved_ratio());
  elapsed_ = timer.seconds();
}

std::vector<double> LtsSolver::receiver_component(std::size_t r,
                                                  int comp) const {
  const solver::Receiver& rec = receivers_.at(r);
  std::vector<double> out(rec.u.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rec.u[i][static_cast<std::size_t>(comp)];
  }
  return out;
}

}  // namespace quake::lts

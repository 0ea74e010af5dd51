#include "quake/inverse/problem.hpp"

#include "quake/inverse/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace quake::inverse {

using wave2d::MarchOptions;
using wave2d::MarchResult;

InversionProblem::InversionProblem(InversionSetup setup)
    : setup_(std::move(setup)), src_(setup_.grid, setup_.fault) {
  setup_.grid.validate();
  if (!(setup_.dt > 0.0) || setup_.nt < 1) {
    throw std::invalid_argument("InversionProblem: bad dt/nt");
  }
  if (!setup_.observations.empty() &&
      setup_.observations.size() != setup_.receiver_nodes.size()) {
    throw std::invalid_argument("InversionProblem: observations mismatch");
  }
}

double InversionProblem::misfit_of(const Records& records) const {
  double j = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    for (std::size_t k = 0; k < records[r].size(); ++k) {
      const double res = records[r][k] - setup_.observations[r][k];
      j += res * res;
    }
  }
  return 0.5 * setup_.dt * j;
}

InversionProblem::ForwardOut InversionProblem::forward(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    bool store_history) const {
  MarchOptions mo{setup_.dt, setup_.nt};
  ForwardOut out;
  out.march = time_march(
      model, mo,
      [&](int, double t, std::span<double> f) { src_.add_forces(model, p, t, f); },
      setup_.receiver_nodes, store_history);
  if (!setup_.observations.empty()) {
    out.residuals.resize(out.march.records.size());
    for (std::size_t r = 0; r < out.march.records.size(); ++r) {
      out.residuals[r].resize(out.march.records[r].size());
      for (std::size_t k = 0; k < out.march.records[r].size(); ++k) {
        out.residuals[r][k] =
            out.march.records[r][k] - setup_.observations[r][k];
      }
    }
    out.misfit = misfit_of(out.march.records);
  }
  return out;
}

History InversionProblem::adjoint(const wave2d::ShModel& model,
                                  const Records& driver) const {
  MarchOptions mo{setup_.dt, setup_.nt};
  const int nt = setup_.nt;
  const double inv_dt = 1.0 / setup_.dt;
  MarchResult res = time_march(
      model, mo,
      [&](int k, double, std::span<double> f) {
        // Reversed-time source: f~^k = -R^{nt-k} / dt, where R^j carries the
        // driver at observation index j-1.
        const int obs = nt - k - 1;
        for (std::size_t r = 0; r < setup_.receiver_nodes.size(); ++r) {
          f[static_cast<std::size_t>(setup_.receiver_nodes[r])] -=
              driver[r][static_cast<std::size_t>(obs)] * inv_dt;
        }
      },
      {}, /*store_history=*/true);
  return std::move(res.history);
}

namespace {

// u^k from the stored history (history[k] = u^{k+1}); k <= 0 is quiescent.
const std::vector<double>* state_at(const History& u, int k) {
  if (k <= 0) return nullptr;
  return &u[static_cast<std::size_t>(k - 1)];
}

}  // namespace

void InversionProblem::assemble_material_gradient(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, const History& nu, std::span<double> ge) const {
  const int nt = setup_.nt;
  for (int k = 0; k < nt; ++k) {
    // lambda^{k+1} = nu^{nt-k} = nu-history[nt-k-1].
    const std::vector<double>& lambda = nu[static_cast<std::size_t>(nt - k - 1)];
    accumulate_material_step(model, src_, p, k, setup_.dt, lambda,
                             state_at(u, k), state_at(u, k + 1),
                             state_at(u, k - 1), ge);
  }
}

void InversionProblem::subtract_material_tangent(
    const wave2d::ShModel& model, const History& u,
    std::span<const double> dmu, int k, std::span<double> f) const {
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> tmp(n, 0.0);
  if (const auto* uk = state_at(u, k)) {
    model.apply_k_delta(dmu, *uk, tmp);
    for (std::size_t i = 0; i < n; ++i) f[i] -= tmp[i];
  }
  const auto* up = state_at(u, k + 1);
  const auto* um = state_at(u, k - 1);
  if (up != nullptr || um != nullptr) {
    std::vector<double> diff(n);
    for (std::size_t i = 0; i < n; ++i) {
      diff[i] = (up ? (*up)[i] : 0.0) - (um ? (*um)[i] : 0.0);
    }
    std::fill(tmp.begin(), tmp.end(), 0.0);
    model.apply_c_delta(dmu, diff, tmp);
    const double s = 1.0 / (2.0 * setup_.dt);
    for (std::size_t i = 0; i < n; ++i) f[i] -= s * tmp[i];
  }
}

Records InversionProblem::incremental_forward_material(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, std::span<const double> dmu) const {
  MarchOptions mo{setup_.dt, setup_.nt};
  MarchResult res = time_march(
      model, mo,
      [&](int k, double t, std::span<double> f) {
        src_.add_forces_delta_mu(model, p, dmu, t, f);
        subtract_material_tangent(model, u, dmu, k, f);
      },
      setup_.receiver_nodes, /*store_history=*/false);
  return std::move(res.records);
}

void InversionProblem::gauss_newton_material(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, std::span<const double> dmu,
    std::span<double> h_dmu) const {
  const Records du = incremental_forward_material(model, p, u, dmu);
  const History nu = adjoint(model, du);
  assemble_material_gradient(model, p, u, nu, h_dmu);
}

void InversionProblem::assemble_source_gradient(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& nu, std::span<double> g_u0, std::span<double> g_t0,
    std::span<double> g_T) const {
  const int nt = setup_.nt;
  const double dt = setup_.dt;
  const double dt2 = dt * dt;
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> neg_lambda(n);
  for (int k = 0; k < nt; ++k) {
    const std::vector<double>& lambda = nu[static_cast<std::size_t>(nt - k - 1)];
    for (std::size_t i = 0; i < n; ++i) neg_lambda[i] = -dt2 * lambda[i];
    src_.accumulate_param_forms(model, p, k * dt, neg_lambda, g_u0, g_t0, g_T);
  }
}

Records InversionProblem::incremental_forward_source(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    std::span<const double> du0, std::span<const double> dt0,
    std::span<const double> dT) const {
  MarchOptions mo{setup_.dt, setup_.nt};
  MarchResult res = time_march(
      model, mo,
      [&](int, double t, std::span<double> f) {
        src_.add_forces_delta_params(model, p, du0, dt0, dT, t, f);
      },
      setup_.receiver_nodes, /*store_history=*/false);
  return std::move(res.records);
}

void InversionProblem::gauss_newton_source(const wave2d::ShModel& model,
                                           const wave2d::SourceParams2d& p,
                                           std::span<const double> d_stacked,
                                           std::span<double> h_stacked) const {
  const std::size_t np = p.u0.size();
  const Records du = incremental_forward_source(
      model, p, d_stacked.subspan(0, np), d_stacked.subspan(np, np),
      d_stacked.subspan(2 * np, np));
  const History nu = adjoint(model, du);
  assemble_source_gradient(model, p, nu, h_stacked.subspan(0, np),
                           h_stacked.subspan(np, np),
                           h_stacked.subspan(2 * np, np));
}

}  // namespace quake::inverse

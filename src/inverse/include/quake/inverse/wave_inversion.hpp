#pragma once

// The one inversion substrate of §3.1, written once for every wave model:
// the explicit central-difference march
//   (M + dt/2 C) u^{k+1} = dt^2 (f^k - K u^k) + 2 M u^k - (M - dt/2 C) u^{k-1}
// from quiescent initial conditions; its exact discrete adjoint (the same
// recurrence in reversed time, since M, C and K are symmetric); the
// per-step material gradient kernel; the K'/C' tangent forcing; and the
// matrix-free Gauss-Newton product (one incremental forward plus one
// adjoint). The 2D antiplane model (wave2d::ShModel) and the 3D scalar
// model (wave3d::ScalarModel3d) both meet WaveModel without knowing it.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace quake::inverse {

using History = std::vector<std::vector<double>>;   // [k][node], u^{k+1}
using Records = std::vector<std::vector<double>>;   // [receiver][k]

// A discrete wave model: diagonal mass M and damping C(m), stiffness K(m)
// linear in the element material field m, and their material derivatives.
template <class M>
concept WaveModel = requires(const M& model, std::span<const double> x,
                             std::span<double> y) {
  { model.grid().n_nodes() } -> std::convertible_to<int>;
  { model.mass() } -> std::convertible_to<std::span<const double>>;
  { model.damping() } -> std::convertible_to<std::span<const double>>;
  model.apply_k(x, y);               // y += K u
  model.apply_k_delta(x, x, y);      // y += K'[dm] u
  model.apply_c_delta(x, x, y);      // y += C'[dm] v
  model.accumulate_k_form(x, x, y);  // ge[e] += lambda^T K'_e u
  model.accumulate_c_form(x, x, y);  // ge[e] += lambda^T C'_e v
};

// A source hook forces the forward march: src.add_forces(model, t, f)
// adds f(t).
template <class S, class M>
concept Source = requires(const S& src, const M& model, double t,
                          std::span<double> f) {
  src.add_forces(model, t, f);
};

// A source whose forcing scales with the material (the 2D fault dipole)
// also gives f += df/dm[dm](t) and ge[e] += lambda^T df/dm_e(t). The
// substrate adds those terms only for such a source and skips them for any
// other.
template <class S, class M>
concept MaterialSource =
    Source<S, M> && requires(const S& src, const M& model,
                             std::span<const double> x, double t,
                             std::span<double> y) {
      src.add_forces_delta_mu(model, x, t, y);
      src.accumulate_material_form(model, t, x, y);
    };

// Fills `f` (pre-zeroed) with the force at step k (time t = k * dt).
// For the adjoint march the callback receives the reversed step index.
using RhsFn = std::function<void(int k, double t, std::span<double> f)>;

struct MarchResult {
  // history[k] = u^{k+1} for k = 0..nt-1 (empty unless requested);
  // u^0 = 0 by the quiescent initial condition.
  History history;
  // records[r][k] = u^{k+1} at receiver node r.
  Records records;
};

// Single-step driver underlying march(); exposed for the checkpointed
// adjoint (Griewank), which restarts segments from stored (u, u_prev) pairs.
template <WaveModel M>
class Stepper {
 public:
  Stepper(const M& model, double dt) : model_(&model), dt_(dt) {
    if (!(dt > 0.0)) throw std::invalid_argument("Stepper: dt > 0 required");
    const std::size_t n = static_cast<std::size_t>(model.grid().n_nodes());
    const auto mass = model.mass();
    const auto damp = model.damping();
    inv_ap_.resize(n);
    am_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      inv_ap_[i] = 1.0 / (mass[i] + 0.5 * dt * damp[i]);
      am_[i] = mass[i] - 0.5 * dt * damp[i];
    }
    u_.assign(n, 0.0);
    u_prev_.assign(n, 0.0);
    u_next_.resize(n);
    f_.resize(n);
    ku_.resize(n);
  }

  // Restores the state (u^k, u^{k-1}); pass empty spans for quiescence.
  void set_state(std::span<const double> u, std::span<const double> u_prev) {
    if (u.empty()) {
      std::fill(u_.begin(), u_.end(), 0.0);
    } else {
      u_.assign(u.begin(), u.end());
    }
    if (u_prev.empty()) {
      std::fill(u_prev_.begin(), u_prev_.end(), 0.0);
    } else {
      u_prev_.assign(u_prev.begin(), u_prev.end());
    }
  }

  // Advances one step using rhs(k, k*dt, f); afterwards u() is u^{k+1}.
  void step(int k, const RhsFn& rhs) {
    const std::size_t n = u_.size();
    std::fill(f_.begin(), f_.end(), 0.0);
    rhs(k, k * dt_, f_);
    std::fill(ku_.begin(), ku_.end(), 0.0);
    model_->apply_k(u_, ku_);
    const auto mass = model_->mass();
    const double dt2 = dt_ * dt_;
    for (std::size_t i = 0; i < n; ++i) {
      u_next_[i] = (dt2 * (f_[i] - ku_[i]) + 2.0 * mass[i] * u_[i] -
                    am_[i] * u_prev_[i]) *
                   inv_ap_[i];
    }
    std::swap(u_prev_, u_);
    std::swap(u_, u_next_);
  }

  [[nodiscard]] const std::vector<double>& u() const { return u_; }
  [[nodiscard]] const std::vector<double>& u_prev() const { return u_prev_; }

 private:
  const M* model_;
  double dt_;
  std::vector<double> inv_ap_, am_;
  std::vector<double> u_, u_prev_, u_next_, f_, ku_;
};

template <WaveModel M>
MarchResult march(const M& model, double dt, int nt, const RhsFn& rhs,
                  std::span<const int> receiver_nodes, bool store_history) {
  if (!(dt > 0.0) || nt < 1) {
    throw std::invalid_argument("march: bad dt or nt");
  }
  Stepper<M> stepper(model, dt);

  MarchResult out;
  if (store_history) out.history.reserve(static_cast<std::size_t>(nt));
  out.records.assign(receiver_nodes.size(), {});
  for (auto& r : out.records) r.reserve(static_cast<std::size_t>(nt));

  for (int k = 0; k < nt; ++k) {
    stepper.step(k, rhs);
    if (store_history) out.history.push_back(stepper.u());
    for (std::size_t r = 0; r < receiver_nodes.size(); ++r) {
      out.records[r].push_back(
          stepper.u()[static_cast<std::size_t>(receiver_nodes[r])]);
    }
  }
  return out;
}

// What an inversion observes, whatever the model: the receivers, the time
// axis and the recorded data.
struct Survey {
  std::vector<int> receiver_nodes;
  double dt = 0.0;
  int nt = 0;
  Records observations;  // d[r][k], matching receiver order; may be empty

  // Throws invalid_argument (prefixed with `who`) unless dt > 0, nt >= 1,
  // and the observations are empty or one length-nt series per receiver.
  void validate(const char* who) const;
};

struct ForwardOut {
  MarchResult march;
  Records residuals;    // u_r - d_r per receiver and step
  double misfit = 0.0;  // 1/2 dt sum_k sum_r residual^2
};

// Fills out.residuals and out.misfit from out.march.records; leaves them
// empty and zero when the survey has no observations.
void compute_misfit(const Survey& s, ForwardOut& out);

// f -= driver[r][nt - tau - 1] / dt at each receiver: the reversed-time
// adjoint forcing at step tau.
void add_adjoint_forcing(const Survey& s, const Records& driver, int tau,
                         std::span<double> f);

// u^k from the stored history (history[k] = u^{k+1}); k <= 0 is quiescent.
const std::vector<double>* state_at(const History& u, int k);

// Forward solve of the survey's time axis for a model and its source.
template <WaveModel M, Source<M> S>
ForwardOut forward(const Survey& s, const M& model, const S& src,
                   bool store_history) {
  ForwardOut out;
  out.march = march(
      model, s.dt, s.nt,
      [&](int, double t, std::span<double> f) { src.add_forces(model, t, f); },
      s.receiver_nodes, store_history);
  compute_misfit(s, out);
  return out;
}

// Adjoint solve driven by per-receiver time series (residuals for the
// gradient; J*delta records for Gauss-Newton products). Returns the
// adjoint history in *reversed* time: result[tau] = nu^{tau+1},
// i.e. lambda^{k+1} = result[nt - k - 1].
template <WaveModel M>
History adjoint(const Survey& s, const M& model, const Records& driver) {
  MarchResult res = march(
      model, s.dt, s.nt,
      [&](int tau, double, std::span<double> f) {
        add_adjoint_forcing(s, driver, tau, f);
      },
      {}, /*store_history=*/true);
  return std::move(res.history);
}

// Per-step gradient kernel shared by the stored and checkpointed paths:
// ge += the step-k terms of dL/dm (stiffness, dashpot and, for a
// material-dependent source, the source term).
template <WaveModel M, Source<M> S>
void accumulate_material_step(const M& model, const S& src, int k, double dt,
                              std::span<const double> lambda,
                              const std::vector<double>* u_k,
                              const std::vector<double>* u_kp1,
                              const std::vector<double>* u_km1,
                              std::span<double> ge) {
  const std::size_t n = lambda.size();
  const double dt2 = dt * dt;
  std::vector<double> scaled(n), diff(n);
  // dt^2 * lambda^T K'_e u^k.
  if (u_k != nullptr) {
    for (std::size_t i = 0; i < n; ++i) scaled[i] = dt2 * lambda[i];
    model.accumulate_k_form(scaled, *u_k, ge);
  }
  // (dt/2) * lambda^T C'_e (u^{k+1} - u^{k-1}).
  if (u_kp1 != nullptr || u_km1 != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      diff[i] = (u_kp1 ? (*u_kp1)[i] : 0.0) - (u_km1 ? (*u_km1)[i] : 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) scaled[i] = 0.5 * dt * lambda[i];
    model.accumulate_c_form(scaled, diff, ge);
  }
  // -dt^2 * lambda^T df^k/dm_e.
  if constexpr (MaterialSource<S, M>) {
    for (std::size_t i = 0; i < n; ++i) scaled[i] = -dt2 * lambda[i];
    src.accumulate_material_form(model, k * dt, scaled, ge);
  }
}

// ge[e] += dL/dm_e for the data term, assembled from the forward history u
// and the reversed-time adjoint history nu.
template <WaveModel M, Source<M> S>
void assemble_material_gradient(const Survey& s, const M& model, const S& src,
                                const History& u, const History& nu,
                                std::span<double> ge) {
  for (int k = 0; k < s.nt; ++k) {
    // lambda^{k+1} = nu^{nt-k} = nu-history[nt-k-1].
    const std::vector<double>& lambda =
        nu[static_cast<std::size_t>(s.nt - k - 1)];
    accumulate_material_step(model, src, k, s.dt, lambda, state_at(u, k),
                             state_at(u, k + 1), state_at(u, k - 1), ge);
  }
}

// f -= K'[dm] u^k + C'[dm] (u^{k+1} - u^{k-1}) / (2 dt): the stiffness
// and absorbing-boundary part of the step-k forcing of the incremental
// forward solve in material direction dm about the forward history u.
template <WaveModel M>
void subtract_material_tangent(const M& model, double dt, const History& u,
                               std::span<const double> dm, int k,
                               std::span<double> f) {
  const std::size_t n = f.size();
  std::vector<double> tmp(n, 0.0);
  if (const auto* uk = state_at(u, k)) {
    model.apply_k_delta(dm, *uk, tmp);
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
    model.apply_c_delta(dm, diff, tmp);
    const double scale = 1.0 / (2.0 * dt);
    for (std::size_t i = 0; i < n; ++i) f[i] -= scale * tmp[i];
  }
}

// Records of the incremental forward solve in material direction dm (the
// J*dm that the Gauss-Newton product needs).
template <WaveModel M, Source<M> S>
Records incremental_forward_material(const Survey& s, const M& model,
                                     const S& src, const History& u,
                                     std::span<const double> dm) {
  MarchResult res = march(
      model, s.dt, s.nt,
      [&](int k, double t, std::span<double> f) {
        if constexpr (MaterialSource<S, M>) {
          src.add_forces_delta_mu(model, dm, t, f);
        }
        subtract_material_tangent(model, s.dt, u, dm, k, f);
      },
      s.receiver_nodes, /*store_history=*/false);
  return std::move(res.records);
}

// Data-term Gauss-Newton product h_dm += H dm (element space): one
// incremental forward plus one adjoint solve.
template <WaveModel M, Source<M> S>
void gauss_newton_material(const Survey& s, const M& model, const S& src,
                           const History& u, std::span<const double> dm,
                           std::span<double> h_dm) {
  const Records du = incremental_forward_material(s, model, src, u, dm);
  const History nu = adjoint(s, model, du);
  assemble_material_gradient(s, model, src, u, nu, h_dm);
}

}  // namespace quake::inverse

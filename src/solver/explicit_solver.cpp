#include "quake/solver/explicit_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "quake/obs/obs.hpp"
#include "quake/util/checkpoint.hpp"

namespace quake::solver {

ExplicitSolver::ExplicitSolver(const ElasticOperator& op,
                               const SolverOptions& opt)
    : op_(&op), opt_(opt) {
  dt_ = opt.dt > 0.0 ? opt.dt : op.stable_dt(opt.cfl_fraction);
  if (!(dt_ > 0.0) || !(opt.t_end > 0.0)) {
    throw std::invalid_argument("ExplicitSolver: bad dt or t_end");
  }
  n_steps_ = static_cast<int>(std::ceil(opt.t_end / dt_));

  const std::size_t nd = op.n_dofs();
  u_.assign(nd, 0.0);
  u_prev_.assign(nd, 0.0);
  u_next_.assign(nd, 0.0);
  f_.assign(nd, 0.0);
  ku_.assign(nd, 0.0);
  dku_.assign(nd, 0.0);
  dku_prev_.assign(nd, 0.0);

  // Diagonal left-hand side of eq. 2.4:
  // (1 + alpha dt/2) M + (beta dt/2) K_diag + (dt/2) C^AB_diag,
  // with elementwise alpha and beta folded into the assembled vectors.
  inv_lhs_.assign(nd, 0.0);
  const auto mass = op.lumped_mass();
  const auto am = op.alpha_mass();
  const auto bk = op.beta_k_diag();
  const auto cab = op.cab_diag();
  for (std::size_t d = 0; d < nd; ++d) {
    const double lhs =
        mass[d] + 0.5 * dt_ * (am[d] + bk[d] + cab[d]);
    inv_lhs_[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;  // hanging dofs have zero mass
  }
}

std::size_t ExplicitSolver::add_receiver(std::array<double, 3> position) {
  Receiver r;
  r.node = nearest_node(op_->mesh(), position);
  receivers_.push_back(std::move(r));
  return receivers_.size() - 1;
}

void ExplicitSolver::set_checkpoint(std::string path, int every, int keep) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every;
  checkpoint_keep_ = keep < 1 ? 1 : keep;
}

void ExplicitSolver::set_initial_conditions(std::span<const double> u0,
                                            std::span<const double> v0) {
  const std::size_t nd = op_->n_dofs();
  if (u0.size() != nd || v0.size() != nd) {
    throw std::invalid_argument("set_initial_conditions: bad sizes");
  }
  std::copy(u0.begin(), u0.end(), u_.begin());
  op_->expand_constraints(u_);
  // Second-order start: u^{-1} = u0 - dt v0 + dt^2/2 a0 with
  // a0 = M^{-1} (b(0) - (K + K^AB) u0); damping omitted from a0 (its effect
  // on the starting error is O(dt^3)).
  std::fill(ku_.begin(), ku_.end(), 0.0);
  op_->apply_stiffness(u_, ku_, {});
  op_->accumulate_constraints(ku_);
  std::fill(f_.begin(), f_.end(), 0.0);
  for (const SourceModel* s : sources_) s->add_forces(0.0, f_);
  op_->accumulate_constraints(f_);
  const auto mass = op_->lumped_mass();
  for (std::size_t d = 0; d < nd; ++d) {
    const double a0 = mass[d] > 0.0 ? (f_[d] - ku_[d]) / mass[d] : 0.0;
    u_prev_[d] = u_[d] - dt_ * v0[d] + 0.5 * dt_ * dt_ * a0;
  }
  op_->expand_constraints(u_prev_);
}

void ExplicitSolver::step(int k) {
  QUAKE_OBS_SCOPE("step");
  const std::size_t nd = op_->n_dofs();
  const double t_k = k * dt_;
  const auto mass = op_->lumped_mass();
  const auto am = op_->alpha_mass();
  const auto bk = op_->beta_k_diag();
  const auto cab = op_->cab_diag();
  const bool rayleigh = op_->options().rayleigh;

  {
    // Source at t_k, projected.
    QUAKE_OBS_SCOPE("source");
    std::fill(f_.begin(), f_.end(), 0.0);
    for (const SourceModel* s : sources_) s->add_forces(t_k, f_);
    op_->accumulate_constraints(f_);
  }

  // Stiffness and Rayleigh-stiffness products at u^k, projected. The
  // element kernel itself reports under step/op/stiffness (see
  // ElasticOperator::apply_stiffness).
  std::fill(ku_.begin(), ku_.end(), 0.0);
  if (rayleigh) std::fill(dku_.begin(), dku_.end(), 0.0);
  op_->apply_stiffness(u_, ku_, rayleigh ? std::span<double>(dku_) : std::span<double>());
  op_->accumulate_constraints(ku_);
  if (rayleigh) op_->accumulate_constraints(dku_);

  QUAKE_OBS_SCOPE("update");  // diagonalized lumped update (eq. 2.4)
  const double dt2 = dt_ * dt_;
  const double hdt = 0.5 * dt_;
  for (std::size_t d = 0; d < nd; ++d) {
    // eq. 2.4: u^k coefficient 2M - dt^2 (K + K^AB) - (beta dt/2) K_off,
    //          u^{k-1} coefficient (alpha dt/2 - 1) M + (beta dt/2) K
    //                              + (dt/2) C^AB,
    // with C^AB lumped (so C^AB_off = 0) and K_off u = (K u) - K_diag u.
    double rhs = 2.0 * mass[d] * u_[d] - dt2 * ku_[d] + dt2 * f_[d] +
                 (hdt * am[d] - mass[d]) * u_prev_[d] +
                 hdt * cab[d] * u_prev_[d];
    if (rayleigh) {
      rhs -= hdt * (dku_[d] - bk[d] * u_[d]);  // off-diagonal part at u^k
      rhs += hdt * dku_prev_[d];               // full beta K at u^{k-1}
    }
    u_next_[d] = rhs * inv_lhs_[d];
  }
  op_->expand_constraints(u_next_);
  if (fixed_[0] || fixed_[1] || fixed_[2]) {
    for (std::size_t n = 0; n < nd / 3; ++n) {
      for (int c = 0; c < 3; ++c) {
        if (fixed_[static_cast<std::size_t>(c)]) {
          u_next_[3 * n + static_cast<std::size_t>(c)] = 0.0;
        }
      }
    }
  }

  std::swap(dku_prev_, dku_);
  std::swap(u_prev_, u_);
  std::swap(u_, u_next_);

  // Update cost per dof: 14 flops for the undamped eq. 2.4 recurrence, plus
  // 6 for the Rayleigh off-diagonal correction when damping is on.
  flops_.add(op_->flops_per_apply() + nd * (rayleigh ? 20ull : 14ull));
}

int ExplicitSolver::restore_checkpoint() {
  // Newest generation first; an older sibling is still a valid resume point
  // when the newest write was torn or skipped under disk pressure.
  util::Snapshot snap;
  bool loaded = false;
  for (int gen = 0; gen < checkpoint_keep_ && !loaded; ++gen) {
    loaded = util::load_snapshot(
        util::snapshot_generation_path(checkpoint_path_, gen), &snap);
  }
  if (!loaded) return 0;
  const std::size_t nd = op_->n_dofs();
  const auto u = snap.field("u");
  const auto u_prev = snap.field("u_prev");
  const auto dku_prev = snap.field("dku_prev");
  if (snap.step <= 0 || snap.step > n_steps_ || u.size() != nd ||
      u_prev.size() != nd || dku_prev.size() != nd) {
    return 0;  // snapshot from an incompatible configuration
  }
  const std::size_t k0 = static_cast<std::size_t>(snap.step);
  std::vector<std::span<const double>> rec(receivers_.size());
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    rec[i] = snap.field("recv" + std::to_string(i));
    if (rec[i].size() != 3 * k0) return 0;
  }
  std::copy(u.begin(), u.end(), u_.begin());
  std::copy(u_prev.begin(), u_prev.end(), u_prev_.begin());
  std::copy(dku_prev.begin(), dku_prev.end(), dku_prev_.begin());
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    receivers_[i].u.assign(k0, {});
    for (std::size_t s = 0; s < k0; ++s) {
      receivers_[i].u[s] = {rec[i][3 * s], rec[i][3 * s + 1],
                            rec[i][3 * s + 2]};
    }
  }
  return static_cast<int>(snap.step);
}

void ExplicitSolver::write_checkpoint(int step) const {
  QUAKE_OBS_SCOPE("checkpoint/write");
  util::Snapshot snap;
  snap.step = step;
  snap.add("u", u_);
  snap.add("u_prev", u_prev_);
  snap.add("dku_prev", dku_prev_);
  std::size_t doubles = u_.size() + u_prev_.size() + dku_prev_.size();
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    std::vector<double> flat;
    flat.reserve(3 * receivers_[i].u.size());
    for (const auto& s : receivers_[i].u) {
      flat.insert(flat.end(), s.begin(), s.end());
    }
    doubles += flat.size();
    snap.add("recv" + std::to_string(i), std::move(flat));
  }
  std::string err;
  if (!util::save_snapshot_rotating(checkpoint_path_, snap, checkpoint_keep_,
                                    &err)) {
    // Disk pressure is not fatal: the previous generation chain is intact,
    // so the run keeps going and simply has an older restore target.
    obs::counter_add("checkpoint/write_failures", 1);
    std::fprintf(stderr,
                 "[quake::solver] checkpoint write at step %d failed (%s); "
                 "continuing on previous snapshot\n",
                 step, err.c_str());
    return;
  }
  obs::counter_add("ckpt/writes", 1);
  obs::counter_add("ckpt/bytes_written",
                   static_cast<std::int64_t>(8 * doubles));
}

void ExplicitSolver::run(const SnapshotFn& snapshot, int snapshot_every) {
  QUAKE_OBS_SCOPE("solver/run");
  util::Timer timer;
  std::vector<double> v(snapshot ? op_->n_dofs() : 0);
  const int k0 = checkpoint_path_.empty() ? 0 : restore_checkpoint();
  if (k0 > 0) {
    obs::counter_add("ckpt/restores", 1);
    obs::counter_add("ckpt/restored_steps", k0);
  }
  for (int k = k0; k < n_steps_; ++k) {
    step(k);
    for (Receiver& r : receivers_) {
      const std::size_t base = 3 * static_cast<std::size_t>(r.node);
      r.u.push_back({u_[base], u_[base + 1], u_[base + 2]});
    }
    if (snapshot && snapshot_every > 0 && (k + 1) % snapshot_every == 0) {
      for (std::size_t d = 0; d < v.size(); ++d) {
        v[d] = (u_[d] - u_prev_[d]) / dt_;
      }
      snapshot(k + 1, (k + 1) * dt_, u_, v);
    }
    if (checkpoint_every_ > 0 && !checkpoint_path_.empty() &&
        (k + 1) % checkpoint_every_ == 0 && k + 1 < n_steps_) {
      write_checkpoint(k + 1);
    }
  }
  elapsed_ = timer.seconds();
}

void ExplicitSolver::reset() {
  std::fill(u_.begin(), u_.end(), 0.0);
  std::fill(u_prev_.begin(), u_prev_.end(), 0.0);
  std::fill(u_next_.begin(), u_next_.end(), 0.0);
  std::fill(f_.begin(), f_.end(), 0.0);
  std::fill(ku_.begin(), ku_.end(), 0.0);
  std::fill(dku_.begin(), dku_.end(), 0.0);
  std::fill(dku_prev_.begin(), dku_prev_.end(), 0.0);
  for (Receiver& r : receivers_) r.u.clear();
  elapsed_ = 0.0;
  flops_.clear();
}

double ExplicitSolver::energy() const {
  // The discrete energy that undamped central differences conserve exactly:
  //   E = 1/2 v_{k-1/2}^T M v_{k-1/2} + 1/2 u_k^T K u_{k-1},
  // with v_{k-1/2} = (u_k - u_{k-1}) / dt. (The staggered strain term is
  // what makes this invariant; 1/2 u^T K u oscillates at O(dt * omega).)
  const std::size_t nd = op_->n_dofs();
  const auto mass = op_->lumped_mass();
  double ek = 0.0;
  for (std::size_t d = 0; d < nd; ++d) {
    const double v = (u_[d] - u_prev_[d]) / dt_;
    ek += 0.5 * mass[d] * v * v;
  }
  std::vector<double> ku(nd, 0.0);
  op_->apply_stiffness(u_prev_, ku, {});
  double es = 0.0;
  for (std::size_t d = 0; d < nd; ++d) es += 0.5 * u_[d] * ku[d];
  return ek + es;
}

std::vector<double> ExplicitSolver::receiver_component(std::size_t r,
                                                       int comp) const {
  const auto& hist = receivers_.at(r).u;
  std::vector<double> out(hist.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = hist[i][static_cast<std::size_t>(comp)];
  }
  return out;
}

}  // namespace quake::solver

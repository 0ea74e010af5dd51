#pragma once

// Clustered local time stepping (LTS), part 2: the step scheduler.
//
// LtsSolver advances the same diagonalized central-difference recurrence as
// ExplicitSolver (eq. 2.4), but each node steps with its own power-of-two
// multiple of the base step: node n with rate p = 2^lg advances from u^k to
// u^{k+p} using dt_n = p * dt, and only at fine steps k divisible by p. The
// fine steps run in order on the two-level schedule of clustered LTS
// (Breuer & Heinecke, PAPERS.md): a rate-2^l window is two rate-2^(l-1)
// half-windows, with the coarser classes joining at the window head, which
// flattened is fine step k running the classes with 2^c | k.
//
// Interface handling is conservative and buffered through the state pair
// (u_prev, u): a stale node holds its last update's bracket
// u_prev = u^{k0}, u = u^{k0+p}, so the time-k field every active element
// reads is the linear interpolant u^k ~ u_prev + theta (u - u_prev),
// theta = (k - k0)/p. Interpolation commutes with the hanging-node
// projection B (it is linear, and a constraint group shares one cadence by
// construction — see clustering.hpp), so hanging nodes stay time-consistent
// with their masters at every fine step. The scheduling invariant that makes
// the sweep correct: when a node updates at fine step k, every element
// touching it is active at k (the element's class divides the node's rate,
// which divides k), so its stiffness partials are complete even though ku
// is rebuilt from zero each fine step. docs/LTS.md walks the argument.
//
// With one class (a uniform-rate mesh, or max_rate = 1) every branch
// degenerates to the global scheme and the run is bitwise identical to
// ExplicitSolver — the anchor tested in lts_test. Multi-rate runs agree
// with global-dt up to the scheme's accuracy tier (summation order and
// coarse-node step size necessarily differ); Rayleigh damping and
// checkpointing are out of scope and rejected at construction.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "quake/lts/clustering.hpp"
#include "quake/solver/explicit_solver.hpp"

namespace quake::lts {

class LtsSolver {
 public:
  // Throws std::invalid_argument when the operator has Rayleigh damping
  // enabled (the off-diagonal damping term couples u^{k-1} across rates).
  LtsSolver(const solver::ElasticOperator& op, const solver::SolverOptions& opt,
            const LtsOptions& lts);

  void add_source(const solver::SourceModel* src) { sources_.push_back(src); }
  std::size_t add_receiver(std::array<double, 3> position);

  void set_initial_conditions(std::span<const double> u0,
                              std::span<const double> v0);
  void set_fixed_components(std::array<bool, 3> fixed) { fixed_ = fixed; }

  void run();

  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] int n_steps() const { return n_steps_; }
  [[nodiscard]] const Clustering& clustering() const { return cl_; }
  [[nodiscard]] const std::vector<solver::Receiver>& receivers() const {
    return receivers_;
  }
  [[nodiscard]] std::vector<double> receiver_component(std::size_t r,
                                                       int comp) const;
  // Displacement field interpolated at t = n_steps * dt (every node's
  // bracket closes there; with one class this is the raw final field).
  [[nodiscard]] std::span<const double> displacement() const& {
    return u_final_;
  }
  std::span<const double> displacement() const&& = delete;

  // Measured element-kernel applications, and the headline ratio against
  // the global-dt scheme's n_steps * n_elements.
  [[nodiscard]] std::uint64_t element_updates() const {
    return element_updates_;
  }
  [[nodiscard]] std::uint64_t global_element_updates() const {
    return static_cast<std::uint64_t>(n_steps_) *
           static_cast<std::uint64_t>(cl_.elem_class_log2.size());
  }
  [[nodiscard]] double updates_saved_ratio() const {
    return element_updates_ > 0
               ? static_cast<double>(global_element_updates()) /
                     static_cast<double>(element_updates_)
               : 1.0;
  }
  [[nodiscard]] double elapsed_seconds() const { return elapsed_; }

 private:
  void substep(int k);  // fine step k: the classes with 2^c | k
  // Node n's bracket (u_prev, u) evaluated at fine step k_target.
  void bracket_at(std::size_t n, int k_target, double* out) const;

  const solver::ElasticOperator* op_;
  double dt_ = 0.0;
  int n_steps_ = 0;
  std::array<bool, 3> fixed_{false, false, false};
  Clustering cl_;

  // Per-class sweep lists (ascending element / boundary-face indices).
  std::vector<std::vector<mesh::ElemId>> elems_of_class_;
  std::vector<std::vector<std::int32_t>> faces_of_class_;
  // Per-rate node and constraint-group lists (by node_rate_log2).
  std::vector<std::vector<mesh::NodeId>> nodes_of_rate_;
  std::vector<std::vector<std::int32_t>> cons_of_rate_;
  // Per-dof 1 / lhs of eq. 2.4 at the node's step dt_n = 2^lg * dt.
  std::vector<double> inv_lhs_;

  std::vector<const solver::SourceModel*> sources_;
  std::vector<solver::Receiver> receivers_;

  std::vector<double> u_, u_prev_, un_, f_, ku_, u_final_;
  std::uint64_t element_updates_ = 0;
  double elapsed_ = 0.0;
};

}  // namespace quake::lts

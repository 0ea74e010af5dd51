#pragma once

// Explicit central-difference time integration of
//   M u'' + (C^AB + alpha M + beta K) u' + (K + K^AB) u = b
// using the paper's diagonalized update (eq. 2.4): the mass matrix and the
// boundary dashpots are lumped, the stiffness-proportional damping is split
// into diagonal and off-diagonal parts so the u^{k+1} coefficient stays
// diagonal, and hanging-node continuity is enforced by the projection
// B^T A B ubar = B^T b (eq. 2.5), which preserves both diagonality and the
// O(N) per-step complexity.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/flops.hpp"
#include "quake/util/timer.hpp"

namespace quake::solver {

struct SolverOptions {
  double dt = 0.0;            // time step [s]; 0 = choose from the CFL bound
  double cfl_fraction = 0.4;  // safety factor on min(h / vp)
  double t_end = 1.0;         // simulated duration [s]
};

struct Receiver {
  mesh::NodeId node;
  std::vector<std::array<double, 3>> u;  // displacement history
};

class ExplicitSolver {
 public:
  ExplicitSolver(const ElasticOperator& op, const SolverOptions& opt);

  // Sources are non-owning; they must outlive run().
  void add_source(const SourceModel* src) { sources_.push_back(src); }

  // Registers a receiver at the node nearest `position`; returns its index.
  std::size_t add_receiver(std::array<double, 3> position);

  // Optional initial state (defaults are quiescent). Both spans are
  // full-length (3 * n_nodes) displacement / velocity fields.
  void set_initial_conditions(std::span<const double> u0,
                              std::span<const double> v0);

  // Forces the given displacement components to zero at every node — the
  // component-mask device that makes 1D column verification problems exact
  // (see tests and the Fig 2.2 bench).
  void set_fixed_components(std::array<bool, 3> fixed) { fixed_ = fixed; }

  // Called every `every` steps when supplied to run().
  using SnapshotFn = std::function<void(int step, double t,
                                        std::span<const double> u,
                                        std::span<const double> v)>;

  void run(const SnapshotFn& snapshot = {}, int snapshot_every = 0);

  // Returns the solver to its just-constructed state so it can be reused
  // for another scenario on the same operator: quiescent state vectors,
  // empty receiver histories (receiver registrations are kept), zeroed
  // timing and flop accounting. Without this, a second run() continues
  // from the final displacement and appends to the first run's histories.
  void reset();

  // Checkpoint/restart: every `every` steps run() writes a CRC32-verified
  // binary snapshot of the integrator state (u, u_prev, dku_prev, receiver
  // histories) to `path` (atomically, via temp file + rename), and resumes
  // from `path` when it holds a valid snapshot. A restarted run is
  // bit-identical to an uninterrupted one. Pass every = 0 to disable
  // periodic writes while still resuming from an existing snapshot.
  // The last `keep` snapshot generations are retained (`path`, `path.1`,
  // ...); a write that fails (e.g. ENOSPC) is logged and counted
  // (`checkpoint/write_failures`) and the run continues with the previous
  // generation intact, and restore falls back through the generations.
  void set_checkpoint(std::string path, int every, int keep = 2);

  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] int n_steps() const { return n_steps_; }
  [[nodiscard]] const std::vector<Receiver>& receivers() const {
    return receivers_;
  }
  // Current displacement field.
  [[nodiscard]] std::span<const double> displacement() const& { return u_; }
  std::span<const double> displacement() const&& = delete;

  // Discrete energy 0.5 v^T M v + 0.5 u^T K u of the current state (v by
  // backward difference); used by the stability/energy-decay tests.
  [[nodiscard]] double energy() const;

  // Performance accounting for the scaling bench.
  [[nodiscard]] double elapsed_seconds() const { return elapsed_; }
  [[nodiscard]] std::uint64_t total_flops() const { return flops_.total(); }

  // One component of a receiver's history as a flat series.
  [[nodiscard]] std::vector<double> receiver_component(std::size_t r,
                                                       int comp) const;

 private:
  void step(int k);
  // Returns the step to resume from (0 when no valid snapshot exists).
  int restore_checkpoint();
  void write_checkpoint(int step) const;

  std::string checkpoint_path_;
  int checkpoint_every_ = 0;
  int checkpoint_keep_ = 2;

  const ElasticOperator* op_;
  SolverOptions opt_;
  double dt_ = 0.0;
  int n_steps_ = 0;
  std::array<bool, 3> fixed_{false, false, false};

  std::vector<const SourceModel*> sources_;
  std::vector<Receiver> receivers_;

  // State: u_ = u^k, u_prev_ = u^{k-1}; scratch vectors reused per step.
  std::vector<double> u_, u_prev_, u_next_, f_, ku_, dku_, dku_prev_;
  std::vector<double> inv_lhs_;

  double elapsed_ = 0.0;
  util::FlopCounter flops_;
};

}  // namespace quake::solver

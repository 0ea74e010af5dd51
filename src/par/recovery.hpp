#pragma once

// The fault-tolerance half of ParallelSetup::run: checkpoint cuts, buddy
// state donation, the per-neighbor outbound message log, and the three-tier
// recovery protocol (see FaultToleranceOptions and DESIGN.md "Localized
// recovery"). The step engine knows nothing of tiers or epochs. It hands
// its step loop to RankRecovery::run_epochs and calls back at four points:
//
//   at_frontier / sends_to — the replay frontier: whether the step-loop
//                            collectives and step k's post to a neighbor
//                            happen (after a tier-1 replay ranks execute
//                            different step ranges until they meet);
//   log                    — the outbound log, after each post;
//   step_done              — the checkpoint cut, after step k completes;
//   idle                   — the drain's idle pass, which absorbs donations.
//
// With fault tolerance disarmed each hook is one branch on a flag.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/util/checkpoint.hpp"
#include "quake/util/delta_codec.hpp"

namespace quake::par::detail {

// Communicator tag of the ghost exchange; a tier-1 replay re-serves logged
// payloads on it.
inline constexpr int kExchangeTag = 0;

// One run's fault-tolerance policy, derived once from FaultToleranceOptions
// and shared by every rank.
struct RecoveryPolicy {
  RecoveryPolicy(const FaultToleranceOptions& ft, int n_ranks, int n_steps);

  const FaultToleranceOptions& ft;
  int n_ranks;
  int n_steps;
  bool ckpt_on;    // per-rank snapshots in ft.checkpoint_dir
  bool in_place;   // in-place recovery (tiers 1 and 2) — needs snapshots
  bool donate_on;  // buddy state donation
  int ckpt_keep;   // snapshot generations kept per rank
  int log_cap;     // outbound log ring capacity in steps (0 = logging off)

  // Tier 3: runs `body` on every rank under the full-restart supervisor.
  // Installs this run's fault plan, comm timeout and recovery arming on
  // `comm`, retries on rank failure with exponential backoff (deadlocks are
  // deterministic program errors and surface immediately), and removes the
  // run's snapshots once it completes. Returns the in-place revivals used.
  int supervise(Communicator& comm,
                const std::function<void(Rank&)>& body) const;
};

// The per-rank solve state a checkpoint cut captures and a restore refills.
struct RankState {
  std::vector<double>& u;
  std::vector<double>& u_prev;
  std::vector<double>& dku_prev;
  // Every receiver's history; this rank reads and writes its own only.
  std::vector<std::vector<std::array<double, 3>>>& histories;
  const std::vector<std::pair<int, int>>& receivers;  // (receiver, local node)
};

// One rank's side of the recovery protocol. Lives in the rank thread's
// frame, so a rank that dies loses its shadow, held donation and message
// log, exactly like remote node memory.
class RankRecovery {
 public:
  // `edges` lists this rank's exchange neighbors as (rank, payload
  // doubles), ascending rank — the engine's neighbor order.
  RankRecovery(const RecoveryPolicy& policy, Rank& rank, RankState state,
               std::span<const std::pair<int, std::size_t>> edges);

  // The epoch loop. Restores (fresh start) or recovers (after a failure)
  // the state, runs `step_loop(k0)` — steps [k0, n_steps), returning the
  // step it stopped at — and then `finish(stop)`. On a rank failure with
  // in-place recovery armed it parks until the communicator is repaired
  // and takes another lap; otherwise the failure propagates to supervise().
  int run_epochs(const std::function<int(int)>& step_loop,
                 const std::function<void(int)>& finish);

  // Replay frontier. Step-loop collectives only happen at steps every rank
  // reaches, and step k is only posted to a neighbor that will consume it.
  // On an undisturbed run both are always true.
  [[nodiscard]] bool at_frontier(int k) const { return k >= frontier_; }
  [[nodiscard]] bool sends_to(int nb_rank, int k) const {
    return k >= start_of_[static_cast<std::size_t>(nb_rank)];
  }

  // Outbound log: keeps step k's payload to neighbor `nb` for replay.
  void log(std::size_t nb, int k, std::span<const double> payload) {
    if (policy_.log_cap > 0) msg_log_[nb].push(k, payload);
  }

  // State and receiver histories now describe step k: advances the resume
  // point and takes the checkpoint cut when one is due.
  void step_done(int k) {
    k_done_ = k;
    if (policy_.ckpt_on && policy_.ft.checkpoint_every > 0 &&
        (k + 1) % policy_.ft.checkpoint_every == 0 &&
        k + 1 < policy_.n_steps && k >= frontier_) {
      checkpoint_cut(k);
    }
    if (k + 1 < policy_.n_steps) k_progress_ = k + 1;
  }

  // Drain idle pass: absorb an in-flight buddy donation instead of spinning.
  void idle() {
    if (policy_.donate_on) absorb_donations();
  }

 private:
  struct DiskCand;

  void absorb_donations();
  std::vector<DiskCand> load_disk_candidates() const;
  void load_state(std::span<const double> u, std::span<const double> u_prev,
                  std::span<const double> dku_prev);
  void load_history(int ri, std::span<const double> flat, int step);
  void restore_from_disk(const DiskCand& cand);
  void restore_from_donation(int step);
  void capture_shadow(std::int64_t step);
  int attempt_restore(bool recovering, std::int64_t donated);
  int attempt_recover();
  void checkpoint_cut(int k);

  const RecoveryPolicy& policy_;
  Rank& rank_;
  RankState s_;
  const std::size_t nd_;
  const std::string path_;  // this rank's snapshot path
  const int buddy_;         // this rank donates to buddy_ = (r+1)%R
  const int pred_;          // and holds pred_ = (r-1)%R's donation
  std::vector<int> nb_rank_;

  // In-memory rollback target: the state at the last checkpoint cut.
  // Survivors roll back from it without touching disk.
  struct Shadow {
    std::int64_t step = -1;  // -1 = nothing captured yet
    std::vector<double> u, u_prev, dku_prev;
  } shadow_;

  // The predecessor's donated cut: [step | u | u_prev | dku_prev |
  // flattened owned histories], streamed back as-is on its revival.
  struct BuddyHeld {
    std::int64_t step = -1;  // -1 = holding nothing
    std::vector<double> state;
  } held_;
  std::vector<double> donation_buf_;

  // Per neighbor: the last log_cap posted payloads, delta-compressed.
  std::vector<util::DeltaRing> msg_log_;

  // Resume step of every rank after the last agreement; frontier_ is their
  // maximum. Both equal k0 on an undisturbed run.
  std::vector<int> start_of_;
  int frontier_ = 0;
  int k_done_ = -1;      // last fully completed step
  int k_progress_ = 0;   // the step a failure now would interrupt
  bool has_state_ = false;  // false on a respawned rank until restored
};

}  // namespace quake::par::detail

#include "recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "quake/obs/obs.hpp"
#include "quake/util/timer.hpp"

namespace quake::par::detail {
namespace {

// Communicator tag for survivor state donation: the buddy-capture shift
// exchange at each checkpoint barrier and the donation stream during
// recovery. Distinct from the ghost exchange (0) and the obs gather (9).
constexpr int kDonationTag = 10;

// A buddy-snapshot donation the victim could not use: the stream never
// arrived within the recovery deadline (donor dead or stalled mid-
// donation) or its payload failed the size/step integrity check. The
// victim votes its restore failed and every rank falls back to tier-2
// rollback, so a broken donation degrades the recovery by one tier instead
// of aborting it into a full restart.
class DonationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string ckpt_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ckpt";
}

// A snapshot is usable by this rank iff its step is inside the run and its
// state arrays match this rank's dof count and owned receiver set.
bool snapshot_usable(const util::Snapshot& s, std::size_t nd, int n_steps,
                     const std::vector<std::pair<int, int>>& receivers) {
  if (s.step < 1 || s.step >= n_steps) return false;
  if (s.field("u").size() != nd || s.field("u_prev").size() != nd ||
      s.field("dku_prev").size() != nd) {
    return false;
  }
  for (const auto& [ri, ln] : receivers) {
    if (s.field("recv" + std::to_string(ri)).size() !=
        3 * static_cast<std::size_t>(s.step)) {
      return false;
    }
  }
  return true;
}

}  // namespace

RecoveryPolicy::RecoveryPolicy(const FaultToleranceOptions& ft_in,
                               int n_ranks_in, int n_steps_in)
    : ft(ft_in),
      n_ranks(n_ranks_in),
      n_steps(n_steps_in),
      ckpt_on(!ft_in.checkpoint_dir.empty()),
      // In-place recovery needs snapshots to roll back to; without them
      // every failure goes straight to the full-restart supervisor.
      in_place(ckpt_on && ft_in.max_revives > 0),
      // Tier-1 machinery (buddy-shadow donation and the outbound message
      // log) only pays its cost when in-place recovery is armed.
      donate_on(in_place && ft_in.state_donation && n_ranks_in > 1),
      ckpt_keep(std::max(1, ft_in.checkpoint_keep)),
      // Auto capacity spans TWO checkpoint intervals: delta compression
      // (see util::DeltaRing) keeps the longer ring near the memory cost of
      // one uncompressed interval, and the extra reach keeps tier-1
      // feasible even when a buddy's held donation generation is one
      // interval stale (its absorb was cut short by the failure itself).
      log_cap(!in_place ? 0
                        : (ft_in.message_log_steps >= 0
                               ? ft_in.message_log_steps
                               : 2 * std::max(1, ft_in.checkpoint_every) + 8)) {
}

int RecoveryPolicy::supervise(
    Communicator& comm, const std::function<void(Rank&)>& body) const {
  if (ckpt_on) std::filesystem::create_directories(ft.checkpoint_dir);

  // Per-run fault policy on the shared communicator: install THIS run's plan
  // (or clear a previous run's), reset the timeout, and re-arm recovery —
  // comm.run() itself resets mailbox/barrier/poison state, so a request that
  // died last run leaves nothing behind for this one.
  if (ft.fault_plan != nullptr) {
    comm.install_fault_plan(*ft.fault_plan);
  } else {
    comm.clear_fault_plan();
  }
  comm.set_timeout(ft.timeout_seconds > 0.0 ? ft.timeout_seconds : 0.0);
  comm.set_recovery({in_place, ft.max_revives});

  // ---- supervised execution: rewind to the last checkpoint and retry on
  // rank failure, with exponential backoff; deadlocks are deterministic
  // program errors and surface immediately ----
  int attempt = 0;
  int revives_total = 0;
  for (;;) {
    try {
      comm.run(body);
      revives_total += comm.revives_used();
      break;
    } catch (const DeadlockError&) {
      throw;
    } catch (const RankFailedError&) {
      revives_total += comm.revives_used();
      if (attempt >= ft.max_retries) throw;
      if (ft.backoff_base_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            ft.backoff_base_seconds * std::ldexp(1.0, attempt)));
      }
      ++attempt;
    }
  }
  if (ckpt_on) {
    // The run completed; its snapshots are obsolete (and would otherwise
    // short-circuit an unrelated future run pointed at the same directory).
    for (int rr = 0; rr < n_ranks; ++rr) {
      const std::string path = ckpt_path(ft.checkpoint_dir, rr);
      for (int gen = 0; gen <= ckpt_keep; ++gen) {
        std::remove(util::snapshot_generation_path(path, gen).c_str());
      }
      std::remove((path + ".tmp").c_str());
    }
  }
  return revives_total;
}

RankRecovery::RankRecovery(const RecoveryPolicy& policy, Rank& rank,
                           RankState state,
                           std::span<const std::pair<int, std::size_t>> edges)
    : policy_(policy),
      rank_(rank),
      s_(state),
      nd_(state.u.size()),
      path_(ckpt_path(policy.ft.checkpoint_dir, rank.id())),
      buddy_((rank.id() + 1) % policy.n_ranks),
      pred_((rank.id() + policy.n_ranks - 1) % policy.n_ranks),
      start_of_(static_cast<std::size_t>(policy.n_ranks), 0) {
  obs::counter_add("ft/attempts", 1);
  if (rank.revived()) obs::counter_add("par/ranks_revived", 1);
  obs::gauge_set("par/epoch", static_cast<double>(rank.epoch()));
  nb_rank_.reserve(edges.size());
  for (const auto& [nb, doubles] : edges) {
    nb_rank_.push_back(nb);
    if (policy.log_cap > 0) msg_log_.emplace_back(doubles, policy.log_cap);
  }
}

// Non-blocking absorb of any donation parked on the pred edge; keeps the
// newest by header step. With
// async donation the stream is posted fire-and-forget (the barrier
// bracketing the capture guarantees it has landed); the step header is
// what lets the absorber date a payload it did not wait for, and the
// communicator's epoch fence discards any donation posted before a
// revival, so a stale pre-failure generation can never be absorbed after
// one (the absorb falls back to the previous absorbed generation, which
// the two-interval log ring still covers).
void RankRecovery::absorb_donations() {
  try {
    while (rank_.try_recv(pred_, kDonationTag, donation_buf_)) {
      if (donation_buf_.empty()) continue;
      const auto step = static_cast<std::int64_t>(donation_buf_[0]);
      if (step > held_.step) {
        held_.step = step;
        held_.state = std::move(donation_buf_);
        donation_buf_.clear();
      }
    }
  } catch (const RankFailedError&) {
    // The absorb is opportunistic, never a failure-detection point: with a
    // peer already down, simultaneous planned kills must still reach their
    // own fault points, and survivors' next REAL comm op sees the poison
    // anyway. Whatever was absorbed stands.
  }
}

// A retained disk generation that loads and fits this rank.
struct RankRecovery::DiskCand {
  util::Snapshot snap;
  // An older generation standing in for a newest one that failed its CRC
  // (what the generation-fallback counter counts).
  bool past_corrupt = false;
};

// Usable retained generations, newest first.
std::vector<RankRecovery::DiskCand> RankRecovery::load_disk_candidates()
    const {
  std::vector<DiskCand> d;
  bool newest_corrupt = false;
  for (int gen = 0; gen < policy_.ckpt_keep; ++gen) {
    util::Snapshot s;
    const util::SnapshotLoadStatus st = util::load_snapshot_status(
        util::snapshot_generation_path(path_, gen), &s);
    if (gen == 0 && st == util::SnapshotLoadStatus::kCorrupt) {
      newest_corrupt = true;
    }
    if (st == util::SnapshotLoadStatus::kOk &&
        snapshot_usable(s, nd_, policy_.n_steps, s_.receivers)) {
      d.push_back({std::move(s), newest_corrupt && gen > 0});
    }
  }
  return d;
}

void RankRecovery::capture_shadow(std::int64_t step) {
  shadow_.step = step;
  shadow_.u = s_.u;
  shadow_.u_prev = s_.u_prev;
  shadow_.dku_prev = s_.dku_prev;
}

// Overwrites the state vectors with a restored cut.
void RankRecovery::load_state(std::span<const double> u,
                              std::span<const double> u_prev,
                              std::span<const double> dku_prev) {
  std::copy(u.begin(), u.end(), s_.u.begin());
  std::copy(u_prev.begin(), u_prev.end(), s_.u_prev.begin());
  std::copy(dku_prev.begin(), dku_prev.end(), s_.dku_prev.begin());
}

// Overwrites receiver ri's history with the `step` samples in `flat`.
void RankRecovery::load_history(int ri, std::span<const double> flat,
                                int step) {
  auto& hist = s_.histories[static_cast<std::size_t>(ri)];
  hist.assign(static_cast<std::size_t>(step), {});
  for (std::size_t i = 0; i < hist.size(); ++i) {
    hist[i] = {flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]};
  }
}

// Restore this rank's vectors and owned histories from a full disk
// snapshot, seeding the rollback shadow with the restored cut.
void RankRecovery::restore_from_disk(const DiskCand& cand) {
  const util::Snapshot& s = cand.snap;
  const int k0 = static_cast<int>(s.step);
  load_state(s.field("u"), s.field("u_prev"), s.field("dku_prev"));
  for (const auto& [ri, ln] : s_.receivers) {
    load_history(ri, s.field("recv" + std::to_string(ri)), k0);
  }
  capture_shadow(k0);
  if (cand.past_corrupt) {
    // The newest generation existed but failed its CRC; the rotation chain
    // carried an older intact cut instead.
    obs::counter_add("checkpoint/generation_fallbacks", 1);
  }
}

// Receive the donated buddy snapshot from rank (r+1)%R and restore state +
// owned histories from it. The payload layout mirrors the capture in
// checkpoint_cut: [step | u | u_prev | dku_prev | flattened owned
// histories]. The wait is a non-blocking poll with a deadline rather than
// a blocking recv: a donor that dies mid-stream poisons the communicator
// and the poll throws RankFailedError, while a donor whose stream silently
// never arrives (dropped message, donor wedged) runs the poll into the
// deadline — the victim can no longer hang here. The deadline and any
// size/step mismatch throw DonationError, which the recovery agreement's
// confirmation round turns into a collective tier-2 fallback instead of
// aborting the recovery outright.
void RankRecovery::restore_from_donation(int step) {
  constexpr double kDonationWaitSeconds = 2.0;
  constexpr int kDonationYieldPasses = 64;
  std::vector<double> pay;
  const auto t0 = std::chrono::steady_clock::now();
  int passes = 0;
  for (;;) {
    if (rank_.try_recv(buddy_, kDonationTag, pay)) {
      if (!pay.empty() && static_cast<std::int64_t>(pay[0]) == step) {
        break;
      }
      // A leftover generation on this edge (the epoch fence already
      // dropped anything from before the revival): discard, keep draining
      // — the donor streams the advertised step behind it.
      continue;
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (waited > kDonationWaitSeconds) {
      obs::scope_record("recover/donate/wait", waited);
      throw DonationError(
          "state donation to rank " + std::to_string(rank_.id()) +
          " from donor " + std::to_string(buddy_) + " missed the " +
          std::to_string(kDonationWaitSeconds) + " s recovery deadline");
    }
    if (++passes < kDonationYieldPasses) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  obs::scope_record(
      "recover/donate/wait",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  const std::size_t want = 1 + 3 * nd_ +
                           3 * static_cast<std::size_t>(step) *
                               s_.receivers.size();
  if (pay.size() != want) {
    throw DonationError("state donation payload mismatch on rank " +
                        std::to_string(rank_.id()) + ": got " +
                        std::to_string(pay.size()) + " doubles, expected " +
                        std::to_string(want));
  }
  const std::span<const double> p(pay);
  load_state(p.subspan(1, nd_), p.subspan(1 + nd_, nd_),
             p.subspan(1 + 2 * nd_, nd_));
  std::size_t off = 1 + 3 * nd_;
  for (const auto& [ri, ln] : s_.receivers) {
    load_history(ri, p.subspan(off), step);
    off += 3 * static_cast<std::size_t>(step);
  }
  capture_shadow(step);
  obs::counter_add("par/donation_restores", 1);
}

// ---- checkpoint restore: agree on a common restart step ------------------
// Each rank proposes its newest usable state — the in-memory shadow if it
// has one, a donated buddy snapshot offered by the caller, or the newest
// usable snapshot among its retained generations; the collective restart
// step is the minimum proposal, and a second round confirms every rank can
// serve it. On a fresh start a disagreement falls back to from-scratch
// (always correct, at worst wasteful); during an in-place recovery it
// throws UnrecoverableError instead, handing the failure to the
// full-restart supervisor (an in-place from-scratch "resume" would silently
// discard survivors' progress). Every rank resumes at the returned step.
int RankRecovery::attempt_restore(bool recovering, std::int64_t donated) {
  int k0 = 0;
  if (policy_.ckpt_on) {
    std::optional<obs::ScopeTimer> agree_scope;
    if (recovering) agree_scope.emplace("agree");
    const std::vector<DiskCand> disk = load_disk_candidates();
    double proposal =
        shadow_.step >= 1 ? static_cast<double>(shadow_.step) : -1.0;
    if (donated >= 1) {
      proposal = std::max(proposal, static_cast<double>(donated));
    }
    for (const DiskCand& c : disk) {
      proposal = std::max(proposal, static_cast<double>(c.snap.step));
    }
    const double agreed = rank_.allreduce_min(proposal);
    const bool from_shadow =
        shadow_.step >= 1 && static_cast<double>(shadow_.step) == agreed;
    const bool from_donation = !from_shadow && donated >= 1 &&
                               static_cast<double>(donated) == agreed;
    const DiskCand* chosen = nullptr;
    if (!from_shadow && !from_donation) {
      for (const DiskCand& c : disk) {
        if (static_cast<double>(c.snap.step) == agreed) {
          chosen = &c;
          break;
        }
      }
    }
    const double all_can = rank_.allreduce_min(
        agreed >= 1.0 && (from_shadow || from_donation || chosen != nullptr)
            ? 1.0
            : 0.0);
    if (all_can == 1.0 && recovering) {
      // Donors need to know which revived ranks restore by donation: rank
      // (v+1)%R streams what it holds when v asks for it.
      const std::vector<double> wants =
          rank_.allgather(from_donation ? 1.0 : 0.0);
      if (policy_.donate_on && wants[static_cast<std::size_t>(pred_)] == 1.0) {
        rank_.send(pred_, kDonationTag, held_.state);
        obs::counter_add("par/donations_served", 1);
      }
    }
    agree_scope.reset();
    if (all_can == 1.0) {
      std::optional<obs::ScopeTimer> restore_scope;
      if (recovering) restore_scope.emplace("restore");
      k0 = static_cast<int>(agreed);
      if (from_shadow) {
        load_state(shadow_.u, shadow_.u_prev, shadow_.dku_prev);
        // Histories are append-only and bit-identical across replays:
        // rolling back is a truncation.
        for (const auto& [ri, ln] : s_.receivers) {
          s_.histories[static_cast<std::size_t>(ri)].resize(
              static_cast<std::size_t>(k0));
        }
      } else if (from_donation) {
        try {
          restore_from_donation(k0);
        } catch (const DonationError& e) {
          // Tier 2 already is the fallback: with the donation agreed on as
          // the only common state, losing it leaves nothing to roll back to
          // — hand the failure to the full-restart supervisor.
          throw UnrecoverableError(std::string("rollback restore: ") +
                                   e.what());
        }
      } else {
        restore_from_disk(*chosen);
      }
    } else if (recovering) {
      throw UnrecoverableError(
          "in-place recovery: no usable common checkpoint (agreed step " +
          std::to_string(static_cast<long long>(agreed)) +
          "), falling back to full restart");
    }
  } else if (recovering) {
    throw UnrecoverableError(
        "in-place recovery without checkpointing, falling back");
  }
  if (k0 > 0) {
    obs::counter_add("ckpt/restores", 1);
    obs::counter_add("ckpt/restored_steps", k0);
  } else {
    // Fresh (or retried-from-scratch) start: drop any partial histories a
    // failed attempt appended to this rank's owned receivers.
    for (const auto& [ri, ln] : s_.receivers) {
      s_.histories[static_cast<std::size_t>(ri)].clear();
    }
  }
  has_state_ = true;
  // Every rank resumes at k0: nothing to replay, nothing left to re-serve.
  for (auto& ring : msg_log_) ring.clear();
  std::fill(start_of_.begin(), start_of_.end(), k0);
  frontier_ = k0;
  return k0;
}

// ---- three-tier recovery agreement (see DESIGN.md "Localized recovery").
// Tier 1: the victim restores a donated (or disk) snapshot and replays
// forward on logged messages while survivors keep their state — zero
// survivor rollback. Tier 2: the log cannot cover the replay span, so
// everyone rolls back to the newest common state via attempt_restore (the
// victim's proposal still includes the donated step). Tier 3 is
// attempt_restore throwing UnrecoverableError into the full-restart
// supervisor. Returns this rank's resume step and fills start_of_ /
// frontier_. ----
int RankRecovery::attempt_recover() {
  const bool victim = !has_state_;
  const bool log_on = policy_.log_cap > 0;
  // A donation posted before the failure may still sit unabsorbed on the
  // pred edge: absorb it now — try_recv's epoch fence discards anything
  // stamped before the revival, so only a cut donated in this epoch (i.e.
  // by a surviving pred re-streaming) can land here, and the inventory
  // round below advertises whatever newest generation this rank actually
  // holds.
  if (policy_.donate_on) absorb_donations();
  std::optional<obs::ScopeTimer> agree_scope(std::in_place, "agree");
  // Round 1: donation inventory. Every rank advertises the step it holds
  // for its predecessor; victim v reads slot (v+1)%R.
  const std::vector<double> held_steps = rank_.allgather(
      policy_.donate_on ? static_cast<double>(held_.step) : -1.0);
  std::int64_t donated = -1;
  if (victim && held_steps[static_cast<std::size_t>(buddy_)] >= 1.0) {
    donated =
        static_cast<std::int64_t>(held_steps[static_cast<std::size_t>(buddy_)]);
  }

  // Each victim picks its replay source: the donated snapshot if one is
  // held (a victim whose buddy died with it falls to disk — the buddy's
  // fresh thread advertises -1), else its newest full disk generation.
  // Survivors resume where they stopped (k_done_ + 1) without touching
  // their state.
  std::int64_t my_start = -1;
  bool use_donation = false;
  std::optional<DiskCand> disk_pick;
  if (!victim) {
    my_start = k_done_ + 1;
  } else if (log_on) {
    use_donation = donated >= 1;
    my_start = donated;
    if (!use_donation) {
      for (DiskCand& c : load_disk_candidates()) {
        if (c.snap.step > my_start) {
          my_start = c.snap.step;
          disk_pick = std::move(c);
        }
      }
    }
  }

  // Round 2: roles (0 = survivor, 1 = victim restoring by donation — its
  // buddy must stream — 2 = victim restoring from disk). Round 3: per-rank
  // resume points. With simultaneous multi-rank failures every rank learns
  // the whole victim set here, so survivors serve each victim's replay span
  // independently.
  const std::vector<double> roles =
      rank_.allgather(victim ? (use_donation ? 1.0 : 2.0) : 0.0);
  const std::vector<double> starts =
      rank_.allgather(static_cast<double>(my_start));
  int n_victims = 0;
  for (const double role : roles) {
    if (role != 0.0) ++n_victims;
  }

  // Tier-1 feasibility: every rank must be able to re-serve, from its
  // outbound log, every step a behind neighbor will re-consume (steps
  // [start_of[neighbor], my resume point) per edge). This is also what
  // gates OVERLAPPING victims: a ghost edge between two victims at the SAME
  // resume step has an empty span on both sides (they regenerate each
  // other's messages live while marching forward together), but victims at
  // different resume steps would need a span no fresh thread's empty log
  // can serve, so those degrade to tier-2 rollback.
  bool ok = log_on && my_start >= 0;
  for (std::size_t s = 0; ok && s < starts.size(); ++s) {
    ok = starts[s] >= 0.0;
  }
  for (std::size_t nb = 0; ok && nb < nb_rank_.size(); ++nb) {
    const int lo =
        static_cast<int>(starts[static_cast<std::size_t>(nb_rank_[nb])]);
    for (int k = lo; ok && k < static_cast<int>(my_start); ++k) {
      ok = msg_log_[nb].contains(k);
    }
  }
  const bool all_ok = rank_.allreduce_min(ok ? 1.0 : 0.0) == 1.0;

  if (!all_ok) {
    // Tier 2: donation-aware rollback.
    agree_scope.reset();
    obs::counter_add("par/replay_fallbacks", 1);
    return attempt_restore(/*recovering=*/true, donated);
  }

  // Tier 1. Donors stream what they hold; victims restore; survivors keep
  // their current state.
  if (policy_.donate_on && roles[static_cast<std::size_t>(pred_)] == 1.0) {
    rank_.send(pred_, kDonationTag, held_.state);
    obs::counter_add("par/donations_served", 1);
  }
  agree_scope.reset();
  bool restore_ok = true;
  {
    std::optional<obs::ScopeTimer> restore_scope(std::in_place, "restore");
    if (victim) {
      try {
        if (use_donation) {
          restore_from_donation(static_cast<int>(my_start));
        } else {
          restore_from_disk(*disk_pick);
        }
        obs::counter_add("ckpt/restores", 1);
        obs::counter_add("ckpt/restored_steps",
                         static_cast<std::int64_t>(my_start));
        has_state_ = true;
      } catch (const DonationError& e) {
        // Broken donation (missed deadline, bad size/step): vote the
        // restore down instead of aborting — every rank degrades to tier-2
        // together in the confirmation round below.
        std::fprintf(stderr, "[quake::par] rank %d: %s\n", rank_.id(),
                     e.what());
        restore_ok = false;
      }
    }
  }
  // Confirmation round, BEFORE any log is served: had a victim's restore
  // failed after survivors already re-served their logs, the replayed
  // messages would sit in FIFO order ahead of the tier-2 resume's live
  // traffic and corrupt it. Only a unanimous restore lets replay proceed.
  if (rank_.allreduce_min(restore_ok ? 1.0 : 0.0) != 1.0) {
    obs::counter_add("par/replay_fallbacks", 1);
    return attempt_restore(/*recovering=*/true, /*donated=*/-1);
  }
  {
    std::optional<obs::ScopeTimer> replay_scope(std::in_place, "replay");
    for (std::size_t s = 0; s < starts.size(); ++s) {
      start_of_[s] = static_cast<int>(starts[s]);
    }
    frontier_ = 0;
    for (const int s : start_of_) frontier_ = std::max(frontier_, s);
    // Re-serve the log in ascending step order per edge, before any live
    // post of this epoch: tagged FIFO delivery plus the epoch fence hands
    // each behind rank exactly the message sequence it would have received
    // from an undisturbed peer. With several victims each edge's span is
    // decoded and served independently.
    for (std::size_t nb = 0; nb < nb_rank_.size(); ++nb) {
      const int m = nb_rank_[nb];
      msg_log_[nb].for_each(start_of_[static_cast<std::size_t>(m)],
                            static_cast<int>(my_start),
                            [&](int /*step*/, std::span<const double> payload) {
                              rank_.send(m, kExchangeTag, payload);
                            });
    }
    if (victim) {
      obs::counter_add("par/steps_replayed",
                       frontier_ - static_cast<int>(my_start));
    }
    // Counted once per recovery event (rank 0 speaks for the agreement),
    // not per rank, so the summed counter reads as "how many times did a
    // single tier-1 pass repair several ranks".
    if (n_victims >= 2 && rank_.id() == 0) {
      obs::counter_add("par/multi_victim_replays", 1);
    }
  }
  return static_cast<int>(my_start);
}

// ---- periodic snapshot, barrier-bracketed so the per-rank files of a
// checkpoint generation form a consistent cut. Suppressed below the replay
// frontier (see step_done): a catching-up rank re-crosses checkpoint steps
// the ahead ranks already took, and the barriers only match once all ranks
// reach the step together ----
void RankRecovery::checkpoint_cut(int k) {
  QUAKE_OBS_SCOPE("checkpoint");
  rank_.barrier();
  util::Snapshot snap;
  snap.step = k + 1;
  snap.add("u", s_.u);
  snap.add("u_prev", s_.u_prev);
  snap.add("dku_prev", s_.dku_prev);
  std::size_t ckpt_doubles =
      s_.u.size() + s_.u_prev.size() + s_.dku_prev.size();
  for (const auto& [ri, ln] : s_.receivers) {
    const auto& hist = s_.histories[static_cast<std::size_t>(ri)];
    std::vector<double> flat;
    flat.reserve(3 * hist.size());
    for (const auto& s : hist) flat.insert(flat.end(), s.begin(), s.end());
    ckpt_doubles += flat.size();
    snap.add("recv" + std::to_string(ri), std::move(flat));
  }
  std::string ckpt_err;
  bool saved = false;
  // Transient disk pressure often clears within milliseconds; retry the
  // write twice with a short backoff before declaring it failed.
  for (int a = 0; a < 3 && !saved; ++a) {
    if (a > 0) {
      obs::counter_add("checkpoint/write_retries", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << (a - 1)));
    }
    saved = util::save_snapshot_rotating(path_, snap, policy_.ckpt_keep,
                                         &ckpt_err);
  }
  if (saved) {
    obs::counter_add("ckpt/writes", 1);
    obs::counter_add("ckpt/bytes_written",
                     static_cast<std::int64_t>(8 * ckpt_doubles));
  } else {
    // Persistent disk pressure (ENOSPC, permissions) is survivable: the
    // rotation left the previous generation intact as the restore target,
    // so count it, say so, and keep solving.
    obs::counter_add("checkpoint/write_failures", 1);
    std::fprintf(stderr,
                 "[quake::par] rank %d: checkpoint write at step %d failed "
                 "(%s); continuing on previous snapshot\n",
                 rank_.id(), k + 1, ckpt_err.c_str());
  }
  // The in-memory rollback shadow tracks the snapshot cadence even when the
  // disk write fails — survivors roll back from memory, disk only serves
  // the revived rank.
  capture_shadow(k + 1);
  // ---- survivor state donation: every rank streams this cut ([step |
  // state | owned histories], self-contained for a restore) to its buddy
  // (r+1)%R and holds its predecessor's in thread-local memory. Sends are
  // mailbox posts, so the ring-shift exchange cannot deadlock; both
  // barriers bracketing this block guarantee the capture either completes
  // on every rank or on none ----
  if (policy_.donate_on) {
    std::vector<double> pay;
    pay.reserve(1 + 3 * nd_ +
                3 * static_cast<std::size_t>(k + 1) * s_.receivers.size());
    pay.push_back(static_cast<double>(k + 1));
    pay.insert(pay.end(), s_.u.begin(), s_.u.end());
    pay.insert(pay.end(), s_.u_prev.begin(), s_.u_prev.end());
    pay.insert(pay.end(), s_.dku_prev.begin(), s_.dku_prev.end());
    for (const auto& [ri, ln] : s_.receivers) {
      const auto flat = snap.field("recv" + std::to_string(ri));
      pay.insert(pay.end(), flat.begin(), flat.end());
    }
    rank_.send(buddy_, kDonationTag, pay);
    // Asynchronous absorb: the closing barrier below proves pred's send
    // already landed in this rank's mailbox, so the post-barrier drain is
    // non-blocking and the measured wait is ~0. (Absorbing may also have
    // happened opportunistically in the drain's idle passes.)
    rank_.barrier();
    util::StopWatch w;
    w.start();
    absorb_donations();
    w.stop();
    obs::scope_record("recover/donate/wait", w.total_seconds());
  } else {
    rank_.barrier();
  }
  // Message-log ring reset point: everything before this cut can be
  // restored by donation or disk, so only steps >= k+1 ever need replaying.
  // (The ring capacity already enforces the bound; no explicit trim is
  // needed for correctness.)
}

// ---- epoch loop: solve; on a rank failure (in-place recovery armed) park
// until the communicator is repaired, then roll back and replay. Survivors
// keep their partition, ghost plans, and exchange buffers — nothing the
// engine set up before this loop is re-run on a recovery. ----
int RankRecovery::run_epochs(const std::function<int(int)>& step_loop,
                             const std::function<void(int)>& finish) {
  int last_fail_step = -1;  // k_progress_ at the most recent local failure
  bool recovering = rank_.revived();  // respawned ranks join mid-recovery
  for (;;) {
    try {
      int k0 = 0;
      if (recovering) {
        QUAKE_OBS_SCOPE("recover");
        obs::gauge_set("par/epoch", static_cast<double>(rank_.epoch()));
        // Recovery-phase fault point: a planned Kill with step =
        // INT_MIN + epoch dies during this recovery (see FaultPlan).
        rank_.fault_point(std::numeric_limits<int>::min() +
                          static_cast<int>(rank_.epoch()));
        k0 = attempt_recover();
        {
          // Rendezvous before re-entering the step loop; this scope's time
          // is the wait for the slowest rank's restore (usually the revived
          // rank taking its donated snapshot off the wire).
          QUAKE_OBS_SCOPE("resume");
          rank_.barrier();
        }
        if (last_fail_step >= 0) {
          // Zero on the tier-1 replay path by construction: a survivor
          // resumes at k_done_ + 1, exactly where it stopped.
          obs::counter_add("par/steps_rolled_back",
                           std::max(0, last_fail_step - k0));
        }
        recovering = false;
      } else {
        k0 = attempt_restore(/*recovering=*/false, /*donated=*/-1);
      }
      k_done_ = k0 - 1;
      k_progress_ = k0;
      const int stop_k = step_loop(k0);
      if (policy_.log_cap > 0) {
        // Compressed vs raw footprint of the tier-1 message-log rings:
        // stored = delta-encoded bytes actually held, raw = what the same
        // span would cost uncompressed. The ratio is the compression the
        // doubled ring capacity is funded by.
        std::size_t stored = 0, raw = 0;
        for (const auto& ring : msg_log_) {
          stored += ring.stored_bytes();
          raw += ring.raw_bytes();
        }
        obs::gauge_set("par/log_bytes", static_cast<double>(stored));
        obs::gauge_set("par/log_raw_bytes", static_cast<double>(raw));
      }
      finish(stop_k);
      return stop_k;
    } catch (const RankFailedError&) {
      // A peer died. With in-place recovery armed, park this thread — state
      // intact — until the communicator's monitor revives the dead rank,
      // then take another lap through the restore agreement. Otherwise (or
      // when recovery is abandoned) rethrow into the full-restart
      // supervisor.
      if (!policy_.in_place) throw;
      last_fail_step = k_progress_;
      if (!rank_.await_recovery()) throw;
      obs::counter_add("par/recoveries", 1);
      recovering = true;
    }
  }
}

}  // namespace quake::par::detail

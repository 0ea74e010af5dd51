#include "quake/par/parallel_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "quake/fem/hex_element.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/par/communicator.hpp"
#include "quake/util/timer.hpp"
#include "recovery.hpp"

namespace quake::par {
namespace {

struct LocalConstraint {
  int node;
  std::array<int, 8> masters;
  std::array<double, 8> weights;
  int n;
};

struct Neighbor {
  int rank;
  std::vector<int> shared;  // local node indices, ascending global id
};

// Everything a rank needs that depends only on the discretization — built
// serially in ParallelSetup's constructor and shared (immutably, except the
// exchange buffers) by every solve through that setup. Per-scenario state
// (displacement vectors, receiver assignments, histories) lives in
// ParallelSetup::Impl::run so requests are isolated from each other.
struct RankLocal {
  std::vector<mesh::ElemId> elems;
  std::vector<mesh::NodeId> nodes;  // sorted global ids
  std::unordered_map<mesh::NodeId, int> local_of;
  std::vector<std::array<int, 8>> conn;
  struct Face {
    int elem;  // index into `elems`
    mesh::BoundarySide side;
  };
  std::vector<Face> faces;
  std::vector<LocalConstraint> cons;
  std::vector<double> mass, am, bk, cab, inv_lhs;  // per local dof
  std::vector<std::uint8_t> owned;                 // per local node
  std::vector<Neighbor> neighbors;                 // ascending rank
  std::vector<int> all_shared;                     // union of neighbor lists

  // Communication-hiding split (see the step loop): an element/face/
  // constraint is "boundary" iff it can contribute to a shared-node partial
  // — directly, or through the hanging-node fold into a shared master. The
  // boundary pieces are computed before the exchange is posted; everything
  // interior runs while the messages are in flight. Each list preserves the
  // original relative order, so per-rank partials stay bit-identical to an
  // unsplit sweep.
  std::vector<int> boundary_elems, interior_elems;  // indices into `elems`
  std::vector<Face> boundary_faces, interior_faces;
  std::vector<LocalConstraint> cons_boundary, cons_interior;

  // Persistent exchange storage: send/recv buffers per neighbor and the
  // first-occurrence map for re-inserting this rank's own partials, all
  // sized at setup so the step loop performs no heap allocation. These are
  // the one mutable piece of shared state, which is why runs through a
  // setup are serialized.
  std::vector<std::vector<double>> sendbuf, recvbuf;
  std::vector<std::vector<int>> own_first;  // per neighbor: first-occurrence
                                            // indices into its shared list
  std::vector<int> nb_of_rank;              // rank -> neighbor index or -1
  std::size_t doubles_per_step = 0;         // exchange volume, setup-derived

  // Per-neighbor arrival flags for the arrival-order drain, reset each
  // step; lives here (not on the step-loop stack) so the steady-state step
  // performs no allocation.
  std::vector<std::uint8_t> nb_arrived;
};

// ForceSink that keeps only this rank's nodes.
class RankForceSink final : public solver::ForceSink {
 public:
  RankForceSink(const std::unordered_map<mesh::NodeId, int>& local_of,
                std::vector<double>& f)
      : local_of_(&local_of), f_(&f) {}
  void add(mesh::NodeId node, int comp, double value) override {
    auto it = local_of_->find(node);
    if (it == local_of_->end()) return;
    (*f_)[3 * static_cast<std::size_t>(it->second) +
          static_cast<std::size_t>(comp)] += value;
  }

 private:
  const std::unordered_map<mesh::NodeId, int>* local_of_;
  std::vector<double>* f_;
};

// Communicator tag reserved for the end-of-run telemetry gather (the ghost
// exchange uses tag 0; receiving on a distinct tag keeps the two streams
// from interleaving).
constexpr int kObsGatherTag = 9;

// A sweep list grouped by rate class: class 0's entries, then class 1's,
// and so on, each group in the list's original order. end[c] is one past
// class c's group, so the entries of every class c <= cap (the classes a
// fine step with cadence cap `cap` runs) are the prefix [0, end[cap]).
template <class T>
struct ByClass {
  std::span<const T> items;
  std::vector<std::size_t> end;

  // The whole list as the single class 0.
  static ByClass whole(std::span<const T> all) { return {all, {all.size()}}; }

  [[nodiscard]] std::span<const T> upto(int cap) const {
    return items.first(end[static_cast<std::size_t>(cap)]);
  }
  [[nodiscard]] std::span<const T> group(int c) const {
    const std::size_t b = c == 0 ? 0 : end[static_cast<std::size_t>(c) - 1];
    return items.subspan(b, end[static_cast<std::size_t>(c)] - b);
  }
};

// Stable counting sort of `items` by class into `store`; returns the
// grouped view of `store`.
template <class T, class ClassOf>
ByClass<T> group_by_class(std::span<const T> items, std::size_t n_classes,
                          ClassOf class_of, std::vector<T>& store) {
  std::vector<std::size_t> end(n_classes, 0), next(n_classes, 0);
  for (const T& x : items) ++end[class_of(x)];
  for (std::size_t c = 1; c < n_classes; ++c) {
    next[c] = next[c - 1] + end[c - 1];
  }
  for (std::size_t c = 0; c < n_classes; ++c) end[c] += next[c];
  store.resize(items.size());
  for (const T& x : items) store[next[class_of(x)]++] = x;
  return {store, std::move(end)};
}

// One rank's class schedule: every list the step engine walks, grouped by
// rate class. Fine step k runs the classes (compute cadence) and rates
// (update cadence) lg <= Clustering::active_cap(n_classes, k), in
// ascending lg. Under one class every list is RankLocal's own, whole and in
// the original order, and the step is exactly the global-dt step.
struct RankSchedule {
  // Compute classes: the boundary/interior split, per class.
  ByClass<int> bnd_elems, int_elems;
  ByClass<RankLocal::Face> bnd_faces, int_faces;
  // Node rates: the local nodes each rate updates (unused under one class,
  // which updates every dof in order), the constraint groups it expands (a
  // group shares one rate by the clustering fold), and the shared nodes
  // re-zeroed after its post.
  ByClass<int> nodes;
  ByClass<LocalConstraint> cons;
  ByClass<int> shared;
  // Per neighbor: the shared local nodes in message order, rate-major — a
  // step-k message carries 3 doubles per node of the active-rate prefix,
  // and both sides derive the same layout from the same global rates, so
  // lengths and node order agree without any handshake — and the message
  // slots of this rank's own first-occurrence partials.
  std::vector<ByClass<int>> msg, own;
  // Per dof: 1 / lhs of eq. 2.4 at the node's own step 2^lg * dt.
  std::span<const double> inv_lhs;
  // Per local node: its rate lg; empty under one class (every lg is 0).
  std::span<const std::uint8_t> node_lg;
};

// The global-dt schedule: views of RankLocal's own lists, nothing copied.
RankSchedule single_class_schedule(const RankLocal& L) {
  RankSchedule s;
  s.bnd_elems = ByClass<int>::whole(L.boundary_elems);
  s.int_elems = ByClass<int>::whole(L.interior_elems);
  s.bnd_faces = ByClass<RankLocal::Face>::whole(L.boundary_faces);
  s.int_faces = ByClass<RankLocal::Face>::whole(L.interior_faces);
  s.cons = ByClass<LocalConstraint>::whole(L.cons);
  s.shared = ByClass<int>::whole(L.all_shared);
  for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
    s.msg.push_back(ByClass<int>::whole(L.neighbors[nb].shared));
    s.own.push_back(ByClass<int>::whole(L.own_first[nb]));
  }
  s.inv_lhs = L.inv_lhs;
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParallelSetup: the amortizable half of run_parallel. The constructor is
// the old serial setup phase verbatim (operator, ghost sets with constraint
// closure, neighbor lists, boundary/interior split, exchange buffers); run()
// is the SPMD step engine with all per-scenario state hoisted into
// run-local variables.
// ---------------------------------------------------------------------------

struct ParallelSetup::Impl {
  const mesh::HexMesh& mesh;
  const Partition& part;
  const solver::OperatorOptions op_opt;
  const solver::ElasticOperator op;
  const int R;
  const bool rayleigh;
  const double dt;
  const double cfl;
  std::vector<RankLocal> locals;
  Communicator comm;
  std::mutex run_mutex;  // exchange buffers are shared: one solve at a time

  Impl(const mesh::HexMesh& mesh_in, const Partition& part_in,
       const solver::OperatorOptions& oo, const solver::SolverOptions& base)
      : mesh(mesh_in),
        part(part_in),
        op_opt(oo),
        op(mesh_in, oo),
        R(part_in.n_ranks),
        rayleigh(oo.rayleigh),
        dt(base.dt > 0.0 ? base.dt : op.stable_dt(base.cfl_fraction)),
        cfl(base.cfl_fraction),
        comm(part_in.n_ranks) {
    // ---- per-rank node sets with constraint closure ------------------------
    std::vector<std::vector<std::uint8_t>> has_node(
        static_cast<std::size_t>(R),
        std::vector<std::uint8_t>(mesh.n_nodes(), 0));
    for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
      auto& flags = has_node[static_cast<std::size_t>(part.elem_rank[e])];
      for (mesh::NodeId n : mesh.elem_nodes[e]) {
        flags[static_cast<std::size_t>(n)] = 1;
      }
    }
    // Ghost the masters of every locally-touched hanging node. Constraint
    // accumulation (B^T) is linear, so each rank applies it to its own partial
    // sums BEFORE the exchange; a rank that holds a master but not the hanging
    // node receives the folded contribution through the master's exchanged
    // partials, and no transitive closure is needed (keeping ghost sets — and
    // hence communication volume — proportional to the partition surface).
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      auto& flags = has_node[r];
      for (const mesh::Constraint& c : mesh.constraints) {
        if (flags[static_cast<std::size_t>(c.node)] == 0) continue;
        for (int m = 0; m < c.n_masters; ++m) {
          flags[static_cast<std::size_t>(
              c.masters[static_cast<std::size_t>(m)])] = 1;
        }
      }
    }

    locals.resize(static_cast<std::size_t>(R));
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      RankLocal& L = locals[r];
      L.elems = part.rank_elems[r];
      for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
        if (has_node[r][n] != 0) {
          L.local_of.emplace(static_cast<mesh::NodeId>(n),
                             static_cast<int>(L.nodes.size()));
          L.nodes.push_back(static_cast<mesh::NodeId>(n));
        }
      }
      L.conn.reserve(L.elems.size());
      for (mesh::ElemId e : L.elems) {
        std::array<int, 8> c;
        for (int i = 0; i < 8; ++i) {
          c[static_cast<std::size_t>(i)] = L.local_of.at(
              mesh.elem_nodes[static_cast<std::size_t>(e)]
                             [static_cast<std::size_t>(i)]);
        }
        L.conn.push_back(c);
      }
      for (const mesh::BoundaryFace& bf : mesh.boundary_faces) {
        if (part.elem_rank[static_cast<std::size_t>(bf.elem)] !=
            static_cast<int>(r)) {
          continue;
        }
        const auto it =
            std::lower_bound(L.elems.begin(), L.elems.end(), bf.elem);
        L.faces.push_back({static_cast<int>(it - L.elems.begin()), bf.side});
      }
      for (const mesh::Constraint& c : mesh.constraints) {
        auto it = L.local_of.find(c.node);
        if (it == L.local_of.end()) continue;
        LocalConstraint lc;
        lc.node = it->second;
        lc.n = c.n_masters;
        for (int m = 0; m < c.n_masters; ++m) {
          lc.masters[static_cast<std::size_t>(m)] =
              L.local_of.at(c.masters[static_cast<std::size_t>(m)]);
          lc.weights[static_cast<std::size_t>(m)] =
              c.weights[static_cast<std::size_t>(m)];
        }
        L.cons.push_back(lc);
      }
      const std::size_t nl = L.nodes.size();
      L.mass.resize(3 * nl);
      L.am.resize(3 * nl);
      L.bk.resize(3 * nl);
      L.cab.resize(3 * nl);
      L.inv_lhs.resize(3 * nl);
      L.owned.resize(nl);
      for (std::size_t i = 0; i < nl; ++i) {
        const std::size_t g = static_cast<std::size_t>(L.nodes[i]);
        L.owned[i] = part.node_owner[g] == static_cast<int>(r) ? 1 : 0;
        for (int c = 0; c < 3; ++c) {
          const std::size_t ld = 3 * i + static_cast<std::size_t>(c);
          const std::size_t gd = 3 * g + static_cast<std::size_t>(c);
          L.mass[ld] = op.lumped_mass()[gd];
          L.am[ld] = op.alpha_mass()[gd];
          L.bk[ld] = op.beta_k_diag()[gd];
          L.cab[ld] = op.cab_diag()[gd];
          const double lhs =
              L.mass[ld] + 0.5 * dt * (L.am[ld] + L.bk[ld] + L.cab[ld]);
          L.inv_lhs[ld] = lhs > 0.0 ? 1.0 / lhs : 0.0;
        }
      }
    }

    // Sharing lists -> pairwise neighbor structures, ordered by global id.
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      int count = 0;
      for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
        count += has_node[r][n];
      }
      if (count < 2) continue;
      for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
        if (has_node[r][n] == 0) continue;
        RankLocal& L = locals[r];
        const int li = L.local_of.at(static_cast<mesh::NodeId>(n));
        L.all_shared.push_back(li);
        for (std::size_t s = 0; s < static_cast<std::size_t>(R); ++s) {
          if (s == r || has_node[s][n] == 0) continue;
          // Find or create the neighbor entry (neighbors kept ascending).
          auto it = std::find_if(L.neighbors.begin(), L.neighbors.end(),
                                 [&](const Neighbor& nb) {
                                   return nb.rank == static_cast<int>(s);
                                 });
          if (it == L.neighbors.end()) {
            L.neighbors.push_back({static_cast<int>(s), {}});
            it = L.neighbors.end() - 1;
          }
          it->shared.push_back(li);
        }
      }
    }
    for (auto& L : locals) {
      std::sort(
          L.neighbors.begin(), L.neighbors.end(),
          [](const Neighbor& a, const Neighbor& b) { return a.rank < b.rank; });
    }

    // Boundary/interior split and persistent exchange buffers. A node can
    // contribute to a shared-node partial iff it is shared itself, or it is a
    // hanging node with a contributing master (masters are never hanging —
    // constraint chains are resolved at mesh build — so one pass suffices).
    const std::size_t pack = rayleigh ? 2u : 1u;
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      RankLocal& L = locals[r];
      std::vector<std::uint8_t> affects(L.nodes.size(), 0);
      for (int li : L.all_shared) affects[static_cast<std::size_t>(li)] = 1;
      for (const LocalConstraint& c : L.cons) {
        if (affects[static_cast<std::size_t>(c.node)] != 0) continue;
        for (int m = 0; m < c.n; ++m) {
          if (affects[static_cast<std::size_t>(
                  c.masters[static_cast<std::size_t>(m)])] != 0) {
            affects[static_cast<std::size_t>(c.node)] = 1;
            break;
          }
        }
      }
      std::vector<std::uint8_t> elem_boundary(L.elems.size(), 0);
      for (std::size_t le = 0; le < L.elems.size(); ++le) {
        for (int i = 0; i < 8; ++i) {
          if (affects[static_cast<std::size_t>(
                  L.conn[le][static_cast<std::size_t>(i)])] != 0) {
            elem_boundary[le] = 1;
            break;
          }
        }
        (elem_boundary[le] != 0 ? L.boundary_elems : L.interior_elems)
            .push_back(static_cast<int>(le));
      }
      for (const RankLocal::Face& face : L.faces) {
        (elem_boundary[static_cast<std::size_t>(face.elem)] != 0
             ? L.boundary_faces
             : L.interior_faces)
            .push_back(face);
      }
      for (const LocalConstraint& c : L.cons) {
        (affects[static_cast<std::size_t>(c.node)] != 0 ? L.cons_boundary
                                                        : L.cons_interior)
            .push_back(c);
      }

      L.sendbuf.resize(L.neighbors.size());
      L.recvbuf.resize(L.neighbors.size());
      L.nb_arrived.resize(L.neighbors.size());
      L.own_first.resize(L.neighbors.size());
      L.nb_of_rank.assign(static_cast<std::size_t>(R), -1);
      std::vector<std::uint8_t> seen(L.nodes.size(), 0);
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        const auto& sh = L.neighbors[nb].shared;
        L.sendbuf[nb].resize(pack * 3 * sh.size());
        L.recvbuf[nb].resize(pack * 3 * sh.size());
        L.nb_of_rank[static_cast<std::size_t>(L.neighbors[nb].rank)] =
            static_cast<int>(nb);
        L.doubles_per_step += pack * 3 * sh.size();
        for (std::size_t i = 0; i < sh.size(); ++i) {
          const std::size_t li = static_cast<std::size_t>(sh[i]);
          if (seen[li] != 0) continue;
          seen[li] = 1;
          L.own_first[nb].push_back(static_cast<int>(i));
        }
      }
    }
  }
  ParallelResult run(double t_end,
                     std::span<const solver::SourceModel* const> sources,
                     std::span<const std::array<double, 3>> receiver_positions,
                     const FaultToleranceOptions& ft, const RunControl& control,
                     const lts::LtsOptions& lts);

  // Lazily-built LTS plan (clustering + per-rank multi-class schedules),
  // cached across runs with the same max_rate. Guarded by run_mutex.
  struct LtsPlan;
  std::unique_ptr<LtsPlan> lts_plan;
  int lts_plan_max_rate = 0;
  const LtsPlan& get_lts_plan(int max_rate);
};

// ---------------------------------------------------------------------------
// Local time stepping (see src/lts/include/quake/lts/lts_solver.hpp for the
// scheme — state convention, interpolation bracket, scheduling invariant —
// and docs/LTS.md for the correctness argument). The clustering plus the
// per-rank schedules that derive from it, built once per max_rate (under
// run_mutex) and reused across runs on this setup, like RankLocal is.
// ---------------------------------------------------------------------------

struct ParallelSetup::Impl::LtsPlan {
  lts::Clustering cl;

  // Storage behind one rank's schedule; `sched` views these vectors.
  struct RankPlan {
    std::vector<int> bnd_elems, int_elems, nodes, shared;
    std::vector<RankLocal::Face> bnd_faces, int_faces;
    std::vector<LocalConstraint> cons;
    std::vector<std::vector<int>> msg, own;  // per neighbor
    std::vector<double> inv_lhs;
    std::vector<std::uint8_t> node_lg;
    RankSchedule sched;
  };
  std::vector<RankPlan> ranks;
};

const ParallelSetup::Impl::LtsPlan& ParallelSetup::Impl::get_lts_plan(
    int max_rate) {
  if (lts_plan != nullptr && lts_plan_max_rate == max_rate) return *lts_plan;
  auto plan = std::make_unique<LtsPlan>();
  plan->cl = lts::cluster_elements(mesh, dt, cfl, max_rate);
  const lts::Clustering& cl = plan->cl;
  const std::size_t nc = static_cast<std::size_t>(cl.n_classes);

  plan->ranks.resize(static_cast<std::size_t>(R));
  for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
    const RankLocal& L = locals[r];
    LtsPlan::RankPlan& rp = plan->ranks[r];
    RankSchedule& s = rp.sched;

    const auto elem_class = [&](int le) -> std::size_t {
      return cl.elem_class_log2[static_cast<std::size_t>(
          L.elems[static_cast<std::size_t>(le)])];
    };
    const auto face_class = [&](const RankLocal::Face& face) {
      return elem_class(face.elem);
    };
    s.bnd_elems =
        group_by_class<int>(L.boundary_elems, nc, elem_class, rp.bnd_elems);
    s.int_elems =
        group_by_class<int>(L.interior_elems, nc, elem_class, rp.int_elems);
    s.bnd_faces = group_by_class<RankLocal::Face>(L.boundary_faces, nc,
                                                  face_class, rp.bnd_faces);
    s.int_faces = group_by_class<RankLocal::Face>(L.interior_faces, nc,
                                                  face_class, rp.int_faces);

    const std::size_t nl = L.nodes.size();
    rp.node_lg.resize(nl);
    for (std::size_t i = 0; i < nl; ++i) {
      rp.node_lg[i] = cl.node_rate_log2[static_cast<std::size_t>(L.nodes[i])];
    }
    s.node_lg = rp.node_lg;
    const auto node_rate = [&](int li) -> std::size_t {
      return rp.node_lg[static_cast<std::size_t>(li)];
    };
    std::vector<int> all_nodes(nl);
    std::iota(all_nodes.begin(), all_nodes.end(), 0);
    s.nodes = group_by_class<int>(all_nodes, nc, node_rate, rp.nodes);
    s.cons = group_by_class<LocalConstraint>(
        L.cons, nc, [&](const LocalConstraint& c) { return node_rate(c.node); },
        rp.cons);
    s.shared = group_by_class<int>(L.all_shared, nc, node_rate, rp.shared);

    rp.inv_lhs.resize(3 * nl);
    for (std::size_t i = 0; i < nl; ++i) {
      const double dtn = std::ldexp(dt, rp.node_lg[i]);
      for (int c = 0; c < 3; ++c) {
        const std::size_t d = 3 * i + static_cast<std::size_t>(c);
        const double lhs =
            L.mass[d] + 0.5 * dtn * (L.am[d] + L.bk[d] + L.cab[d]);
        rp.inv_lhs[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;
      }
    }
    s.inv_lhs = rp.inv_lhs;

    rp.msg.resize(L.neighbors.size());
    rp.own.resize(L.neighbors.size());
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      const auto& sh = L.neighbors[nb].shared;
      s.msg.push_back(group_by_class<int>(sh, nc, node_rate, rp.msg[nb]));
      // Message slot of each shared-list position — fixed across steps
      // because the active rates always form the prefix lg <= cap.
      std::vector<std::size_t> next(nc, 0);
      for (std::size_t lg = 1; lg < nc; ++lg) next[lg] = s.msg[nb].end[lg - 1];
      std::vector<int> slot_of(sh.size());
      for (std::size_t i = 0; i < sh.size(); ++i) {
        slot_of[i] = static_cast<int>(next[node_rate(sh[i])]++);
      }
      std::vector<int> own_slots;
      own_slots.reserve(L.own_first[nb].size());
      for (const int i : L.own_first[nb]) {
        own_slots.push_back(slot_of[static_cast<std::size_t>(i)]);
      }
      s.own.push_back(group_by_class<int>(
          own_slots, nc,
          [&](int slot) {
            return node_rate(rp.msg[nb][static_cast<std::size_t>(slot)]);
          },
          rp.own[nb]));
    }
  }

  lts_plan = std::move(plan);
  lts_plan_max_rate = max_rate;
  return *lts_plan;
}

// ---------------------------------------------------------------------------
// The step engine: one SPMD loop whose only scheduling input is the class
// schedule. At fine step k it walks the classes/rates lg <= active_cap of
// every list in ascending lg; a single class walks RankLocal's whole lists at
// lg = 0 every step, which is the global-dt step of eq. 2.4. Fault
// tolerance attaches through RankRecovery's hooks (recovery.hpp).
// ---------------------------------------------------------------------------

ParallelResult ParallelSetup::Impl::run(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft, const RunControl& control,
    const lts::LtsOptions& lts) {
  if (lts.max_rate < 1) {
    throw std::invalid_argument("run: LtsOptions::max_rate must be >= 1");
  }
  const bool lts_on = lts.max_rate > 1;
  if (lts_on && rayleigh) {
    throw std::invalid_argument(
        "run: Rayleigh damping couples u^{k-1} across rates; use max_rate = 1 "
        "(global dt)");
  }
  if (lts_on && (!ft.checkpoint_dir.empty() || ft.max_revives > 0)) {
    throw std::invalid_argument(
        "run: checkpointing and in-place recovery need max_rate = 1 (the "
        "message log keeps fixed-size payloads; LTS messages vary per step)");
  }
  const std::lock_guard<std::mutex> run_lock(run_mutex);
  const int n_steps = static_cast<int>(std::ceil(t_end / dt));

  // Per-scenario receiver assignment: each receiver goes to the owner of its
  // nearest node. Kept outside RankLocal so a request's histories cannot
  // leak into the next solve through the shared setup.
  ParallelResult result;
  result.dt = dt;
  result.n_steps = n_steps;
  result.steps_completed = n_steps;
  result.receiver_histories.assign(receiver_positions.size(), {});
  std::vector<std::vector<std::pair<int, int>>> recv_of(
      static_cast<std::size_t>(R));
  for (std::size_t ri = 0; ri < receiver_positions.size(); ++ri) {
    const mesh::NodeId n = solver::nearest_node(mesh, receiver_positions[ri]);
    const int owner = part.node_owner[static_cast<std::size_t>(n)];
    const auto it = locals[static_cast<std::size_t>(owner)].local_of.find(n);
    if (it == locals[static_cast<std::size_t>(owner)].local_of.end()) {
      // Only reachable when the nearest node is an orphan (touched by no
      // element): it belongs to no rank's local set and has no dynamics.
      throw std::invalid_argument(
          "run_parallel: receiver " + std::to_string(ri) + " snaps to node " +
          std::to_string(n) + ", which no element touches (orphan node)");
    }
    recv_of[static_cast<std::size_t>(owner)].emplace_back(static_cast<int>(ri),
                                                          it->second);
    result.receiver_histories[ri].reserve(static_cast<std::size_t>(n_steps));
  }

  result.u_final.assign(3 * mesh.n_nodes(), 0.0);
  result.rank_stats.assign(static_cast<std::size_t>(R), {});

  // The class schedule. A mesh that clusters into one class (or max_rate =
  // 1) steps on RankLocal's own lists; several classes take the cached plan.
  const LtsPlan* plan = lts_on ? &get_lts_plan(lts.max_rate) : nullptr;
  const int n_classes = plan != nullptr ? plan->cl.n_classes : 1;
  std::vector<RankSchedule> single;
  if (n_classes == 1) {
    single.reserve(locals.size());
    for (const RankLocal& L : locals) {
      single.push_back(single_class_schedule(L));
    }
  }

  const fem::HexReference& ref = fem::HexReference::get();
  const auto elem_damping = op.element_damping();
  const std::size_t pack = rayleigh ? 2u : 1u;  // ku [+ dku] per message
  const detail::RecoveryPolicy policy(ft, R, n_steps);

  // Cancellation/deadline agreement cadence (see RunControl).
  const bool ctl_active = control.active();
  const int ctl_every = std::max(1, control.check_every);
  const auto run_start = std::chrono::steady_clock::now();

  // Per-rank telemetry registries, declared outside the supervised-retry
  // loop so a retried run accumulates into the same registries (the report
  // of a recovered run then shows the cost of recovery, not just the final
  // successful attempt). Fresh per run: a request's report describes that
  // request only.
  std::vector<obs::Registry> rank_regs(static_cast<std::size_t>(R));

  // Each rank's state and per-step vectors (u, u_prev, dku_prev, f, ku,
  // dku) are reserved here, on the calling thread: blocks a rank thread
  // allocated and freed would stay resident in its malloc arena and raise
  // peak RSS.
  std::vector<std::array<std::vector<double>, 6>> vecs(locals.size());
  for (std::size_t r = 0; r < vecs.size(); ++r) {
    for (auto& v : vecs[r]) v.reserve(3 * locals[r].nodes.size());
  }

  const auto spmd_body = [&](Rank& rank) {
    const std::size_t r = static_cast<std::size_t>(rank.id());
    const obs::ScopedRegistry obs_install(rank_regs[r]);
    RankLocal& L = locals[r];
    const RankSchedule& sched =
        n_classes > 1 ? plan->ranks[r].sched : single[r];
    const auto& RV = recv_of[r];  // this rank's (receiver, local node) pairs
    const std::size_t nd = 3 * L.nodes.size();
    // Zero state on every (re)start of this rank's thread.
    for (auto& v : vecs[r]) v.assign(nd, 0.0);
    auto& [u, u_prev, dku_prev, f, ku, dku] = vecs[r];
    // The time-k field the kernels read: u itself under one class; under
    // several, every node's (u_prev, u) bracket at the current fine step.
    std::vector<double> un(n_classes > 1 ? nd : 0, 0.0);
    const double* const x = n_classes > 1 ? un.data() : u.data();

    std::vector<std::pair<int, std::size_t>> edges;
    edges.reserve(L.neighbors.size());
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      edges.emplace_back(L.neighbors[nb].rank, L.sendbuf[nb].size());
    }
    detail::RankRecovery rec(
        policy, rank, {u, u_prev, dku_prev, result.receiver_histories, RV},
        edges);

    // compute: all element/face/update work; exchange: post + drain;
    // overlap: the interior-compute window with messages in flight; drain:
    // the exposed (blocked) tail of the exchange.
    util::StopWatch compute_watch, exchange_watch, overlap_watch, drain_watch;
    std::uint64_t flops = 0;
    std::uint64_t elem_updates = 0;
    std::uint64_t doubles_sent = 0;
    obs::gauge_set("par/dt", dt);
    if (lts_on) {
      obs::gauge_set("par/lts_n_classes", static_cast<double>(n_classes));
    }
    // Seed the comm counters so every rank's registry (and hence every
    // merged report row, including 1-rank runs) carries them explicitly.
    obs::counter_add("comm/msgs_sent", 0);
    obs::counter_add("comm/bytes_sent", 0);

    // The node's bracket (u_prev, u) evaluated at fine step k_target. A
    // node of rate 2^lg active at k_target holds u = u^{k_target} exactly
    // (m == 0 takes u directly — always, under one class); a stale node
    // interpolates linearly inside its bracket.
    const auto node_at = [&](std::size_t li, int k_target, double* out) {
      const int lg = sched.node_lg.empty() ? 0 : sched.node_lg[li];
      const int m = k_target & ((1 << lg) - 1);
      const std::size_t base = 3 * li;
      if (m == 0) {
        out[0] = u[base];
        out[1] = u[base + 1];
        out[2] = u[base + 2];
      } else {
        const double th = static_cast<double>(m) / static_cast<double>(1 << lg);
        for (std::size_t c = 0; c < 3; ++c) {
          out[c] = u_prev[base + c] + th * (u[base + c] - u_prev[base + c]);
        }
      }
    };

    // u_hanging = sum_m w_m u_master (B) over the given constraint groups.
    auto expand = [&](std::span<const LocalConstraint> cons) {
      for (const LocalConstraint& c : cons) {
        for (int comp = 0; comp < 3; ++comp) {
          double v = 0.0;
          for (int m = 0; m < c.n; ++m) {
            v += c.weights[static_cast<std::size_t>(m)] *
                 u[3 * static_cast<std::size_t>(
                          c.masters[static_cast<std::size_t>(m)]) +
                   static_cast<std::size_t>(comp)];
          }
          u[3 * static_cast<std::size_t>(c.node) +
            static_cast<std::size_t>(comp)] = v;
        }
      }
    };
    auto accumulate = [&](std::vector<double>& y,
                          std::span<const LocalConstraint> cons) {
      for (const LocalConstraint& c : cons) {
        for (int comp = 0; comp < 3; ++comp) {
          const std::size_t hd = 3 * static_cast<std::size_t>(c.node) +
                                 static_cast<std::size_t>(comp);
          for (int m = 0; m < c.n; ++m) {
            y[3 * static_cast<std::size_t>(
                     c.masters[static_cast<std::size_t>(m)]) +
              static_cast<std::size_t>(comp)] +=
                c.weights[static_cast<std::size_t>(m)] * y[hd];
          }
          y[hd] = 0.0;
        }
      }
    };

    // One element-kernel application, shared by both phases of the split.
    double ue[fem::kHexDofs], ye[fem::kHexDofs], de[fem::kHexDofs];
    auto apply_elems = [&](std::span<const int> list) {
      for (const int le_i : list) {
        const std::size_t le = static_cast<std::size_t>(le_i);
        const std::size_t ge = static_cast<std::size_t>(L.elems[le]);
        const auto& c = L.conn[le];
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ue[3 * i] = x[base];
          ue[3 * i + 1] = x[base + 1];
          ue[3 * i + 2] = x[base + 2];
        }
        std::fill(ye, ye + fem::kHexDofs, 0.0);
        if (rayleigh) std::fill(de, de + fem::kHexDofs, 0.0);
        const double h = mesh.elem_size[ge];
        const vel::Material& mat = mesh.elem_mat[ge];
        fem::hex_apply(ref, ue, h * mat.lambda, h * mat.mu, ye,
                       rayleigh ? elem_damping[ge].beta : 0.0,
                       rayleigh ? de : nullptr);
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ku[base] += ye[3 * i];
          ku[base + 1] += ye[3 * i + 1];
          ku[base + 2] += ye[3 * i + 2];
          if (rayleigh) {
            dku[base] += de[3 * i];
            dku[base + 1] += de[3 * i + 1];
            dku[base + 2] += de[3 * i + 2];
          }
        }
        flops += fem::hex_apply_flops(rayleigh);
      }
      elem_updates += list.size();
      obs::counter_add("par/elements_processed",
                       static_cast<std::int64_t>(list.size()));
      obs::counter_add("par/element_updates",
                       static_cast<std::int64_t>(list.size()));
    };
    auto apply_faces = [&](std::span<const RankLocal::Face> list) {
      if (op_opt.abc != fem::AbcType::kStacey) return;
      double uf[12], yf[12];
      for (const auto& face : list) {
        if (!op_opt.absorbing_sides[static_cast<std::size_t>(face.side)]) {
          continue;
        }
        const std::size_t ge = static_cast<std::size_t>(
            L.elems[static_cast<std::size_t>(face.elem)]);
        const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(face.side)];
        const auto& c = L.conn[static_cast<std::size_t>(face.elem)];
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          uf[3 * i] = x[base];
          uf[3 * i + 1] = x[base + 1];
          uf[3 * i + 2] = x[base + 2];
        }
        std::fill(yf, yf + 12, 0.0);
        fem::face_stacey_apply(mesh.elem_mat[ge], mesh.elem_size[ge],
                               face.side, uf, yf);
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          ku[base] += yf[3 * i];
          ku[base + 1] += yf[3 * i + 1];
          ku[base + 2] += yf[3 * i + 2];
        }
        flops += fem::face_stacey_flops();
      }
    };

    // Step-k payload length on edge nb: 3 doubles (6 with Rayleigh's dku
    // half) per shared node of an active rate; 0 = a quiet edge.
    const auto msg_len = [&](std::size_t nb, int cap) {
      return pack * 3 * sched.msg[nb].end[static_cast<std::size_t>(cap)];
    };
    // Adds message slot i of `buf` (node nodes[i]; the dku half, if any,
    // follows the ku half) to this rank's sums.
    const auto add_slot = [&](const std::vector<double>& buf,
                              std::span<const int> nodes, std::size_t i) {
      const std::size_t base = 3 * static_cast<std::size_t>(nodes[i]);
      ku[base] += buf[3 * i];
      ku[base + 1] += buf[3 * i + 1];
      ku[base + 2] += buf[3 * i + 2];
      if (rayleigh) {
        const std::size_t off = 3 * nodes.size();
        dku[base] += buf[off + 3 * i];
        dku[base + 1] += buf[off + 3 * i + 1];
        dku[base + 2] += buf[off + 3 * i + 2];
      }
    };

    // Runs the steps [k0, n_steps); returns the first step NOT taken —
    // n_steps on a full run, or the collectively-agreed stop step when the
    // run's RunControl cancelled it (all ranks return the same value).
    const auto step_loop = [&](int k0) -> int {
    for (int k = k0; k < n_steps; ++k) {
      QUAKE_OBS_SCOPE("step");

      // ---- cancellation/deadline agreement (service workloads): each rank
      // evaluates its local stop condition and the max-reduction makes the
      // decision collective, so every rank leaves at the same step. The
      // agreement is suppressed below the replay frontier: during tier-1
      // catch-up ranks execute different step ranges, and the anonymous
      // count-based collective must only be issued at steps all of them
      // reach (frontier == k0 on an undisturbed run, so nothing changes
      // there) ----
      if (ctl_active && rec.at_frontier(k) && k % ctl_every == 0) {
        double want_stop = 0.0;
        if (control.cancel != nullptr &&
            control.cancel->load(std::memory_order_relaxed)) {
          want_stop = 1.0;
        }
        if (control.deadline_seconds > 0.0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_start)
                    .count() >= control.deadline_seconds) {
          want_stop = 1.0;
        }
        if (rank.allreduce_max(want_stop) > 0.0) {
          obs::counter_add("par/steps_cancelled", n_steps - k);
          return k;
        }
      }

      rank.fault_point(k);
      const double t_k = k * dt;
      const int cap = lts::Clustering::active_cap(n_classes, k);

      {
      QUAKE_OBS_SCOPE("compute");  // boundary elements + boundary ABC faces
      compute_watch.start();
      if (n_classes > 1) {
        for (std::size_t i = 0; i < L.nodes.size(); ++i) {
          node_at(i, k, un.data() + 3 * i);
        }
      }
      std::fill(ku.begin(), ku.end(), 0.0);
      if (rayleigh) std::fill(dku.begin(), dku.end(), 0.0);
      for (int c = 0; c <= cap; ++c) {
        apply_elems(sched.bnd_elems.group(c));
        apply_faces(sched.bnd_faces.group(c));
      }
      // Fold the hanging-node partials that reach shared masters BEFORE the
      // exchange (B^T is linear, so projecting partials and summing
      // commutes with summing and projecting) — this keeps ghost sets
      // surface-sized. Every element feeding these folds is a boundary
      // element, so the posted partials are complete. The fold is whole
      // even when some classes are inactive: an inactive constraint group
      // shares one (inactive) cadence, so its garbage partials land only on
      // inactive masters, which are never sent and never updated.
      accumulate(ku, L.cons_boundary);
      if (rayleigh) accumulate(dku, L.cons_boundary);
      compute_watch.stop();
      }

      // ---- post: coalesced (ku [+ dku]) per-neighbor messages go out
      // before any interior work, so they are in flight during it. Under
      // several classes a message carries only the active-rate shared
      // nodes, and a coarse-only edge goes quiet between its updates ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      {
      QUAKE_OBS_SCOPE("post");
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        const auto nodes = sched.msg[nb].upto(cap);
        if (nodes.empty()) continue;
        auto& buf = L.sendbuf[nb];
        const std::size_t off = 3 * nodes.size();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(nodes[i]);
          buf[3 * i] = ku[base];
          buf[3 * i + 1] = ku[base + 1];
          buf[3 * i + 2] = ku[base + 2];
          if (rayleigh) {
            buf[off + 3 * i] = dku[base];
            buf[off + 3 * i + 1] = dku[base + 1];
            buf[off + 3 * i + 2] = dku[base + 2];
          }
        }
        const std::span<const double> payload(buf.data(), pack * off);
        // Post only to neighbors that have not already consumed this step
        // (a catching-up rank must not pollute an ahead neighbor's FIFO);
        // log unconditionally so a later recovery can re-serve any span.
        const int m = L.neighbors[nb].rank;
        if (rec.sends_to(m, k)) rank.send(m, detail::kExchangeTag, payload);
        rec.log(nb, k, payload);
        doubles_sent += payload.size();
      }
      // Zero the active shared entries now; interior work never touches
      // them, and the drain re-accumulates in ascending rank order (sendbuf
      // still holds this rank's own partials). Stale-rate entries keep
      // their garbage, which the next full ku zero clears unread.
      for (const int li : sched.shared.upto(cap)) {
        const std::size_t base = 3 * static_cast<std::size_t>(li);
        ku[base] = ku[base + 1] = ku[base + 2] = 0.0;
        if (rayleigh) dku[base] = dku[base + 1] = dku[base + 2] = 0.0;
      }
      }
      exchange_watch.stop();
      }

      // ---- overlap window: sources, interior elements, interior ABC
      // faces, and interior hanging-node folds, all while the per-neighbor
      // messages are in flight ----
      {
      QUAKE_OBS_SCOPE("compute");
      compute_watch.start();
      overlap_watch.start();
      std::fill(f.begin(), f.end(), 0.0);
      RankForceSink sink(L.local_of, f);
      for (const solver::SourceModel* s : sources) s->add_forces(t_k, sink);
      accumulate(f, L.cons);
      for (int c = 0; c <= cap; ++c) {
        apply_elems(sched.int_elems.group(c));
        apply_faces(sched.int_faces.group(c));
      }
      accumulate(ku, L.cons_interior);
      if (rayleigh) accumulate(dku, L.cons_interior);
      overlap_watch.stop();
      compute_watch.stop();
      }

      // ---- drain: park each neighbor's payload as it arrives (any
      // order), then accumulate in ascending rank order once every edge
      // has landed, so every copy of a shared node computes the identical
      // floating-point sum no matter which neighbor was slow; the own
      // partial (recovered from the send buffers) is inserted at this
      // rank's position in the order ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      drain_watch.start();
      {
        QUAKE_OBS_SCOPE("drain");
        rank.fault_point(-k - 1);  // mid-exchange fault point (see FaultPlan)
        {
          // Wait phase: poll every pending edge and park whatever is
          // already there. A fruitless pass yields and re-polls — blocking
          // right away would commit to the lowest pending neighbor and
          // re-serialize the drain on rank order whenever the scheduler
          // simply hadn't run the senders yet. Only after kIdlePassLimit
          // fruitless passes does the drain fall back to a blocking
          // receive: that wait is then genuinely unavoidable, and the
          // blocking receive is what registers this rank in the deadlock
          // detector (diagnosing a stuck exchange, and letting a planned
          // kDelay message flush instead of spinning forever).
          QUAKE_OBS_SCOPE("wait");
          constexpr int kIdlePassLimit = 64;
          std::size_t n_pending = 0;
          for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
            // Quiet edges (no active shared nodes) are pre-marked arrived.
            const bool quiet = msg_len(nb, cap) == 0;
            L.nb_arrived[nb] = quiet ? 1 : 0;
            if (!quiet) ++n_pending;
          }
          const auto inbox = [&](std::size_t nb) {
            return std::span<double>(L.recvbuf[nb].data(), msg_len(nb, cap));
          };
          int idle_passes = 0;
          while (n_pending > 0) {
            std::size_t progressed = 0;
            std::size_t first_pending = L.neighbors.size();
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              if (L.nb_arrived[nb] != 0) continue;
              if (rank.try_recv_into(L.neighbors[nb].rank,
                                     detail::kExchangeTag, inbox(nb))) {
                L.nb_arrived[nb] = 1;
                --n_pending;
                ++progressed;
              } else if (first_pending == L.neighbors.size()) {
                first_pending = nb;
              }
            }
            if (n_pending == 0 || progressed > 0) {
              idle_passes = 0;
            } else if (++idle_passes < kIdlePassLimit) {
              // Idle pass: absorb any in-flight buddy donation instead of
              // pure spinning, so the async stream never backs up behind
              // a slow neighbor.
              rec.idle();
              std::this_thread::yield();
            } else {
              rank.recv_into(L.neighbors[first_pending].rank,
                             detail::kExchangeTag, inbox(first_pending));
              L.nb_arrived[first_pending] = 1;
              --n_pending;
              idle_passes = 0;
            }
          }
        }
        for (int s = 0; s < R; ++s) {
          if (s == rank.id()) {
            // Own partials: first occurrence across the neighbor lists,
            // precomputed at setup.
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              const auto nodes = sched.msg[nb].upto(cap);
              for (const int slot : sched.own[nb].upto(cap)) {
                add_slot(L.sendbuf[nb], nodes, static_cast<std::size_t>(slot));
              }
            }
            continue;
          }
          const int nbi = L.nb_of_rank[static_cast<std::size_t>(s)];
          if (nbi < 0) continue;
          const std::size_t nb = static_cast<std::size_t>(nbi);
          const auto nodes = sched.msg[nb].upto(cap);
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            add_slot(L.recvbuf[nb], nodes, i);
          }
        }
      }
      drain_watch.stop();
      exchange_watch.stop();
      }

      {
      QUAKE_OBS_SCOPE("compute");  // diagonalized lumped update (eq. 2.4)
      compute_watch.start();
      // In place, per active rate: a node of rate 2^lg steps by dt_n =
      // 2^lg * dt (ldexp is exact, so lg = 0 is dt itself), then the
      // rate's hanging-node groups expand — a group shares its masters'
      // cadence, so they hold fresh u exactly when it expands.
      for (int lg = 0; lg <= cap; ++lg) {
        const double dtn = std::ldexp(dt, lg);
        const double dt2 = dtn * dtn;
        const double hdt = 0.5 * dtn;
        const auto update = [&](std::size_t d) {
          double rhs = 2.0 * L.mass[d] * u[d] - dt2 * ku[d] + dt2 * f[d] +
                       (hdt * L.am[d] - L.mass[d]) * u_prev[d] +
                       hdt * L.cab[d] * u_prev[d];
          if (rayleigh) {  // single class only: lg = 0
            rhs -= hdt * (dku[d] - L.bk[d] * u[d]);
            rhs += hdt * dku_prev[d];
          }
          u_prev[d] = u[d];
          u[d] = rhs * sched.inv_lhs[d];
        };
        std::size_t n_updated = nd;
        if (n_classes == 1) {
          for (std::size_t d = 0; d < nd; ++d) update(d);
        } else {
          const auto nodes = sched.nodes.group(lg);
          for (const int li : nodes) {
            const std::size_t base = 3 * static_cast<std::size_t>(li);
            update(base);
            update(base + 1);
            update(base + 2);
          }
          n_updated = 3 * nodes.size();
        }
        // Update arithmetic per dof (counted off the expression above):
        // 14 flops for the undamped eq. 2.4 rhs + divide-by-lhs, 6 more on
        // the Rayleigh branch.
        flops += n_updated * (rayleigh ? 20ull : 14ull);
        expand(sched.cons.group(lg));
      }
      std::swap(dku_prev, dku);

      // Receivers read the time-(k+1) field through the same bracket.
      for (const auto& [ri, ln] : RV) {
        std::array<double, 3> s;
        node_at(static_cast<std::size_t>(ln), k + 1, s.data());
        result.receiver_histories[static_cast<std::size_t>(ri)].push_back(s);
      }
      compute_watch.stop();
      }
      rec.step_done(k);
    }
    return n_steps;
    };  // step_loop

    const auto finish = [&](int stop_k) {
    // Gather: each rank writes its owned nodes (owners are unique), every
    // node's bracket evaluated at the stop step.
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      node_at(i, stop_k,
              result.u_final.data() + 3 * static_cast<std::size_t>(L.nodes[i]));
    }

    // Fraction of the exchange hidden behind interior compute: of the time
    // the messages spend "in flight" plus the time spent waiting for them,
    // how much was spent computing. 0 when there is nothing to overlap.
    const double overlap_s = overlap_watch.total_seconds();
    const double drain_s = drain_watch.total_seconds();
    const double overlap_fraction =
        (L.neighbors.empty() || overlap_s + drain_s <= 0.0)
            ? 0.0
            : overlap_s / (overlap_s + drain_s);

    auto& st = result.rank_stats[r];
    st.n_elems = L.elems.size();
    st.n_boundary_elems = L.boundary_elems.size();
    st.n_interior_elems = L.interior_elems.size();
    st.n_local_nodes = L.nodes.size();
    st.n_neighbors = L.neighbors.size();
    // Setup-derived under one class (exact on restarted runs); measured
    // under several, where most steps send less than the full layout.
    st.doubles_sent_per_step =
        n_classes > 1
            ? doubles_sent / static_cast<std::size_t>(std::max(1, stop_k))
            : L.doubles_per_step;
    st.flops = flops;
    st.element_updates = elem_updates;
    st.compute_seconds = compute_watch.total_seconds();
    st.exchange_seconds = exchange_watch.total_seconds();
    st.overlap_fraction = overlap_fraction;

    // Partition-shape gauges; their across-rank min/mean/max in the merged
    // report is the load-imbalance view of Table 2.1.
    obs::gauge_set("par/n_elems", static_cast<double>(L.elems.size()));
    obs::gauge_set("par/n_boundary_elems",
                   static_cast<double>(L.boundary_elems.size()));
    obs::gauge_set("par/n_interior_elems",
                   static_cast<double>(L.interior_elems.size()));
    obs::gauge_set("par/n_local_nodes", static_cast<double>(L.nodes.size()));
    obs::gauge_set("par/n_neighbors", static_cast<double>(L.neighbors.size()));
    obs::gauge_set("par/doubles_sent_per_step",
                   static_cast<double>(st.doubles_sent_per_step));
    obs::gauge_set("par/compute_seconds", compute_watch.total_seconds());
    obs::gauge_set("par/exchange_seconds", exchange_watch.total_seconds());
    obs::gauge_set("par/overlap_fraction", overlap_fraction);
    if (lts_on) {
      const std::uint64_t global_updates =
          static_cast<std::uint64_t>(std::max(0, stop_k)) *
          static_cast<std::uint64_t>(L.elems.size());
      obs::gauge_set("par/lts_updates_saved_ratio",
                     elem_updates > 0 ? static_cast<double>(global_updates) /
                                            static_cast<double>(elem_updates)
                                      : 1.0);
    }

    // ---- telemetry gather: ship every registry to rank 0 and merge ------
    // Registries are snapshotted/encoded BEFORE the gather messages move,
    // so the reports describe the solve, not the gather itself.
    if (obs::enabled()) {
      if (rank.id() == 0) {
        std::vector<obs::RankReport> reports;
        reports.reserve(static_cast<std::size_t>(R));
        reports.push_back(obs::RankReport{0, rank_regs[0]});
        for (int s = 1; s < R; ++s) {
          reports.push_back(obs::decode_report(rank.recv(s, kObsGatherTag)));
        }
        result.obs_summary = obs::merge_reports(reports);
        result.obs_reports = std::move(reports);
      } else {
        rank.send(0, kObsGatherTag,
                  obs::encode_report(obs::RankReport{rank.id(), rank_regs[r]}));
      }
    }
    };  // finish

    const int stop_k = rec.run_epochs(step_loop, finish);
    // The cancel agreement guarantees every rank stops at the same step;
    // rank 0 records it (threads are joined before run() returns, so this
    // write is visible to the caller).
    if (rank.id() == 0 && stop_k < n_steps) {
      result.cancelled = true;
      result.steps_completed = stop_k;
    }
  };

  result.revives_used = policy.supervise(comm, spmd_body);
  return result;
}

ParallelSetup::ParallelSetup(const mesh::HexMesh& mesh, const Partition& part,
                             const solver::OperatorOptions& op_opt,
                             const solver::SolverOptions& base)
    : impl_(std::make_unique<Impl>(mesh, part, op_opt, base)) {}

ParallelSetup::~ParallelSetup() = default;

double ParallelSetup::dt() const { return impl_->dt; }

int ParallelSetup::n_ranks() const { return impl_->R; }

const mesh::HexMesh& ParallelSetup::mesh() const { return impl_->mesh; }

std::vector<std::vector<int>> ParallelSetup::neighbor_ranks() const {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(impl_->R));
  for (int r = 0; r < impl_->R; ++r) {
    const auto& nbs = impl_->locals[static_cast<std::size_t>(r)].neighbors;
    adj[static_cast<std::size_t>(r)].reserve(nbs.size());
    for (const auto& nb : nbs) {  // ascending rank, sorted at setup
      adj[static_cast<std::size_t>(r)].push_back(nb.rank);
    }
  }
  return adj;
}

int ParallelSetup::n_steps(double t_end) const {
  return static_cast<int>(std::ceil(t_end / impl_->dt));
}

ParallelResult ParallelSetup::run(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft, const RunControl& control,
    const lts::LtsOptions& lts) {
  return impl_->run(t_end, sources, receiver_positions, ft, control, lts);
}

ParallelResult run_parallel(
    const mesh::HexMesh& mesh, const Partition& part,
    const solver::OperatorOptions& op_opt, const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft) {
  ParallelSetup setup(mesh, part, op_opt, so);
  return setup.run(so.t_end, sources, receiver_positions, ft);
}

double modeled_efficiency(const ParallelResult& r, const MachineModel& m) {
  if (r.rank_stats.empty() || r.n_steps == 0) return 1.0;
  double total_flops = 0.0;
  double worst = 0.0;
  for (const auto& s : r.rank_stats) {
    total_flops += static_cast<double>(s.flops);
    const double flops_step =
        static_cast<double>(s.flops) / static_cast<double>(r.n_steps);
    const double t = flops_step / m.flops_per_sec +
                     static_cast<double>(s.n_neighbors) * m.latency_sec +
                     static_cast<double>(s.doubles_sent_per_step) * 8.0 /
                         m.bytes_per_sec;
    worst = std::max(worst, t);
  }
  const double t1 =
      total_flops / static_cast<double>(r.n_steps) / m.flops_per_sec;
  const double denom =
      static_cast<double>(r.rank_stats.size()) * worst;
  return denom > 0.0 ? t1 / denom : 1.0;
}

}  // namespace quake::par

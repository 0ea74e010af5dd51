// Tests for the local-time-stepping subsystem (src/lts, docs/LTS.md):
// the clustering pass (per-element stable dt, power-of-two binning, +-1
// adjacency normalization through hanging-node constraint groups), the
// serial LtsSolver (bitwise-identical to ExplicitSolver with one class,
// tolerance-equivalent to global dt with several), and the parallel
// ParallelSetup::run class schedule (max_rate = 1 is the global run,
// single-class bitwise anchor, multi-rate equivalence, bitwise determinism
// across repeats, and the options it rejects).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <set>
#include <vector>

#include "quake/lts/clustering.hpp"
#include "quake/lts/lts_solver.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/explicit_solver.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/vel/model.hpp"

namespace {

using namespace quake;

// Uniform single-level mesh: one material, one octree level, so the
// clustering must collapse to a single class and LTS must degenerate to
// the global scheme bit for bit.
mesh::HexMesh uniform_mesh() {
  const vel::HomogeneousModel model(
      vel::Material::from_velocities(4000.0, 2300.0, 2600.0));
  mesh::MeshOptions opt;
  opt.domain_size = 8000.0;
  opt.f_max = 1e-9;
  opt.min_level = 3;
  opt.max_level = 3;
  return mesh::generate_mesh(model, opt);
}

// Soft layer with a saturated-sediment P velocity (vp/vs = 4) over a stiff
// halfspace: wavelength refinement sizes h to vs while the stable step
// follows h / vp, so the two octree levels carry genuinely different rates
// and the level transition has hanging nodes.
mesh::HexMesh two_rate_mesh() {
  const vel::LayeredModel model(
      {{150.0, vel::Material::from_velocities(3200.0, 800.0, 2000.0)},
       {0.0, vel::Material::from_velocities(1.732 * 1600.0, 1600.0, 2400.0)}});
  mesh::MeshOptions opt;
  opt.domain_size = 800.0;
  opt.f_max = 2.0;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 5;
  return mesh::generate_mesh(model, opt);
}

// The small multi-level basin from par_test: three stability bins, hanging
// nodes, and enough structure for multi-rank runs.
mesh::HexMesh small_basin_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(20000.0);
  mesh::MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.04;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  return mesh::generate_mesh(basin, opt);
}

// Element adjacency as the clustering defines it: two elements are
// adjacent when they share a node directly, or when one touches a hanging
// node whose constraint group (dependent + masters) the other touches.
std::vector<std::set<mesh::ElemId>> node_to_elems(const mesh::HexMesh& mesh) {
  std::vector<std::set<mesh::ElemId>> of_node(mesh.n_nodes());
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    for (const mesh::NodeId n : mesh.elem_nodes[e]) {
      of_node[static_cast<std::size_t>(n)].insert(
          static_cast<mesh::ElemId>(e));
    }
  }
  return of_node;
}

}  // namespace

TEST(LtsClustering, ElementStableDtMatchesFormula) {
  const auto mesh = uniform_mesh();
  const double cfl = 0.4;
  const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
  ASSERT_EQ(dts.size(), mesh.n_elements());
  double mn = dts[0];
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const double want = cfl * mesh.elem_size[e] / mesh.elem_mat[e].vp();
    EXPECT_NEAR(dts[e], want, 1e-12 * want);
    mn = std::min(mn, dts[e]);
  }
  const solver::ElasticOperator op(mesh, {});
  EXPECT_NEAR(mn, op.stable_dt(cfl), 1e-12 * mn);
}

TEST(LtsClustering, PowerOfTwoBinsAndHistograms) {
  const auto mesh = two_rate_mesh();
  ASSERT_GT(mesh.n_hanging(), 0u);
  const double cfl = 0.35;
  const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
  const double base_dt = *std::min_element(dts.begin(), dts.end());
  const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, cfl, 32);

  EXPECT_GE(cl.n_classes, 2);
  EXPECT_EQ(cl.base_dt, base_dt);
  ASSERT_EQ(cl.elem_rate_log2.size(), mesh.n_elements());
  ASSERT_EQ(cl.elem_class_log2.size(), mesh.n_elements());
  ASSERT_EQ(cl.node_rate_log2.size(), mesh.n_nodes());
  std::size_t rate_total = 0, class_total = 0;
  ASSERT_EQ(cl.rate_histogram.size(), static_cast<std::size_t>(cl.n_classes));
  for (int c = 0; c < cl.n_classes; ++c) {
    rate_total += cl.rate_histogram[static_cast<std::size_t>(c)];
    class_total += cl.class_histogram[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(rate_total, mesh.n_elements());
  EXPECT_EQ(class_total, mesh.n_elements());
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const int rate = 1 << cl.elem_rate_log2[e];
    EXPECT_LE(rate, 32);
    // Stability: each element's cadence keeps its own CFL bound.
    EXPECT_LE(rate * base_dt, dts[e] * (1.0 + 1e-12));
    // The compute cadence never exceeds the stability cadence.
    EXPECT_LE(cl.elem_class_log2[e], cl.elem_rate_log2[e]);
  }
  EXPECT_GT(cl.predicted_updates_saved(), 1.0);
  EXPECT_NEAR(cl.predicted_update_fraction() * cl.predicted_updates_saved(),
              1.0, 1e-12);
}

TEST(LtsClustering, AdjacentRatesDifferByAtMostOneThroughHangingNodes) {
  for (const auto& mesh : {two_rate_mesh(), small_basin_mesh()}) {
    ASSERT_GT(mesh.n_hanging(), 0u);
    const double cfl = 0.4;
    const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
    const double base_dt = *std::min_element(dts.begin(), dts.end());
    const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, cfl, 32);
    ASSERT_GE(cl.n_classes, 2);

    // A hanging node and its masters share one cadence.
    for (const mesh::Constraint& c : mesh.constraints) {
      for (int m = 0; m < c.n_masters; ++m) {
        EXPECT_EQ(cl.node_rate_log2[static_cast<std::size_t>(c.node)],
                  cl.node_rate_log2[static_cast<std::size_t>(c.masters[m])]);
      }
    }

    // Adjacency including constraint-group coupling: elements touching any
    // node of the same group are mutually adjacent for the +-1 rule.
    auto of_node = node_to_elems(mesh);
    for (const mesh::Constraint& c : mesh.constraints) {
      std::set<mesh::ElemId> group = of_node[static_cast<std::size_t>(c.node)];
      for (int m = 0; m < c.n_masters; ++m) {
        const auto& more = of_node[static_cast<std::size_t>(c.masters[m])];
        group.insert(more.begin(), more.end());
      }
      of_node[static_cast<std::size_t>(c.node)] = group;
      for (int m = 0; m < c.n_masters; ++m) {
        of_node[static_cast<std::size_t>(c.masters[m])] = group;
      }
    }
    for (const auto& elems : of_node) {
      int lo = 127, hi = 0;
      for (const mesh::ElemId e : elems) {
        lo = std::min<int>(lo, cl.elem_rate_log2[static_cast<std::size_t>(e)]);
        hi = std::max<int>(hi, cl.elem_rate_log2[static_cast<std::size_t>(e)]);
      }
      if (!elems.empty()) EXPECT_LE(hi - lo, 1);
    }

    // Node cadence = min rate over touching elements (folded above);
    // element class = min node cadence over its nodes.
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      if (of_node[n].empty()) continue;
      int want = 127;
      for (const mesh::ElemId e : of_node[n]) {
        want = std::min<int>(want,
                             cl.elem_rate_log2[static_cast<std::size_t>(e)]);
      }
      EXPECT_EQ(cl.node_rate_log2[n], want);
    }
    for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
      int want = 127;
      for (const mesh::NodeId n : mesh.elem_nodes[e]) {
        want = std::min<int>(want,
                             cl.node_rate_log2[static_cast<std::size_t>(n)]);
      }
      EXPECT_EQ(cl.elem_class_log2[e], want);
    }
  }
}

TEST(LtsClustering, MaxRateOneDegeneratesToGlobal) {
  const auto mesh = two_rate_mesh();
  const std::vector<double> dts = lts::element_stable_dt(mesh, 0.4);
  const double base_dt = *std::min_element(dts.begin(), dts.end());
  const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, 0.4, 1);
  EXPECT_EQ(cl.n_classes, 1);
  EXPECT_EQ(cl.max_rate(), 1);
  EXPECT_DOUBLE_EQ(cl.predicted_updates_saved(), 1.0);
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    EXPECT_EQ(cl.elem_rate_log2[e], 0);
    EXPECT_EQ(cl.elem_class_log2[e], 0);
  }
}

TEST(LtsClustering, RejectsBadArguments) {
  const auto mesh = uniform_mesh();
  EXPECT_THROW(lts::cluster_elements(mesh, 0.0, 0.4, 32),
               std::invalid_argument);
  EXPECT_THROW(lts::cluster_elements(mesh, -1.0, 0.4, 32),
               std::invalid_argument);
  EXPECT_THROW(lts::cluster_elements(mesh, 0.01, 0.4, 0),
               std::invalid_argument);
}

TEST(LtsSerial, SingleClassBitwiseMatchesExplicitSolver) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  so.cfl_fraction = 0.4;
  const solver::ElasticOperator op(mesh, oo);
  const solver::PointSource src(mesh, {4000.0, 4000.0, 3000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 10.0);
  const std::array<double, 3> rx = {6000.0, 3000.0, 0.0};

  solver::ExplicitSolver ref(op, so);
  ref.add_source(&src);
  ref.add_receiver(rx);
  ref.run();

  lts::LtsOptions lo;
  lo.max_rate = 32;
  lts::LtsSolver sol(op, so, lo);
  sol.add_source(&src);
  sol.add_receiver(rx);
  sol.run();

  EXPECT_EQ(sol.clustering().n_classes, 1);
  EXPECT_EQ(sol.n_steps(), ref.n_steps());
  EXPECT_DOUBLE_EQ(sol.updates_saved_ratio(), 1.0);
  ASSERT_EQ(sol.displacement().size(), ref.displacement().size());
  EXPECT_EQ(std::memcmp(sol.displacement().data(), ref.displacement().data(),
                        ref.displacement().size() * sizeof(double)),
            0);
  ASSERT_EQ(sol.receivers()[0].u.size(), ref.receivers()[0].u.size());
  EXPECT_EQ(std::memcmp(sol.receivers()[0].u.data(), ref.receivers()[0].u.data(),
                        ref.receivers()[0].u.size() * sizeof(double) * 3),
            0);
}

TEST(LtsSerial, TwoRateMatchesGlobalWithinTolerance) {
  const auto mesh = two_rate_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.6;
  so.cfl_fraction = 0.35;
  const solver::ElasticOperator op(mesh, oo);

  // SH-style initial pulse in the halfspace (see bench_table2_1 --lts-sweep).
  const double zc = 500.0, sigma = 120.0, vs2 = 1600.0;
  std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const double z = mesh.node_coords[n][2];
    const double p = std::exp(-std::pow((z - zc) / sigma, 2));
    u0[3 * n + 1] = p;
    v0[3 * n + 1] = vs2 * (-2.0 * (z - zc) / (sigma * sigma)) * p;
  }
  const std::array<double, 3> rx = {400.0, 400.0, 0.0};

  solver::ExplicitSolver ref(op, so);
  ref.set_fixed_components({true, false, true});
  ref.set_initial_conditions(u0, v0);
  ref.add_receiver(rx);
  ref.run();

  lts::LtsOptions lo;
  lo.max_rate = 32;
  lts::LtsSolver sol(op, so, lo);
  sol.set_fixed_components({true, false, true});
  sol.set_initial_conditions(u0, v0);
  sol.add_receiver(rx);
  sol.run();

  ASSERT_GE(sol.clustering().n_classes, 2);
  EXPECT_GT(sol.updates_saved_ratio(), 1.0);
  ASSERT_EQ(sol.displacement().size(), ref.displacement().size());
  const double unorm = util::norm_l2(ref.displacement());
  EXPECT_LT(util::diff_l2(sol.displacement(), ref.displacement()),
            0.02 * (1.0 + unorm));
  const auto rec_ref = ref.receiver_component(0, 1);
  const auto rec_lts = sol.receiver_component(0, 1);
  ASSERT_EQ(rec_ref.size(), rec_lts.size());
  EXPECT_LT(util::rel_l2(rec_lts, rec_ref), 0.02);
}

TEST(LtsSerial, ElementUpdatesFollowTheSchedule) {
  const auto mesh = two_rate_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.3;
  so.cfl_fraction = 0.35;
  const solver::ElasticOperator op(mesh, oo);
  lts::LtsOptions lo;
  lo.max_rate = 32;
  lts::LtsSolver sol(op, so, lo);
  sol.run();

  // Class c runs at fine steps k in [0, n_steps) with 2^c | k.
  const lts::Clustering& cl = sol.clustering();
  std::uint64_t want = 0;
  for (int c = 0; c < cl.n_classes; ++c) {
    const std::uint64_t active =
        static_cast<std::uint64_t>((sol.n_steps() - 1) >> c) + 1;
    want += active * cl.class_histogram[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(sol.element_updates(), want);
  EXPECT_LT(sol.element_updates(), sol.global_element_updates());
}

TEST(LtsSerial, RayleighDampingRejected) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  const solver::ElasticOperator op(mesh, oo);
  solver::SolverOptions so;
  so.t_end = 0.1;
  lts::LtsOptions lo;
  EXPECT_THROW(lts::LtsSolver(op, so, lo), std::invalid_argument);
}

TEST(LtsParallel, DisabledForwardsToGlobalRun) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);

  const par::ParallelResult ref =
      par::run_parallel(mesh, part, oo, so, sources, rxs);
  par::ParallelSetup setup(mesh, part, oo, so);
  const par::ParallelResult pr =
      setup.run(so.t_end, sources, rxs, {}, {}, lts::LtsOptions{});

  ASSERT_EQ(pr.u_final.size(), ref.u_final.size());
  EXPECT_EQ(std::memcmp(pr.u_final.data(), ref.u_final.data(),
                        ref.u_final.size() * sizeof(double)),
            0);
  std::uint64_t updates = 0;
  for (const auto& s : pr.rank_stats) updates += s.element_updates;
  EXPECT_EQ(updates, static_cast<std::uint64_t>(pr.n_steps) *
                         mesh.n_elements());
}

TEST(LtsParallel, SingleClassBitwiseMatchesGlobalRun) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {4000.0, 4000.0, 3000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 10.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{6000.0, 3000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);

  const par::ParallelResult ref =
      par::run_parallel(mesh, part, oo, so, sources, rxs);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions lo;
  lo.max_rate = 32;
  const par::ParallelResult pr =
      setup.run(so.t_end, sources, rxs, {}, {}, lo);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  ASSERT_EQ(pr.u_final.size(), ref.u_final.size());
  EXPECT_EQ(std::memcmp(pr.u_final.data(), ref.u_final.data(),
                        ref.u_final.size() * sizeof(double)),
            0);
  ASSERT_EQ(pr.receiver_histories[0].size(), ref.receiver_histories[0].size());
  EXPECT_EQ(std::memcmp(pr.receiver_histories[0].data(),
                        ref.receiver_histories[0].data(),
                        ref.receiver_histories[0].size() * sizeof(double) * 3),
            0);
}

TEST(LtsParallel, MultiRateMatchesGlobalWithinTolerance) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);
  par::ParallelSetup setup(mesh, part, oo, so);

  lts::LtsOptions off;
  const par::ParallelResult ref =
      setup.run(so.t_end, sources, rxs, {}, {}, off);
  lts::LtsOptions on;
  on.max_rate = 32;
  const par::ParallelResult pr =
      setup.run(so.t_end, sources, rxs, {}, {}, on);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  std::uint64_t updates = 0;
  for (const auto& s : pr.rank_stats) updates += s.element_updates;
  EXPECT_LT(updates, static_cast<std::uint64_t>(pr.n_steps) *
                         mesh.n_elements());  // actually saved work
  ASSERT_EQ(pr.u_final.size(), ref.u_final.size());
  const double unorm = util::norm_l2(ref.u_final);
  EXPECT_LT(util::diff_l2(pr.u_final, ref.u_final), 0.05 * (1.0 + unorm));
}

TEST(LtsParallel, RepeatedMultiRankRunsBitIdentical) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  lts::LtsOptions on;
  on.max_rate = 32;

  for (const int R : {2, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(R));
    const par::Partition part = par::partition_sfc(mesh, R);
    par::ParallelSetup setup(mesh, part, oo, so);
    const par::ParallelResult a =
        setup.run(so.t_end, sources, rxs, {}, {}, on);
    const par::ParallelResult b =
        setup.run(so.t_end, sources, rxs, {}, {}, on);
    ASSERT_EQ(a.u_final.size(), b.u_final.size());
    EXPECT_EQ(std::memcmp(a.u_final.data(), b.u_final.data(),
                          a.u_final.size() * sizeof(double)),
              0);
    ASSERT_EQ(a.receiver_histories[0].size(), b.receiver_histories[0].size());
    EXPECT_EQ(std::memcmp(a.receiver_histories[0].data(),
                          b.receiver_histories[0].data(),
                          a.receiver_histories[0].size() * sizeof(double) * 3),
              0);
  }
}

TEST(LtsParallel, RayleighDampingRejected) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 0.2;
  const par::Partition part = par::partition_sfc(mesh, 2);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions on;
  on.max_rate = 32;
  EXPECT_THROW(setup.run(so.t_end, {}, {}, {}, {}, on), std::invalid_argument);
}

TEST(LtsParallel, FaultToleranceWithMultiRateRejected) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.1;
  so.cfl_fraction = 0.4;
  const par::Partition part = par::partition_sfc(mesh, 2);
  par::ParallelSetup setup(mesh, part, oo, so);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_lts_ft_rejected";
  std::filesystem::remove_all(dir);
  par::FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.max_revives = 1;

  lts::LtsOptions multi;
  multi.max_rate = 32;
  EXPECT_THROW(setup.run(so.t_end, {}, {}, ft, {}, multi),
               std::invalid_argument);

  lts::LtsOptions global;
  global.max_rate = 1;
  const par::ParallelResult pr = setup.run(so.t_end, {}, {}, ft, {}, global);
  EXPECT_FALSE(pr.cancelled);
  EXPECT_EQ(pr.steps_completed, setup.n_steps(so.t_end));
  std::filesystem::remove_all(dir);
}

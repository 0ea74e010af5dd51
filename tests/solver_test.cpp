// Tests for the explicit elastodynamic solver: engine equivalence, energy
// behavior, absorbing boundaries, sources, and 1D-column verification
// against the SH closed form.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/explicit_solver.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/solver/source.hpp"
#include "quake/solver/sparse_engine.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"

namespace {

using namespace quake;
using namespace quake::solver;

vel::HomogeneousModel rock() {
  return vel::HomogeneousModel(
      vel::Material::from_velocities(1732.0, 1000.0, 2000.0));
}

mesh::HexMesh uniform_mesh(int level, double size) {
  mesh::MeshOptions o;
  o.domain_size = size;
  o.f_max = 1e-9;
  o.min_level = level;
  o.max_level = level;
  const auto model = rock();
  return mesh::generate_mesh(model, o);
}

mesh::HexMesh hanging_mesh(double size) {
  mesh::MeshOptions o;
  o.domain_size = size;
  o.f_max = 1e-9;
  o.min_level = 1;
  o.max_level = 2;
  auto policy = [](const octree::Octant& oct) {
    if (oct.level < 1) return true;
    return oct.level < 2 && oct.x == 0 && oct.y == 0;
  };
  auto tree = octree::balance(octree::build_octree(policy, 2),
                              octree::BalanceScope::kAll);
  const auto model = rock();
  return mesh::transform(tree, model, o);
}

TEST(Engines, ElementMatchesSparseOnUniformMesh) {
  const auto mesh = uniform_mesh(2, 100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  const SparseStiffness sparse(mesh);
  util::Rng rng(1);
  std::vector<double> u(op.n_dofs()), y1(op.n_dofs(), 0.0), y2(op.n_dofs(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  op.apply_stiffness(u, y1, {});
  sparse.apply(u, y2);
  EXPECT_LT(util::diff_l2(y1, y2), 1e-9 * (1.0 + util::norm_l2(y2)));
}

TEST(Engines, ElementMatchesSparseOnHangingMesh) {
  const auto mesh = hanging_mesh(100.0);
  ASSERT_GT(mesh.n_hanging(), 0u);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  const SparseStiffness sparse(mesh);
  util::Rng rng(2);
  std::vector<double> u(op.n_dofs()), y1(op.n_dofs(), 0.0), y2(op.n_dofs(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  op.expand_constraints(u);  // same constrained input to both engines
  op.apply_stiffness(u, y1, {});
  sparse.apply(u, y2);
  EXPECT_LT(util::diff_l2(y1, y2), 1e-9 * (1.0 + util::norm_l2(y2)));
}

TEST(Operator, ConstraintExpansionAccumulationAdjoint) {
  // <B u, y> == <u, B^T y> for the constraint projection operators.
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  util::Rng rng(3);
  std::vector<double> u(op.n_dofs(), 0.0), y(op.n_dofs());
  // u: independent dofs random, hanging zero; expand fills hanging.
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    if (mesh.node_hanging[n] != 0) continue;
    for (int c = 0; c < 3; ++c) u[3 * n + static_cast<std::size_t>(c)] = rng.uniform(-1, 1);
  }
  for (double& v : y) v = rng.uniform(-1.0, 1.0);

  std::vector<double> bu = u;
  op.expand_constraints(bu);
  const double lhs = util::dot(bu, y);
  std::vector<double> bty = y;
  op.accumulate_constraints(bty);
  const double rhs = util::dot(u, bty);
  EXPECT_NEAR(lhs, rhs, 1e-9 * (std::abs(lhs) + 1.0));
}

TEST(Operator, ProjectedMassConservesTotalMass)
{
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  double total = 0.0;
  const auto mass = op.lumped_mass();
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) total += mass[3 * n];
  double expected = 0.0;
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const double h = mesh.elem_size[e];
    expected += mesh.elem_mat[e].rho * h * h * h;
  }
  EXPECT_NEAR(total, expected, 1e-6 * expected);
  // Hanging dofs carry no mass after projection.
  for (const auto& c : mesh.constraints) {
    EXPECT_EQ(mass[3 * static_cast<std::size_t>(c.node)], 0.0);
  }
}

TEST(Solver, EnergyConservedWithoutDampingOrAbc) {
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.3;
  so.cfl_fraction = 0.3;
  ExplicitSolver solver(op, so);
  // Initial displacement bump in the interior, zero velocity.
  std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    const double r2 = std::pow(c[0] - 500.0, 2) + std::pow(c[1] - 500.0, 2) +
                      std::pow(c[2] - 500.0, 2);
    u0[3 * n] = std::exp(-r2 / (150.0 * 150.0));
  }
  solver.set_initial_conditions(u0, v0);
  std::vector<double> energies;
  solver.run(
      [&](int, double, std::span<const double>, std::span<const double>) {
        energies.push_back(solver.energy());
      },
      2);
  ASSERT_GE(energies.size(), 3u);
  for (double e : energies) {
    EXPECT_NEAR(e, energies.front(), 0.02 * energies.front());
  }
}

TEST(Solver, ResetThenRerunIsBitIdentical) {
  // reset() must return the solver to its just-constructed state: a second
  // run after reset matches a fresh solver bitwise (state vectors, receiver
  // histories, timing/flop accounting all cleared; registrations kept).
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.3;
  so.cfl_fraction = 0.3;
  const PointSource src(mesh, {500.0, 500.0, 400.0}, {1.0, 0.0, 0.5}, 1e9,
                        20.0, 0.05);
  const std::array<double, 3> rx = {700.0, 500.0, 0.0};

  ExplicitSolver fresh(op, so);
  fresh.add_source(&src);
  fresh.add_receiver(rx);
  fresh.run();

  ExplicitSolver reused(op, so);
  reused.add_source(&src);
  reused.add_receiver(rx);
  reused.run();
  // Dirty state everywhere: displacement, histories, elapsed time, flops.
  ASSERT_FALSE(reused.receivers()[0].u.empty());
  reused.reset();
  EXPECT_TRUE(reused.receivers()[0].u.empty());
  for (double v : reused.displacement()) EXPECT_EQ(v, 0.0);
  reused.run();

  ASSERT_EQ(reused.displacement().size(), fresh.displacement().size());
  EXPECT_EQ(std::memcmp(reused.displacement().data(),
                        fresh.displacement().data(),
                        fresh.displacement().size() * sizeof(double)),
            0);
  ASSERT_EQ(reused.receivers()[0].u.size(), fresh.receivers()[0].u.size());
  EXPECT_EQ(std::memcmp(reused.receivers()[0].u.data(),
                        fresh.receivers()[0].u.data(),
                        fresh.receivers()[0].u.size() * 3 * sizeof(double)),
            0);
}

TEST(Solver, EnergyDecaysWithAbsorbingBoundaries) {
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kLysmer;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 2.5;  // several crossing times
  so.cfl_fraction = 0.3;
  ExplicitSolver solver(op, so);
  // Kinetic initial condition: all energy radiates as body waves (a static
  // displacement bump would leave a slowly-relaxing near field the
  // dashpots cannot absorb).
  std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    const double r2 = std::pow(c[0] - 500.0, 2) + std::pow(c[1] - 500.0, 2) +
                      std::pow(c[2] - 500.0, 2);
    v0[3 * n] = std::exp(-r2 / (150.0 * 150.0));
  }
  solver.set_initial_conditions(u0, v0);
  const double e0 = solver.energy();
  solver.run();
  EXPECT_LT(solver.energy(), 0.1 * e0);
}

TEST(Solver, StaceyAlsoAbsorbs) {
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 2.5;
  so.cfl_fraction = 0.3;
  ExplicitSolver solver(op, so);
  // Kinetic initial condition: all energy radiates as body waves (a static
  // displacement bump would leave a slowly-relaxing near field the
  // dashpots cannot absorb).
  std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    const double r2 = std::pow(c[0] - 500.0, 2) + std::pow(c[1] - 500.0, 2) +
                      std::pow(c[2] - 500.0, 2);
    v0[3 * n] = std::exp(-r2 / (150.0 * 150.0));
  }
  solver.set_initial_conditions(u0, v0);
  const double e0 = solver.energy();
  solver.run();
  EXPECT_LT(solver.energy(), 0.1 * e0);
}

TEST(Solver, SecondOrderInTime) {
  // Fixed mesh, shrinking dt: the difference from a fine-dt reference
  // contracts ~4x per halving.
  const auto mesh = uniform_mesh(2, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);

  auto run_with_dt = [&](double dt) {
    SolverOptions so;
    so.dt = dt;
    so.t_end = 0.2;
    ExplicitSolver solver(op, so);
    std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      const auto& c = mesh.node_coords[n];
      u0[3 * n] = std::sin(c[0] / 1000.0 * 3.14159) *
                  std::sin(c[2] / 1000.0 * 3.14159);
    }
    solver.set_initial_conditions(u0, v0);
    solver.run();
    return std::vector<double>(solver.displacement().begin(),
                               solver.displacement().end());
  };

  const double dt0 = 0.2 / 32.0;
  const auto ref = run_with_dt(dt0 / 8.0);
  const auto c1 = run_with_dt(dt0);
  const auto c2 = run_with_dt(dt0 / 2.0);
  const double e1 = util::diff_l2(c1, ref);
  const double e2 = util::diff_l2(c2, ref);
  EXPECT_GT(e1 / e2, 3.0);
  EXPECT_LT(e1 / e2, 5.5);
}

TEST(Solver, ShColumnMatchesHalfspaceClosedForm) {
  // Vertically propagating SH pulse in a homogeneous halfspace: with the x
  // and z components fixed, the 3D hex solver reduces exactly to the 1D
  // column problem, and the surface response must be twice the incident
  // pulse (free-surface doubling).
  const double L = 1000.0, vs = 1000.0;
  const auto mesh = uniform_mesh(5, L);  // h = 31.25 m
  OperatorOptions oo;
  oo.abc = fem::AbcType::kLysmer;
  // Column problem: absorb only at the bottom; the lateral faces are
  // traction-free, which the component mask makes exact.
  oo.absorbing_sides = {false, false, false, false, false, true};
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.9;
  so.cfl_fraction = 0.4;
  ExplicitSolver solver(op, so);
  solver.set_fixed_components({true, false, true});

  const double zc = 550.0, sigma = 120.0, amp = 1.0;
  auto pulse = [&](double z) {
    return amp * std::exp(-std::pow((z - zc) / sigma, 2));
  };
  std::vector<double> u0(op.n_dofs(), 0.0), v0(op.n_dofs(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const double z = mesh.node_coords[n][2];
    u0[3 * n + 1] = pulse(z);
    // Upgoing wave u(z, t) = f(z + vs t): v0 = vs * f'(z).
    v0[3 * n + 1] =
        vs * (-2.0 * (z - zc) / (sigma * sigma)) * pulse(z);
  }
  solver.set_initial_conditions(u0, v0);
  solver.add_receiver({L / 2.0, L / 2.0, 0.0});
  solver.run();

  const auto rec = solver.receiver_component(0, 1);
  const double dt = solver.dt();
  std::vector<double> exact(rec.size());
  for (std::size_t k = 0; k < exact.size(); ++k) {
    const double t = (static_cast<double>(k) + 1.0) * dt;
    // Incident wave u = f(z + vs t) evaluated at the surface z = 0,
    // doubled by the free-surface reflection.
    exact[k] = 2.0 * pulse(vs * t);
  }
  EXPECT_LT(util::rel_l2(rec, exact), 0.08);
  // Peak amplitude doubles.
  EXPECT_NEAR(util::norm_max(rec), 2.0 * amp, 0.1);
}

TEST(Source, RampProperties) {
  const double t0 = 1.4;
  EXPECT_DOUBLE_EQ(ramp_g(-0.1, t0), 0.0);
  EXPECT_DOUBLE_EQ(ramp_g(t0 + 0.1, t0), 1.0);
  EXPECT_NEAR(ramp_g(t0 / 2.0, t0), 0.5, 1e-12);
  // dg/dt is a triangle of unit area and peak 2/t0.
  EXPECT_NEAR(ramp_g_dot(t0 / 2.0, t0), 2.0 / t0, 1e-12);
  double area = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) area += ramp_g_dot((i + 0.5) * t0 / n, t0) * t0 / n;
  EXPECT_NEAR(area, 1.0, 1e-6);
  // g is the integral of g_dot: monotone.
  double prev = 0.0;
  for (int i = 0; i <= 20; ++i) {
    const double g = ramp_g(i * t0 / 20.0, t0);
    EXPECT_GE(g, prev - 1e-15);
    prev = g;
  }
}

TEST(Source, RickerPeakAtCenter) {
  EXPECT_DOUBLE_EQ(ricker(1.0, 2.0, 1.0), 1.0);
  EXPECT_LT(std::abs(ricker(3.0, 2.0, 1.0)), 1e-6);
}

TEST(Source, FaultForcesAreSelfEquilibrating) {
  const auto mesh = uniform_mesh(3, 8000.0);
  FaultSource::Spec spec;
  spec.y = 4000.0;
  spec.x0 = 2000.0;
  spec.x1 = 6000.0;
  spec.z_top = 2000.0;
  spec.z_bot = 5000.0;
  spec.hypocenter = {4000.0, 3500.0};
  spec.rupture_velocity = 2800.0;
  spec.rise_time = 0.7;
  spec.slip = 1.0;
  const FaultSource src(mesh, spec);
  EXPECT_GT(src.n_patches(), 4u);
  std::vector<double> f(3 * mesh.n_nodes(), 0.0);
  src.add_forces(1.0, f);  // mid-rupture
  double fx = 0.0, fy = 0.0, fz = 0.0, fmax = 0.0;
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    fx += f[3 * n];
    fy += f[3 * n + 1];
    fz += f[3 * n + 2];
    fmax = std::max({fmax, std::abs(f[3 * n]), std::abs(f[3 * n + 1])});
  }
  EXPECT_GT(fmax, 0.0);
  EXPECT_NEAR(fx, 0.0, 1e-9 * fmax);
  EXPECT_NEAR(fy, 0.0, 1e-9 * fmax);
  EXPECT_NEAR(fz, 0.0, 1e-9 * fmax);
}

TEST(Source, PointSourceInjectsAtNearestNode) {
  const auto mesh = uniform_mesh(2, 100.0);
  PointSource src(mesh, {50.0, 50.0, 50.0}, {0.0, 0.0, 1.0}, 2.0, 5.0, 0.2);
  std::vector<double> f(3 * mesh.n_nodes(), 0.0);
  src.add_forces(0.2, f);  // ricker peak: amplitude * 1
  const std::size_t dof = 3 * static_cast<std::size_t>(src.node()) + 2;
  EXPECT_DOUBLE_EQ(f[dof], 2.0);
}

TEST(Sh1d, EqualImpedanceReducesToTransmission) {
  ShLayerParams p{100.0, 2000.0, 1000.0, 2000.0, 1000.0};
  auto inc = [](double t) { return std::exp(-std::pow((t - 0.5) / 0.05, 2)); };
  const auto u = sh_layer_surface_response(p, inc, 1000, 0.001);
  // Z1 == Z2: single arrival, amplitude 2, delayed by H/vs1 = 0.1 s.
  std::vector<double> expected(1000);
  for (int k = 0; k < 1000; ++k) expected[static_cast<std::size_t>(k)] = 2.0 * inc(k * 0.001 - 0.1);
  EXPECT_LT(quake::util::rel_l2(u, expected), 1e-12);
}

TEST(Sh1d, SoftLayerAmplifies) {
  // Soft layer over stiff halfspace: surface peak exceeds the halfspace
  // doubling because of impedance-contrast amplification.
  ShLayerParams p{100.0, 1700.0, 300.0, 2500.0, 2000.0};
  auto inc = [](double t) { return std::exp(-std::pow((t - 1.0) / 0.15, 2)); };
  const auto u = sh_layer_surface_response(p, inc, 4000, 0.001);
  EXPECT_GT(quake::util::norm_max(u), 2.2);
}

TEST(Solver, FlopAccountingPositive) {
  const auto mesh = uniform_mesh(2, 100.0);
  OperatorOptions oo;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.01;
  ExplicitSolver solver(op, so);
  solver.run();
  EXPECT_GT(solver.total_flops(), 0u);
  EXPECT_GT(op.flops_per_apply(), 0u);
}

// Checkpoint/restart of the serial time-stepper: a run that resumes from a
// mid-flight CRC32-verified snapshot reproduces the uninterrupted run
// bit-for-bit (state, receiver histories).
TEST(Solver, CheckpointResumeBitIdentical) {
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 1.0;
  oo.damping_f_max = 20.0;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.05;
  const PointSource src(mesh, {50.0, 50.0, 50.0}, {1.0, 0.5, 0.2}, 2.0, 40.0,
                        0.01);

  // Uninterrupted reference.
  ExplicitSolver ref(op, so);
  ref.add_source(&src);
  ref.add_receiver({80.0, 20.0, 0.0});
  ref.run();
  ASSERT_GT(ref.n_steps(), 4);

  const std::string path =
      (std::filesystem::temp_directory_path() / "quake_solver_test.ckpt")
          .string();
  std::remove(path.c_str());

  // First run writes periodic snapshots; the last lands before the end.
  {
    ExplicitSolver first(op, so);
    first.add_source(&src);
    first.add_receiver({80.0, 20.0, 0.0});
    first.set_checkpoint(path, std::max(1, ref.n_steps() / 3));
    first.run();
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // Second run resumes from the snapshot mid-flight and finishes.
  ExplicitSolver resumed(op, so);
  resumed.add_source(&src);
  resumed.add_receiver({80.0, 20.0, 0.0});
  resumed.set_checkpoint(path, 0);  // resume only, no further writes
  resumed.run();

  ASSERT_EQ(resumed.displacement().size(), ref.displacement().size());
  EXPECT_EQ(std::memcmp(resumed.displacement().data(),
                        ref.displacement().data(),
                        ref.displacement().size() * sizeof(double)),
            0);
  ASSERT_EQ(resumed.receivers()[0].u.size(), ref.receivers()[0].u.size());
  EXPECT_EQ(std::memcmp(resumed.receivers()[0].u.data(),
                        ref.receivers()[0].u.data(),
                        ref.receivers()[0].u.size() * sizeof(double) * 3),
            0);
  std::remove(path.c_str());
}

// A corrupted snapshot must be rejected (CRC) and the run must start over
// from step zero rather than integrate garbage.
TEST(Solver, CorruptedCheckpointIgnored) {
  const auto mesh = uniform_mesh(2, 100.0);
  OperatorOptions oo;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.02;

  ExplicitSolver ref(op, so);
  ref.run();

  const std::string path =
      (std::filesystem::temp_directory_path() / "quake_solver_bad.ckpt")
          .string();
  {
    ExplicitSolver first(op, so);
    first.set_checkpoint(path, std::max(1, ref.n_steps() / 2));
    first.run();
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  // Flip one byte in the middle of the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  ExplicitSolver resumed(op, so);
  resumed.set_checkpoint(path, 0);
  resumed.run();  // restore rejected -> full run from scratch
  EXPECT_EQ(std::memcmp(resumed.displacement().data(),
                        ref.displacement().data(),
                        ref.displacement().size() * sizeof(double)),
            0);
  std::remove(path.c_str());
}

}  // namespace

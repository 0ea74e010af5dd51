// Argument-validation and edge-case coverage across the public API: bad
// options must throw rather than corrupt state, degenerate inputs must be
// handled, and documented preconditions are enforced.

#include <gtest/gtest.h>

#include <cmath>

#include "quake/fem/hex_element.hpp"
#include "quake/inverse/inversion3d.hpp"
#include "quake/inverse/problem.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/opt/frankel.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/explicit_solver.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave2d/sh_model.hpp"
#include "quake/wave3d/scalar_model.hpp"

namespace {

using namespace quake;

TEST(EdgeCases, BuildOctreeRejectsBadLevels) {
  EXPECT_THROW(octree::build_octree([](const octree::Octant&) { return false; },
                                    -1),
               std::invalid_argument);
  EXPECT_THROW(octree::build_octree([](const octree::Octant&) { return false; },
                                    octree::kMaxLevel + 1),
               std::invalid_argument);
}

TEST(EdgeCases, EmptyRefinementGivesRootOnly) {
  const auto t =
      octree::build_octree([](const octree::Octant&) { return false; }, 5);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], octree::Octant{});
  EXPECT_TRUE(t.validate(true));
  EXPECT_TRUE(octree::is_balanced(t, octree::BalanceScope::kAll));
}

TEST(EdgeCases, MeshOptionsValidation) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions bad;
  bad.domain_size = 0.0;
  EXPECT_THROW(mesh::generate_mesh(m, bad), std::invalid_argument);
}

TEST(EdgeCases, SolverRejectsBadTimeSetup) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  const solver::ElasticOperator op(mesh, {});
  solver::SolverOptions so;
  so.t_end = -1.0;
  EXPECT_THROW(solver::ExplicitSolver(op, so), std::invalid_argument);
}

TEST(EdgeCases, PointSourceRejectsZeroDirection) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  EXPECT_THROW(solver::PointSource(mesh, {50, 50, 50}, {0, 0, 0}, 1.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(EdgeCases, FaultSourceRejectsDegeneratePlane) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  solver::FaultSource::Spec fs;
  fs.x0 = 60.0;
  fs.x1 = 40.0;  // inverted extent
  EXPECT_THROW(solver::FaultSource(mesh, fs), std::invalid_argument);
}

TEST(EdgeCases, Sh1dRejectsBadLayer) {
  solver::ShLayerParams p{0.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(
      solver::sh_layer_surface_response(p, [](double) { return 0.0; }, 10, 0.1),
      std::invalid_argument);
}

TEST(EdgeCases, ShModelValidation) {
  wave2d::ShGrid g{4, 4, 10.0};
  EXPECT_THROW(
      wave2d::ShModel(g, std::vector<double>(3, 1e9), 1000.0),  // wrong size
      std::invalid_argument);
  EXPECT_THROW(wave2d::ShModel(
                   g, std::vector<double>(static_cast<std::size_t>(g.n_elems()),
                                          -1.0),
                   1000.0),
               std::invalid_argument);
  EXPECT_THROW(wave2d::ShModel(
                   g, std::vector<double>(static_cast<std::size_t>(g.n_elems()),
                                          1e9),
                   0.0),
               std::invalid_argument);
}

TEST(EdgeCases, MarchValidation) {
  wave2d::ShGrid g{4, 4, 10.0};
  const wave2d::ShModel m(
      g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), 1e9),
      1000.0);
  EXPECT_THROW(inverse::march(m, 0.0, 10,
                              [](int, double, std::span<double>) {}, {},
                              false),
               std::invalid_argument);
  EXPECT_THROW(inverse::march(m, 0.01, 0,
                              [](int, double, std::span<double>) {}, {},
                              false),
               std::invalid_argument);
}

TEST(EdgeCases, Grid3dValidation) {
  wave3d::ScalarGrid3d bad{0, 4, 4, 10.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  wave3d::ScalarGrid3d g{2, 2, 2, 10.0};
  EXPECT_THROW(wave3d::ScalarModel3d(g, std::vector<double>(7, 1e9), 1000.0),
               std::invalid_argument);
}

// A missing or short observation series would be read out of bounds by
// the forward misfit; the constructor must reject it before any solve.
TEST(EdgeCases, InversionProblemRejectsBadObservations) {
  inverse::InversionSetup s;
  s.grid = {8, 6, 100.0};
  s.rho = 2000.0;
  s.fault = {4, 1, 4};
  s.source = wave2d::make_rupture_params(s.grid, s.fault, 1.0, 0.2, 2, 2500.0);
  s.receiver_nodes = {s.grid.node(2, 0), s.grid.node(6, 0)};
  s.dt = 0.01;
  s.nt = 12;
  const wave2d::ShModel m(
      s.grid, std::vector<double>(static_cast<std::size_t>(s.grid.n_elems()),
                                  2e9),
      s.rho);
  s.observations = {std::vector<double>(12, 0.0), std::vector<double>(5, 0.0)};
  EXPECT_THROW((void)inverse::InversionProblem(s).forward(m, s.source, false),
               std::invalid_argument);
}

TEST(EdgeCases, ScalarInversion3dRejectsBadObservations) {
  inverse::Setup3d s;
  s.grid = {3, 3, 3, 100.0};
  s.rho = 2000.0;
  s.sources = {{s.grid.node(1, 1, 2), 1e9, 2.0, 0.5}};
  s.receiver_nodes = {s.grid.node(1, 1, 0), s.grid.node(2, 2, 0)};
  s.dt = 0.005;
  s.nt = 12;
  const wave3d::ScalarModel3d m(
      s.grid, std::vector<double>(static_cast<std::size_t>(s.grid.n_elems()),
                                  2e9),
      s.rho);
  s.observations = {std::vector<double>(12, 0.0)};  // one receiver unobserved
  EXPECT_THROW((void)inverse::ScalarInversion3d(s).forward(m, false),
               std::invalid_argument);
  s.observations = {std::vector<double>(12, 0.0), std::vector<double>(11, 0.0)};
  EXPECT_THROW((void)inverse::ScalarInversion3d(s).forward(m, false),
               std::invalid_argument);
}

TEST(EdgeCases, FrankelHandlesZeroOperator) {
  // A zero operator has lambda_max = 0; the sweep must bail out cleanly.
  opt::LinOp zero = [](std::span<const double>, std::span<double>) {};
  std::vector<double> b(4, 1.0), x(4, 0.0);
  opt::FrankelOptions fo;
  fo.sweeps = 3;
  opt::frankel_two_step(zero, b, x, fo, nullptr);
  EXPECT_DOUBLE_EQ(util::norm_l2(x), 0.0);
}

TEST(EdgeCases, HexApplyFlopsAccounting) {
  EXPECT_GT(fem::hex_apply_flops(true), fem::hex_apply_flops(false));
  EXPECT_GT(fem::hex_apply_flops(false), 1000u);
}

TEST(EdgeCases, InitialConditionSizeChecked) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  const solver::ElasticOperator op(mesh, {});
  solver::SolverOptions so;
  so.t_end = 0.01;
  solver::ExplicitSolver solver(op, so);
  std::vector<double> wrong(5, 0.0);
  EXPECT_THROW(solver.set_initial_conditions(wrong, wrong),
               std::invalid_argument);
}

}  // namespace

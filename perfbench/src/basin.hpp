#pragma once

// The LA-basin forward problem shared by the `forward` and `recover`
// workloads: the Table 2.1 basin model meshed out of core through the
// etree path, a seeded kinematic fault source and seeded surface stations.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/source.hpp"
#include "quake/vel/model.hpp"

namespace pb {

namespace mesh = quake::mesh;
namespace par = quake::par;
namespace solver = quake::solver;

struct BasinCase {
  double extent = 25600.0;
  mesh::MeshOptions mesh_opt;
  double t_end = 0.0;
  solver::FaultSource::Spec fault;
  std::vector<std::array<double, 3>> stations;
};

// The LA-basin velocity model at the case's extent.
const quake::vel::BasinModel& basin_model();

// Sizes: 41910 elements, 64 steps (smoke: 2752 elements, 8 steps).
BasinCase make_basin_case(std::uint64_t seed, bool smoke);

// One set-up of the basin problem: the mesh, its resolved source, and a
// partition plus reusable parallel setup per rank count. Members are
// heap-held so the setups' references to mesh and partitions stay valid.
struct BasinSetup {
  std::unique_ptr<mesh::HexMesh> mesh;
  std::unique_ptr<solver::FaultSource> source;
  std::vector<std::unique_ptr<par::Partition>> parts;
  std::vector<std::unique_ptr<par::ParallelSetup>> setups;  // per rank count
};

// Builds the mesh out of core (etree store under `work_dir`), the source,
// and a partition and setup for each entry of `ranks`.
BasinSetup build_basin(const BasinCase& c, const std::vector<int>& ranks,
                       const std::string& work_dir, Trace& tr);

// One solve of the case (its fault source and stations) on `setup`.
par::ParallelResult solve(const BasinCase& c, const BasinSetup& b,
                          par::ParallelSetup& setup,
                          const par::FaultToleranceOptions& ft = {});

// Bitwise fingerprint of the final field and every seismogram.
std::uint64_t fingerprint(const par::ParallelResult& r);

// max |a - b| over final field and seismograms, relative to max |b|.
double max_rel_diff(const par::ParallelResult& a, const par::ParallelResult& b);

}  // namespace pb

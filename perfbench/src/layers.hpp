#pragma once

// Per-layer measurements shared by the traced runs: the set-up layers of
// the out-of-core mesh pipeline, replayed step by step through the public
// octree/etree/mesh/par entry points, and the single-layer timing of the
// operator pieces one explicit step is made of.

#include <string>

#include "common.hpp"
#include "quake/mesh/hex_mesh.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/vel/model.hpp"

namespace pb {

// Times construct, etree write (construct and balanced stores), etree scan
// (and its buffer-pool hit rate), balance, transform, SFC partition at
// `ranks`, and the ParallelSetup constructor; medians of `reps` passes.
// Checks the replayed mesh against generate_mesh_out_of_core's element
// count. Sets octree.*, mesh.transform_s, par.partition_s and
// par.setup_build_s.
void report_mesh_layers(const quake::vel::VelocityModel& model,
                        const quake::mesh::MeshOptions& mopt,
                        std::size_t expect_elements, int ranks, int reps,
                        const std::string& work_dir, Trace& tr, Report& rep);

// Serial operator pieces of one step on `mesh`, each a median over
// repetitions: the element kernel alone (every element, no faces), the
// Stacey faces alone, and the hanging-node fold (expand + accumulate).
struct OperatorTimes {
  double kernel_s = 0.0;
  double faces_s = 0.0;
  double fold_s = 0.0;
  double kernel_flops = 0.0;  // per sweep
  double kernel_bytes = 0.0;  // per sweep, computed from array sizes
};
OperatorTimes time_operator(const quake::mesh::HexMesh& mesh, int reps,
                            Trace& tr);

// Sustainable memory bandwidth [GB/s] of the in-place triad a = a + s*b
// over two arrays of `array_bytes` each (3 streams: read a, read b, write
// a), best of `passes`, on one thread and on `threads` threads.
struct Triad {
  double gbps_1t = 0.0;
  double gbps = 0.0;
};
Triad measure_triad(std::size_t array_bytes, int threads, int passes);

// Last-level cache size of cpu0 in bytes (0 when unknown).
std::size_t llc_bytes();

}  // namespace pb

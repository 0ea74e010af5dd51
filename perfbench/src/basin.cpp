#include "basin.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>


namespace pb {

const quake::vel::BasinModel& basin_model() {
  static const quake::vel::BasinModel model =
      quake::vel::BasinModel::demo(BasinCase{}.extent);
  return model;
}

BasinCase make_basin_case(std::uint64_t seed, bool smoke) {
  BasinCase c;
  c.mesh_opt.domain_size = c.extent;
  c.mesh_opt.f_max = smoke ? 0.05 : 0.25;
  c.mesh_opt.n_lambda = 8.0;
  c.mesh_opt.min_level = 3;
  c.mesh_opt.max_level = smoke ? 5 : 7;
  c.t_end = smoke ? 0.4 : 0.8;

  Rng rng(seed);
  const double L = c.extent;
  solver::FaultSource::Spec& f = c.fault;
  f.y = rng.uniform(0.45, 0.65) * L;
  // The fault's size and patch spacing are fixed (its patch count sets the
  // per-step source cost); the seed places it and its hypocenter.
  f.x0 = rng.uniform(0.15, 0.45) * L;
  f.x1 = f.x0 + 0.3 * L;
  f.z_top = rng.uniform(500.0, 1500.0);
  f.z_bot = f.z_top + 4000.0;
  f.patch_spacing = 250.0;
  f.hypocenter = {rng.uniform(f.x0, f.x1), rng.uniform(f.z_top, f.z_bot)};
  f.rise_time = rng.uniform(1.5, 2.5);
  f.slip = 1.0;
  for (int i = 0; i < 8; ++i) {
    c.stations.push_back(
        {rng.uniform(0.1, 0.9) * L, rng.uniform(0.1, 0.9) * L, 0.0});
  }
  return c;
}

BasinSetup build_basin(const BasinCase& c, const std::vector<int>& ranks,
                       const std::string& work_dir, Trace& tr) {
  BasinSetup b;
  {
    SpanScope s(tr, "mesh.generate_out_of_core");
    b.mesh = std::make_unique<mesh::HexMesh>(mesh::generate_mesh_out_of_core(
        basin_model(), c.mesh_opt, work_dir + "/basin.etree"));
  }
  {
    SpanScope s(tr, "solver.source_build");
    b.source = std::make_unique<solver::FaultSource>(*b.mesh, c.fault);
  }
  for (const int r : ranks) {
    {
      SpanScope s(tr, "par.partition");
      b.parts.push_back(
          std::make_unique<par::Partition>(par::partition_sfc(*b.mesh, r)));
    }
    SpanScope s(tr, "par.setup_build");
    b.setups.push_back(std::make_unique<par::ParallelSetup>(
        *b.mesh, *b.parts.back(), solver::OperatorOptions{},
        solver::SolverOptions{}));
  }
  return b;
}

par::ParallelResult solve(const BasinCase& c, const BasinSetup& b,
                          par::ParallelSetup& setup,
                          const par::FaultToleranceOptions& ft) {
  const solver::SourceModel* sources[] = {b.source.get()};
  return setup.run(c.t_end, sources, c.stations, ft);
}

std::uint64_t fingerprint(const par::ParallelResult& r) {
  std::uint64_t h = fnv1a(r.u_final.data(), r.u_final.size() * sizeof(double));
  for (const auto& hist : r.receiver_histories) {
    h = fnv1a(hist.data(), hist.size() * sizeof(hist[0]), h);
  }
  return h;
}

double max_rel_diff(const par::ParallelResult& a,
                    const par::ParallelResult& b) {
  if (a.u_final.size() != b.u_final.size() ||
      a.receiver_histories.size() != b.receiver_histories.size()) {
    return INFINITY;
  }
  double diff = 0.0, scale = 0.0;
  const auto acc = [&](double x, double y) {
    diff = std::max(diff, std::abs(x - y));
    scale = std::max(scale, std::abs(y));
  };
  for (std::size_t i = 0; i < a.u_final.size(); ++i) {
    acc(a.u_final[i], b.u_final[i]);
  }
  for (std::size_t r = 0; r < a.receiver_histories.size(); ++r) {
    const auto& ha = a.receiver_histories[r];
    const auto& hb = b.receiver_histories[r];
    if (ha.size() != hb.size()) return INFINITY;
    for (std::size_t k = 0; k < ha.size(); ++k) {
      for (int d = 0; d < 3; ++d) acc(ha[k][d], hb[k][d]);
    }
  }
  return scale > 0.0 ? diff / scale : diff;
}

}  // namespace pb

#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/octree/etree_store.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/elastic_operator.hpp"

namespace pb {

namespace octree = quake::octree;
namespace mesh = quake::mesh;
namespace par = quake::par;
namespace solver = quake::solver;

namespace {

// Writes every leaf into a fresh store with the centroid shear velocity as
// payload, as the out-of-core pipeline does.
void write_store(const std::string& path, const octree::LinearOctree& tree,
                 const quake::vel::VelocityModel& model, double m_per_tick) {
  octree::EtreeStore store(path, sizeof(double), /*pool_pages=*/64,
                           /*create=*/true);
  for (const octree::Octant& o : tree.leaves()) {
    const double s = o.size() * m_per_tick;
    const double vs = model
                          .at(o.x * m_per_tick + 0.5 * s,
                              o.y * m_per_tick + 0.5 * s,
                              o.z * m_per_tick + 0.5 * s)
                          .vs();
    store.put(o, std::as_bytes(std::span<const double, 1>(&vs, 1)));
  }
  store.flush();
}

}  // namespace

void report_mesh_layers(const quake::vel::VelocityModel& model,
                        const mesh::MeshOptions& mopt,
                        std::size_t expect_elements, int ranks, int reps,
                        const std::string& work_dir, Trace& tr, Report& rep) {
  const double m_per_tick =
      mopt.domain_size / static_cast<double>(octree::kTicks);
  const std::string path = work_dir + "/layers.etree";
  std::vector<double> construct, write, scan, balance, transform, partition,
      setup_build, hit_rate;
  for (int k = 0; k < reps; ++k) {
    octree::LinearOctree built;
    construct.push_back(timed([&] {
      SpanScope s(tr, "octree.construct");
      built = octree::build_octree(mesh::wavelength_policy(model, mopt),
                                   mopt.max_level);
    }));
    double w = timed([&] {
      SpanScope s(tr, "octree.etree_write");
      write_store(path, built, model, m_per_tick);
    });
    std::vector<octree::Octant> leaves;
    scan.push_back(timed([&] {
      SpanScope s(tr, "octree.etree_scan");
      octree::EtreeStore store(path, sizeof(double), 64, /*create=*/false);
      store.scan([&leaves](const octree::Octant& o,
                           std::span<const std::byte> /*payload*/) {
        leaves.push_back(o);
      });
      const auto st = store.stats();
      const double fetches =
          static_cast<double>(st.cache_hits + st.page_reads);
      hit_rate.push_back(fetches > 0 ? st.cache_hits / fetches : 0.0);
    }));
    octree::LinearOctree balanced;
    balance.push_back(timed([&] {
      SpanScope s(tr, "octree.balance");
      balanced = octree::balance(octree::LinearOctree(std::move(leaves)),
                                 octree::BalanceScope::kAll);
    }));
    w += timed([&] {
      SpanScope s(tr, "octree.etree_write");
      write_store(path + ".balanced", balanced, model, m_per_tick);
    });
    write.push_back(w);
    mesh::HexMesh m;
    transform.push_back(timed([&] {
      SpanScope s(tr, "mesh.transform");
      m = mesh::transform(balanced, model, mopt);
    }));
    rep.check(m.n_elements() == expect_elements,
              "replayed mesh pipeline matches generate_mesh_out_of_core");
    par::Partition part;
    partition.push_back(timed([&] {
      SpanScope s(tr, "par.partition");
      part = par::partition_sfc(m, ranks);
    }));
    setup_build.push_back(timed([&] {
      SpanScope s(tr, "par.setup_build");
      par::ParallelSetup setup(m, part, solver::OperatorOptions{},
                               solver::SolverOptions{});
    }));
  }
  rep.set("octree.construct_s", median(construct), "s");
  rep.set("octree.etree_write_s", median(write), "s");
  rep.set("octree.etree_scan_s", median(scan), "s");
  rep.set("octree.etree_hit_rate", median(hit_rate), "frac");
  rep.set("octree.balance_s", median(balance), "s");
  rep.set("mesh.transform_s", median(transform), "s");
  rep.set("par.partition_s", median(partition), "s");
  rep.set("par.setup_build_s", median(setup_build), "s");
}

OperatorTimes time_operator(const mesh::HexMesh& m, int reps, Trace& tr) {
  const solver::ElasticOperator op(m, solver::OperatorOptions{});
  std::vector<mesh::ElemId> elems(m.n_elements());
  std::iota(elems.begin(), elems.end(), 0);
  std::vector<std::int32_t> faces(m.boundary_faces.size());
  std::iota(faces.begin(), faces.end(), 0);

  Rng rng(7);
  std::vector<double> u(op.n_dofs()), y(op.n_dofs(), 0.0);
  for (double& x : u) x = rng.uniform(-1e-3, 1e-3);
  op.expand_constraints(u);

  std::vector<double> kernel, face, fold;
  for (int k = 0; k < reps; ++k) {
    std::fill(y.begin(), y.end(), 0.0);
    kernel.push_back(timed([&] {
      SpanScope s(tr, "fem.kernel");
      op.apply_stiffness_subset(elems, {}, u, y, {});
    }));
    face.push_back(timed([&] {
      SpanScope s(tr, "fem.faces");
      op.apply_stiffness_subset({}, faces, u, y, {});
    }));
    fold.push_back(timed([&] {
      SpanScope s(tr, "solver.fold");
      op.expand_constraints(u);
      op.accumulate_constraints(y);
    }));
  }
  OperatorTimes t;
  t.kernel_s = median(kernel);
  t.faces_s = median(face);
  t.fold_s = median(fold);
  const double E = static_cast<double>(m.n_elements());
  const double dofs = static_cast<double>(op.n_dofs());
  t.kernel_flops = E * static_cast<double>(quake::fem::hex_apply_flops(false));
  // Compulsory traffic of one sweep from the array sizes: u read once, y
  // read and written once, and each element's connectivity, size,
  // material and list index read once. Node reuse across neighbouring
  // elements is assumed to hit in cache.
  t.kernel_bytes = dofs * 8.0 * 3.0 +
                   E * static_cast<double>(sizeof(m.elem_nodes[0]) +
                                           sizeof(m.elem_size[0]) +
                                           sizeof(m.elem_mat[0]) +
                                           sizeof(mesh::ElemId));
  return t;
}

Triad measure_triad(std::size_t array_bytes, int threads, int passes) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const auto sweep = [&](int nt, double s) {
    std::vector<std::thread> pool;
    for (int t = 0; t < nt; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / nt, hi = n * (t + 1) / nt;
        double* x = a.get();
        const double* y = b.get();
        for (std::size_t i = lo; i < hi; ++i) x[i] = x[i] + s * y[i];
      });
    }
    for (std::thread& th : pool) th.join();
  };
  // First touch from the same thread split the timed sweeps use.
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads, hi = n * (t + 1) / threads;
        std::fill(a.get() + lo, a.get() + hi, 1.0);
        std::fill(b.get() + lo, b.get() + hi, 0.5);
      });
    }
    for (std::thread& th : pool) th.join();
  }
  const double bytes = 3.0 * static_cast<double>(n) * sizeof(double);
  Triad r;
  for (int p = 0; p < passes; ++p) {
    const double one = timed([&] { sweep(1, 1e-9); });
    const double all = timed([&] { sweep(threads, 1e-9); });
    r.gbps_1t = std::max(r.gbps_1t, bytes / one * 1e-9);
    r.gbps = std::max(r.gbps, bytes / all * 1e-9);
  }
  return r;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(i) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    std::size_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    best = std::max<std::size_t>(best, std::stoull(s) * mult);
  }
  return best;
}

}  // namespace pb

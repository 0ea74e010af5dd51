// bench_throughput — the serving A/B behind docs/SERVICE.md: N scenario
// requests through one warm SimulationService (shared ParallelSetup,
// per-request solves) against N independent cold runs that each pay the
// full pipeline (velocity model -> octree -> etree store -> balance ->
// re-persist -> transform -> operator -> partition -> ghost plans ->
// solve, i.e. generate_mesh_out_of_core). The paper's cost split
// says setup dominates a short solve, so the warm path should finish in a
// fraction of the cold wall-clock; the bench measures that amortization,
// verifies the warm results are BIT-IDENTICAL to the cold ones, and then
// injects a mid-solve rank kill into one request to show failure isolation:
// the victim fails alone, its neighbors' results stay bit-identical, and
// the same service keeps serving afterwards.
//
// A lane sweep rides on the same scenarios: requests/sec through L worker
// lanes, each a full ParallelSetup replica. It is checked bitwise against
// the cold baseline — more lanes must change throughput only, never a
// single bit of any seismogram.
//
//   bench_throughput [--quick] [--json PATH] [--csv PATH]
//                    [--requests N] [--lanes L1,L2,...]
//
// Emits a "quake.bench/1" report (default BENCH_throughput.json) with rows
// params.mode = cold | warm | lanes | kill; tools/check_bench_schema pins
// the throughput contract (requests completed, cold-vs-warm wall seconds,
// zero failed requests in the clean trial, >= 2 lane counts with
// bitwise-checked requests/sec, bitwise kill isolation).

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/sink.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/svc/simulation_service.hpp"
#include "quake/util/timer.hpp"

namespace {

using namespace quake;

struct Scenario {
  svc::PointSourceSpec src;
  std::vector<std::array<double, 3>> receivers;
};

// Deterministic per-index scenarios: distinct epicenters, shared stations.
Scenario make_scenario(std::size_t i, double extent) {
  Scenario s;
  s.src.position = {extent * (0.25 + 0.06 * static_cast<double>(i % 8)),
                    extent * (0.40 + 0.03 * static_cast<double>(i % 4)),
                    2000.0 + 500.0 * static_cast<double>(i % 3)};
  s.src.direction = {0.0, 0.0, 1.0};
  s.src.amplitude = 1.0e6;
  s.src.fp = 2.0;
  s.src.tc = 0.2;
  s.receivers = {{extent * 0.5, extent * 0.5, 0.0},
                 {extent * 0.3, extent * 0.6, 0.0}};
  return s;
}

// "1,2,4" -> {1, 2, 4}; exits via the caller's usage message on garbage.
std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string tok = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    out.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

using History = std::vector<std::vector<std::array<double, 3>>>;

bool histories_bitwise_equal(const History& a, const History& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t k = 0; k < a[r].size(); ++k) {
      if (std::memcmp(a[r][k].data(), b[r][k].data(), 3 * sizeof(double)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_throughput.json";
  std::string csv_path;
  int n_requests = 8;                      // requests per arm (--requests)
  std::vector<int> lane_counts = {1, 2};   // lane sweep (--lanes)
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--csv") == 0 && a + 1 < argc) {
      csv_path = argv[++a];
    } else if (std::strcmp(argv[a], "--requests") == 0 && a + 1 < argc) {
      n_requests = std::stoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--lanes") == 0 && a + 1 < argc) {
      lane_counts = parse_int_list(argv[++a]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json PATH] [--csv PATH] "
                   "[--requests N] [--lanes L1,L2,...]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::set_enabled(true);
  obs::MetricsSink sink("throughput");

  const double extent = 20000.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);
  mesh::MeshOptions mopt;
  mopt.domain_size = extent;
  mopt.f_max = quick ? 0.12 : 0.2;
  mopt.n_lambda = 8.0;
  mopt.min_level = 2;
  mopt.max_level = quick ? 6 : 7;

  const int R = 2;             // ranks (small: the host serializes threads)
  const int N = n_requests;    // requests per arm (the A/B size)
  const int target_steps = quick ? 6 : 16;
  const int trials = quick ? 2 : 3;

  // The mesh pipeline both arms use: the etree-database path (construct ->
  // store -> scan -> balance -> re-persist -> transform), the paper's
  // expensive "load" phase. The service pays it ONCE at startup; each cold
  // run pays it again.
  const std::string store_base = "/tmp/bench_throughput";
  const auto load_mesh = [&](const std::string& tag) {
    const std::string path = store_base + "." + tag + ".etree";
    mesh::HexMesh m = mesh::generate_mesh_out_of_core(model, mopt, path);
    std::remove(path.c_str());
    std::remove((path + ".balanced").c_str());
    return m;
  };

  // The service's shared discretization (built once, like a server at
  // startup). Cold runs below regenerate all of this per request.
  const mesh::HexMesh mesh = load_mesh("svc");
  const par::Partition part = par::partition_sfc(mesh, R);
  solver::OperatorOptions oopt;
  solver::SolverOptions sopt;
  sopt.cfl_fraction = 0.4;
  // Fix the run length in steps (short solves are the serving-relevant
  // regime; both paths derive the identical CFL dt from the same mesh).
  const double dt_probe =
      solver::ElasticOperator(mesh, oopt).stable_dt(sopt.cfl_fraction);
  const double t_end = 0.999 * target_steps * dt_probe;

  std::vector<Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    scenarios.push_back(make_scenario(static_cast<std::size_t>(i), extent));
  }

  std::printf("throughput A/B: %d requests, %d ranks, %zu nodes, %d steps "
              "per solve, %d interleaved trials\n",
              N, R, mesh.n_nodes(), target_steps, trials);

  // ---- cold arm: full pipeline per request --------------------------------
  std::vector<par::ParallelResult> cold_results;
  const auto cold_arm = [&]() {
    util::Timer t;
    std::vector<par::ParallelResult> results;
    results.reserve(static_cast<std::size_t>(N));
    for (int i = 0; i < N; ++i) {
      const Scenario& sc = scenarios[static_cast<std::size_t>(i)];
      const mesh::HexMesh m = load_mesh("cold" + std::to_string(i));
      const par::Partition p = par::partition_sfc(m, R);
      const solver::PointSource src(m, sc.src.position, sc.src.direction,
                                    sc.src.amplitude, sc.src.fp, sc.src.tc);
      const solver::SourceModel* sources[] = {&src};
      solver::SolverOptions so = sopt;
      so.t_end = t_end;
      results.push_back(
          par::run_parallel(m, p, oopt, so, sources, sc.receivers));
    }
    const double wall = t.seconds();
    cold_results = std::move(results);
    return wall;
  };

  // ---- warm arm: N requests through one service ---------------------------
  std::vector<svc::ScenarioResult> warm_results;
  double setup_seconds = 0.0;
  obs::Registry warm_metrics;
  const auto warm_arm = [&]() {
    util::Timer ts;
    solver::SolverOptions so = sopt;
    so.t_end = t_end;
    svc::ServiceOptions o;
    o.queue_bound = static_cast<std::size_t>(N) + 4;
    svc::SimulationService service(mesh, part, oopt, so, o);
    setup_seconds = ts.seconds();
    util::Timer t;
    std::vector<svc::SimulationService::Ticket> tickets;
    tickets.reserve(static_cast<std::size_t>(N));
    for (int i = 0; i < N; ++i) {
      const Scenario& sc = scenarios[static_cast<std::size_t>(i)];
      svc::ScenarioRequest req;
      req.point_sources = {sc.src};
      req.receivers = sc.receivers;
      req.t_end = t_end;
      tickets.push_back(service.submit(std::move(req)));
    }
    std::vector<svc::ScenarioResult> results;
    results.reserve(tickets.size());
    for (auto& tk : tickets) results.push_back(tk.result.get());
    const double wall = t.seconds();
    warm_metrics = service.metrics();
    warm_results = std::move(results);
    return wall;
  };

  // Interleaved trials (cold, warm, cold, warm, ...) so host noise spreads
  // over both arms; min-over-trials is the headline (least-disturbed) run.
  double cold_min = 1e300, cold_sum = 0.0;
  double warm_min = 1e300, warm_sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    const double c = cold_arm();
    cold_min = std::min(cold_min, c);
    cold_sum += c;
    const double w = warm_arm();
    warm_min = std::min(warm_min, w);
    warm_sum += w;
  }

  int completed = 0;
  for (const auto& r : warm_results) {
    if (r.status == svc::RequestStatus::kCompleted) ++completed;
  }
  bool bitwise = completed == N;
  for (int i = 0; i < N && bitwise; ++i) {
    bitwise = histories_bitwise_equal(
        warm_results[static_cast<std::size_t>(i)].solve.receiver_histories,
        cold_results[static_cast<std::size_t>(i)].receiver_histories);
  }
  const double ratio = cold_min > 0.0 ? warm_min / cold_min : 0.0;
  const auto warm_failed = warm_metrics.counters["svc/requests_failed"];

  std::printf("  cold: %.3f s min / %.3f s mean  (full pipeline x%d)\n",
              cold_min, cold_sum / trials, N);
  std::printf("  warm: %.3f s min / %.3f s mean  (+ %.3f s one-time setup)\n",
              warm_min, warm_sum / trials, setup_seconds);
  std::printf("  warm/cold = %.3f (target <= 0.50); results bit-identical: "
              "%s; failed: %lld\n",
              ratio, bitwise ? "yes" : "NO (bug!)",
              static_cast<long long>(warm_failed));

  obs::Json& cold_row = sink.new_row();
  cold_row.set("params", obs::Json::object()
                             .set("mode", "cold")
                             .set("ranks", R)
                             .set("n_requests", N)
                             .set("f_max", mopt.f_max)
                             .set("max_level", mopt.max_level)
                             .set("t_end", t_end)
                             .set("trials", trials));
  cold_row.set("metrics",
               obs::Json::object()
                   .set("n_steps", target_steps)
                   .set("wall_seconds_min", cold_min)
                   .set("wall_seconds_mean", cold_sum / trials)
                   .set("per_request_seconds", cold_min / N));

  obs::Json series = obs::Json::object();
  for (const char* name :
       {"svc/latency_seconds", "svc/queue_seconds", "svc/solve_seconds"}) {
    const auto it = warm_metrics.series.find(name);
    if (it == warm_metrics.series.end()) continue;
    obs::Json arr = obs::Json::array();
    for (const double v : it->second) arr.push_back(v);
    series.set(name, std::move(arr));
  }
  obs::Json& warm_row = sink.new_row();
  warm_row.set("params", obs::Json::object()
                             .set("mode", "warm")
                             .set("ranks", R)
                             .set("n_requests", N)
                             .set("f_max", mopt.f_max)
                             .set("max_level", mopt.max_level)
                             .set("t_end", t_end)
                             .set("trials", trials));
  warm_row.set(
      "metrics",
      obs::Json::object()
          .set("n_steps", target_steps)
          .set("requests_completed", completed)
          .set("warm_wall_seconds", warm_min)
          .set("wall_seconds_mean", warm_sum / trials)
          .set("cold_wall_seconds", cold_min)
          .set("warm_over_cold", ratio)
          .set("setup_seconds", setup_seconds)
          .set("warm_matches_cold_bitwise", bitwise ? 1 : 0)
          .set("svc_requests_failed", warm_failed));
  warm_row.set("series", std::move(series));
  if (!warm_results.empty()) {
    warm_row.set("ranks",
                 obs::to_json(warm_results.back().solve.obs_summary));
  }

  // ---- lane sweep: requests/sec vs worker lanes ---------------------------
  // Each lane count L gets its own service (L full ParallelSetup replicas,
  // L shards, L workers); the same N requests drain through it and every
  // seismogram must stay bitwise identical to the cold single-lane baseline.
  bool lanes_ok = true;
  for (const int L : lane_counts) {
    double lane_min = 1e300, lane_sum = 0.0;
    std::vector<svc::ScenarioResult> lane_results;
    long long lane_failed = 0;
    for (int t = 0; t < trials; ++t) {
      solver::SolverOptions so = sopt;
      so.t_end = t_end;
      svc::ServiceOptions o;
      o.queue_bound = static_cast<std::size_t>(N) + 4;
      o.lanes = L;
      svc::SimulationService service(mesh, part, oopt, so, o);
      util::Timer timer;
      std::vector<svc::SimulationService::Ticket> tickets;
      tickets.reserve(static_cast<std::size_t>(N));
      for (int i = 0; i < N; ++i) {
        const Scenario& sc = scenarios[static_cast<std::size_t>(i)];
        svc::ScenarioRequest req;
        req.point_sources = {sc.src};
        req.receivers = sc.receivers;
        req.t_end = t_end;
        tickets.push_back(service.submit(std::move(req)));
      }
      std::vector<svc::ScenarioResult> results;
      results.reserve(tickets.size());
      for (auto& tk : tickets) results.push_back(tk.result.get());
      const double wall = timer.seconds();
      lane_min = std::min(lane_min, wall);
      lane_sum += wall;
      lane_failed = service.metrics().counters["svc/requests_failed"];
      lane_results = std::move(results);
    }
    int lane_completed = 0;
    for (const auto& r : lane_results) {
      if (r.status == svc::RequestStatus::kCompleted) ++lane_completed;
    }
    bool lane_bitwise = lane_completed == N;
    for (int i = 0; i < N && lane_bitwise; ++i) {
      lane_bitwise = histories_bitwise_equal(
          lane_results[static_cast<std::size_t>(i)].solve.receiver_histories,
          cold_results[static_cast<std::size_t>(i)].receiver_histories);
    }
    if (!lane_bitwise || lane_failed != 0) lanes_ok = false;
    const double rps = lane_min > 0.0 ? N / lane_min : 0.0;
    std::printf("  lanes=%d: %.3f s min (%.2f req/s); bit-identical to "
                "single-lane: %s\n",
                L, lane_min, rps, lane_bitwise ? "yes" : "NO (bug!)");

    obs::Json& lane_row = sink.new_row();
    lane_row.set("params", obs::Json::object()
                               .set("mode", "lanes")
                               .set("lanes", L)
                               .set("ranks", R)
                               .set("n_requests", N)
                               .set("t_end", t_end)
                               .set("trials", trials));
    lane_row.set("metrics",
                 obs::Json::object()
                     .set("wall_seconds_min", lane_min)
                     .set("wall_seconds_mean", lane_sum / trials)
                     .set("requests_per_second", rps)
                     .set("requests_completed", lane_completed)
                     .set("matches_single_lane_bitwise", lane_bitwise ? 1 : 0)
                     .set("svc_requests_failed", lane_failed));
  }

  // ---- kill trial: one request dies mid-solve, the rest must not notice --
  // Request 1 carries a FaultPlan that kills rank R-1 mid-step with no
  // recovery budget; it must fail alone. The SAME service then serves a
  // clean batch, whose results are compared bitwise against the victims'
  // neighbors — proving both isolation and that the service survives.
  const int n_kill_batch = 4;
  par::FaultPlan plan;
  plan.kills.push_back({R - 1, target_steps / 2});
  int kill_failed = 0, kill_completed = 0;
  bool isolation = true, service_survived = true;
  {
    solver::SolverOptions so = sopt;
    so.t_end = t_end;
    svc::ServiceOptions o;
    o.queue_bound = static_cast<std::size_t>(2 * n_kill_batch);
    svc::SimulationService service(mesh, part, oopt, so, o);

    const auto serve_requests = [&](bool with_kill) {
      std::vector<svc::SimulationService::Ticket> tickets;
      for (int i = 0; i < n_kill_batch; ++i) {
        const Scenario& sc = scenarios[static_cast<std::size_t>(i)];
        svc::ScenarioRequest req;
        req.point_sources = {sc.src};
        req.receivers = sc.receivers;
        req.t_end = t_end;
        if (with_kill && i == 1) req.ft.fault_plan = &plan;
        tickets.push_back(service.submit(std::move(req)));
      }
      std::vector<svc::ScenarioResult> results;
      for (auto& tk : tickets) results.push_back(tk.result.get());
      return results;
    };

    const auto killed = serve_requests(/*with_kill=*/true);
    const auto clean = serve_requests(/*with_kill=*/false);
    for (int i = 0; i < n_kill_batch; ++i) {
      const auto& k = killed[static_cast<std::size_t>(i)];
      const auto& c = clean[static_cast<std::size_t>(i)];
      if (c.status != svc::RequestStatus::kCompleted) service_survived = false;
      if (i == 1) {
        if (k.status == svc::RequestStatus::kFailed) ++kill_failed;
        continue;
      }
      if (k.status == svc::RequestStatus::kCompleted) ++kill_completed;
      if (k.status != svc::RequestStatus::kCompleted ||
          !histories_bitwise_equal(k.solve.receiver_histories,
                                   c.solve.receiver_histories)) {
        isolation = false;
      }
    }
  }
  const bool kill_ok =
      kill_failed == 1 && kill_completed == n_kill_batch - 1 && isolation;

  std::printf("  kill trial: victim failed: %s; %d/%d neighbors completed "
              "bit-identically: %s; service survived: %s\n",
              kill_failed == 1 ? "yes" : "NO (bug!)", kill_completed,
              n_kill_batch - 1, isolation ? "yes" : "NO (bug!)",
              service_survived ? "yes" : "NO (bug!)");

  obs::Json& kill_row = sink.new_row();
  kill_row.set("params", obs::Json::object()
                             .set("mode", "kill")
                             .set("ranks", R)
                             .set("n_requests", n_kill_batch)
                             .set("kill_step", target_steps / 2)
                             .set("t_end", t_end));
  kill_row.set("metrics",
               obs::Json::object()
                   .set("requests_failed", kill_failed)
                   .set("requests_completed", kill_completed)
                   .set("kill_isolation_bitwise", kill_ok ? 1 : 0)
                   .set("service_survived", service_survived ? 1 : 0));

  sink.write_json(json_path);
  if (!csv_path.empty()) sink.write_csv(csv_path);
  std::printf("report: %s\n", json_path.c_str());

  // Exit nonzero on a correctness violation (wall-clock ratios are noisy on
  // a loaded host, so the <= 0.5 target is reported, not enforced here).
  return (bitwise && lanes_ok && kill_ok && service_survived &&
          warm_failed == 0)
             ? 0
             : 1;
}

// perfbench — the repository's benchmark program (see perfbench/README.md).
//
//   perfbench --workload forward|serve|recover|invert --seed N --seconds S
//             --trace 0|1 [--smoke] [--work-dir DIR] [--trace-out PATH]
//             [--ladder R1,R2,... --nominal R --limit S --lanes L
//              --ranks-per-lane R --queue-bound Q]
//
// Prints one JSON result line last: the end-to-end metrics (--trace 0) or
// the per-layer metrics this workload measures (--trace 1). Exits 1 when a
// correctness check failed or an operation failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    out.push_back(std::stod(s.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--work-dir DIR] [--trace-out PATH] "
               "[serve options]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string k = argv[a];
      if (k == "--smoke") {
        opt.smoke = true;
        continue;
      }
      if (a + 1 >= argc) return usage(argv[0]);
      const std::string v = argv[++a];
      if (k == "--workload") opt.workload = v;
      else if (k == "--seed") opt.seed = std::stoull(v);
      else if (k == "--seconds") opt.seconds = std::stod(v);
      else if (k == "--trace") opt.trace = std::stoi(v) != 0;
      else if (k == "--work-dir") opt.work_dir = v;
      else if (k == "--trace-out") opt.trace_out = v;
      else if (k == "--ladder") opt.ladder = parse_list(v);
      else if (k == "--nominal") opt.nominal_rps = std::stod(v);
      else if (k == "--limit") opt.limit_s = std::stod(v);
      else if (k == "--lanes") opt.lanes = std::stoi(v);
      else if (k == "--ranks-per-lane") opt.ranks_per_lane = std::stoi(v);
      else if (k == "--queue-bound") opt.queue_bound = std::stoi(v);
      else return usage(argv[0]);
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }

  int (*run)(const pb::Options&, pb::Report&, pb::Trace&) = nullptr;
  if (opt.workload == "forward") run = pb::run_forward;
  else if (opt.workload == "serve") run = pb::run_serve;
  else if (opt.workload == "recover") run = pb::run_recover;
  else if (opt.workload == "invert") run = pb::run_invert;
  else return usage(argv[0]);

  pb::Report rep;
  pb::Trace tr;
  try {
    if (!opt.smoke) pb::spin_warmup(1.0, 4);
    if (run(opt, rep, tr) != 0) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!opt.trace) {
    rep.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
    rep.set("ok_frac", rep.ok_frac(), "frac");
  } else if (!opt.trace_out.empty() && !tr.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  rep.print();
  return rep.ok() ? 0 : 1;
}

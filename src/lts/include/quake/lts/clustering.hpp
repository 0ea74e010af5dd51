#pragma once

// Clustered local time stepping (LTS), part 1: the clustering pass.
//
// The mesh's whole premise (§2.2) is one-to-two orders of magnitude of
// wavelength contrast, yet a single global dt makes every element pay the
// CFL bound of the worst cell. Clustering computes the per-element stable
// step dt_e = cfl * h_e / vp_e, bins elements into power-of-two rate
// multiples of the base (global) step, and normalizes the binning so any
// two adjacent elements differ by at most one rate level — the clustered
// rate-2 scheme of Breuer & Heinecke's "Next-Generation Local Time
// Stepping for ADER-DG" (PAPERS.md), transplanted onto the explicit
// central-difference update. Adjacency includes coupling through
// hanging-node constraints: an element touching a hanging node is adjacent
// to every element touching one of that node's masters.
//
// Three derived cadences (all power-of-two multiples of the base step):
//   element *rate*  — the stability bin: rate * base_dt <= dt_e;
//   node rate       — update cadence: min rate over touching elements,
//                     folded across each constraint group (a hanging node
//                     and its masters share one cadence, which is what
//                     keeps hanging nodes time-consistent);
//   element *class* — compute cadence: min node rate over the element's
//                     nodes. Interior elements of a cluster compute at
//                     their own rate; elements on a rate interface
//                     recompute at the neighboring finer rate so every
//                     node update sees fresh partials (see docs/LTS.md).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "quake/mesh/hex_mesh.hpp"

namespace quake::lts {

struct LtsOptions {
  // Cap on the rate multipliers, clamped to the nearest power of two below.
  // max_rate = 1 is the global-dt scheme.
  int max_rate = 1;
};

struct Clustering {
  double base_dt = 0.0;  // the fine step every rate multiplies [s]
  int n_classes = 1;     // rate levels in use: rates 1 << c, c < n_classes

  std::vector<std::uint8_t> elem_rate_log2;   // stability bin (normalized)
  std::vector<std::uint8_t> elem_class_log2;  // compute cadence
  std::vector<std::uint8_t> node_rate_log2;   // update cadence

  std::vector<std::size_t> rate_histogram;    // elements per stability bin
  std::vector<std::size_t> class_histogram;   // elements per compute class

  [[nodiscard]] int max_rate() const { return 1 << (n_classes - 1); }

  // The classes that run at fine step k: class c runs iff 2^c divides k
  // (k = 0 starts every class), so they are the prefix c <= active_cap(k).
  [[nodiscard]] static int active_cap(int n_classes, int k) {
    return k == 0 ? n_classes - 1
                  : std::min(n_classes - 1,
                             std::countr_zero(static_cast<unsigned>(k)));
  }

  // Element-kernel applications per fine step, as a fraction of the
  // global-dt scheme's (sum over elements of 1/class, over n_elements).
  [[nodiscard]] double predicted_update_fraction() const;
  // The headline ratio: global element updates over LTS element updates
  // (>= 1; the inverse of the fraction above).
  [[nodiscard]] double predicted_updates_saved() const;
};

// Per-element stable step cfl_fraction * h_e / vp_e. The minimum over
// elements is ElasticOperator::stable_dt(cfl_fraction).
[[nodiscard]] std::vector<double> element_stable_dt(const mesh::HexMesh& mesh,
                                                    double cfl_fraction);

// The full clustering pass: per-element stable dt, power-of-two binning
// against `base_dt` (pass the solver's actual fine step so the clustering
// cannot drift from it), +-1 adjacency normalization, and the histograms.
// `max_rate` caps the rate multipliers. Throws std::invalid_argument on a
// non-positive base_dt or max_rate.
[[nodiscard]] Clustering cluster_elements(const mesh::HexMesh& mesh,
                                          double base_dt, double cfl_fraction,
                                          int max_rate);

// Upper bound on the updates-saved ratio from the octree level histogram
// alone: assumes uniform material, where dt_e halves per level so the rate
// doubles per level of coarsening. The material-aware prediction is
// cluster_elements(...).predicted_updates_saved().
[[nodiscard]] double level_updates_saved_bound(const mesh::HexMesh& mesh,
                                               int max_rate);

}  // namespace quake::lts

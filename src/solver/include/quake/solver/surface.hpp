#pragma once

// Surface output extraction: maps free-surface mesh nodes onto a regular
// image raster for the wavefield visualizations of Figs 2.3/2.5 (each pixel
// takes the nearest surface node), and accumulates peak ground velocity.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "quake/mesh/hex_mesh.hpp"

namespace quake::solver {

class SurfaceRaster {
 public:
  // Builds the pixel -> nearest-surface-node map for an img x img raster
  // over the full (x, y) extent of the mesh.
  SurfaceRaster(const mesh::HexMesh& mesh, int img);

  [[nodiscard]] int size() const { return img_; }

  // Velocity magnitude per pixel from a full-length velocity field.
  [[nodiscard]] std::vector<double> velocity_magnitude(
      std::span<const double> v) const;

  // Component (0..2) of a full-length field per pixel.
  [[nodiscard]] std::vector<double> component(std::span<const double> u,
                                              int comp) const;

  // Updates the running per-pixel peak with the given magnitudes.
  void update_peak(std::span<const double> magnitudes);
  [[nodiscard]] std::span<const double> peak() const& { return peak_; }
  std::span<const double> peak() const&& = delete;

  // Writes a PGM of the given per-pixel values in [lo, hi].
  void write_pgm(const std::string& path, std::span<const double> values,
                 double lo, double hi) const;

 private:
  int img_;
  std::vector<mesh::NodeId> pixel_node_;
  std::vector<double> peak_;
};

}  // namespace quake::solver

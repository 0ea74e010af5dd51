#include "quake/wave3d/scalar_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "quake/fem/hex_element.hpp"

namespace quake::wave3d {

void ScalarGrid3d::elem_nodes(int e, int out[8]) const {
  const int i = e % nx;
  const int j = (e / nx) % ny;
  const int k = e / (nx * ny);
  for (int c = 0; c < 8; ++c) {
    out[c] = node(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
  }
}

void ScalarGrid3d::validate() const {
  if (nx < 1 || ny < 1 || nz < 1 || !(h > 0.0)) {
    throw std::invalid_argument("ScalarGrid3d: bad dimensions");
  }
}

ScalarModel3d::ScalarModel3d(const ScalarGrid3d& grid, std::vector<double> mu,
                             double rho)
    : grid_(grid), mu_(std::move(mu)), rho_(rho) {
  grid_.validate();
  if (mu_.size() != static_cast<std::size_t>(grid_.n_elems())) {
    throw std::invalid_argument("ScalarModel3d: mu size mismatch");
  }
  for (double m : mu_) {
    if (!(m > 0.0)) throw std::invalid_argument("ScalarModel3d: mu > 0");
  }

  mass_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  const double mnode = rho_ * grid_.h * grid_.h * grid_.h / 8.0;
  int conn[8];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) {
      mass_[static_cast<std::size_t>(conn[c])] += mnode;
    }
  }

  // Absorbing faces: all cube sides except the free surface z = 0.
  auto add_quad = [&](int n0, int n1, int n2, int n3, int e) {
    quads_.push_back({{n0, n1, n2, n3}, e});
  };
  for (int k = 0; k < grid_.nz; ++k) {
    for (int j = 0; j < grid_.ny; ++j) {
      add_quad(grid_.node(0, j, k), grid_.node(0, j + 1, k),
               grid_.node(0, j, k + 1), grid_.node(0, j + 1, k + 1),
               grid_.elem(0, j, k));
      add_quad(grid_.node(grid_.nx, j, k), grid_.node(grid_.nx, j + 1, k),
               grid_.node(grid_.nx, j, k + 1),
               grid_.node(grid_.nx, j + 1, k + 1),
               grid_.elem(grid_.nx - 1, j, k));
    }
  }
  for (int k = 0; k < grid_.nz; ++k) {
    for (int i = 0; i < grid_.nx; ++i) {
      add_quad(grid_.node(i, 0, k), grid_.node(i + 1, 0, k),
               grid_.node(i, 0, k + 1), grid_.node(i + 1, 0, k + 1),
               grid_.elem(i, 0, k));
      add_quad(grid_.node(i, grid_.ny, k), grid_.node(i + 1, grid_.ny, k),
               grid_.node(i, grid_.ny, k + 1),
               grid_.node(i + 1, grid_.ny, k + 1),
               grid_.elem(i, grid_.ny - 1, k));
    }
  }
  for (int j = 0; j < grid_.ny; ++j) {
    for (int i = 0; i < grid_.nx; ++i) {
      add_quad(grid_.node(i, j, grid_.nz), grid_.node(i + 1, j, grid_.nz),
               grid_.node(i, j + 1, grid_.nz),
               grid_.node(i + 1, j + 1, grid_.nz),
               grid_.elem(i, j, grid_.nz - 1));
    }
  }

  damping_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  for (const BoundaryQuad& q : quads_) {
    const double c = std::sqrt(rho_ * mu_[static_cast<std::size_t>(q.elem)]) *
                     grid_.h * grid_.h / 4.0;
    for (int n : q.nodes) damping_[static_cast<std::size_t>(n)] += c;
  }
}

void ScalarModel3d::apply_k(std::span<const double> u,
                            std::span<double> y) const {
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) ue[c] = u[static_cast<std::size_t>(conn[c])];
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue, mu_[static_cast<std::size_t>(e)] * grid_.h,
                          ye);
    for (int c = 0; c < 8; ++c) y[static_cast<std::size_t>(conn[c])] += ye[c];
  }
}

void ScalarModel3d::apply_k_delta(std::span<const double> dmu,
                                  std::span<const double> u,
                                  std::span<double> y) const {
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    const double d = dmu[static_cast<std::size_t>(e)];
    if (d == 0.0) continue;
    grid_.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) ue[c] = u[static_cast<std::size_t>(conn[c])];
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue, d * grid_.h, ye);
    for (int c = 0; c < 8; ++c) y[static_cast<std::size_t>(conn[c])] += ye[c];
  }
}

void ScalarModel3d::accumulate_k_form(std::span<const double> lambda,
                                      std::span<const double> u,
                                      std::span<double> ge) const {
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8], le[8];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) {
      ue[c] = u[static_cast<std::size_t>(conn[c])];
      le[c] = lambda[static_cast<std::size_t>(conn[c])];
    }
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue, grid_.h, ye);
    double s = 0.0;
    for (int c = 0; c < 8; ++c) s += le[c] * ye[c];
    ge[static_cast<std::size_t>(e)] += s;
  }
}

void ScalarModel3d::apply_c_delta(std::span<const double> dmu,
                                  std::span<const double> v,
                                  std::span<double> y) const {
  for (const BoundaryQuad& q : quads_) {
    const double d = dmu[static_cast<std::size_t>(q.elem)];
    if (d == 0.0) continue;
    const double mu_e = mu_[static_cast<std::size_t>(q.elem)];
    const double dc =
        0.5 * std::sqrt(rho_ / mu_e) * grid_.h * grid_.h / 4.0 * d;
    for (int n : q.nodes) {
      y[static_cast<std::size_t>(n)] += dc * v[static_cast<std::size_t>(n)];
    }
  }
}

void ScalarModel3d::accumulate_c_form(std::span<const double> lambda,
                                      std::span<const double> v,
                                      std::span<double> ge) const {
  for (const BoundaryQuad& q : quads_) {
    const double mu_e = mu_[static_cast<std::size_t>(q.elem)];
    const double dc = 0.5 * std::sqrt(rho_ / mu_e) * grid_.h * grid_.h / 4.0;
    double s = 0.0;
    for (int n : q.nodes) {
      s += lambda[static_cast<std::size_t>(n)] * v[static_cast<std::size_t>(n)];
    }
    ge[static_cast<std::size_t>(q.elem)] += dc * s;
  }
}

double ScalarModel3d::stable_dt(double cfl_fraction) const {
  double mu_max = 0.0;
  for (double m : mu_) mu_max = std::max(mu_max, m);
  return cfl_fraction * grid_.h / std::sqrt(mu_max / rho_);
}

}  // namespace quake::wave3d

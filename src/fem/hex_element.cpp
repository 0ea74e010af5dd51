#include "quake/fem/hex_element.hpp"

#include <cmath>

namespace quake::fem {
namespace {

// Trilinear shape function derivatives on the unit cube at (x, y, z).
// Node i at corner ((i&1), (i>>1)&1, (i>>2)&1).
struct ShapeGrad {
  std::array<std::array<double, 3>, 8> d;  // d[node][axis]
};

ShapeGrad shape_gradients(double x, double y, double z) {
  ShapeGrad g;
  for (int i = 0; i < 8; ++i) {
    const double sx = (i & 1) ? 1.0 : -1.0;
    const double sy = (i & 2) ? 1.0 : -1.0;
    const double sz = (i & 4) ? 1.0 : -1.0;
    const double fx = (i & 1) ? x : 1.0 - x;
    const double fy = (i & 2) ? y : 1.0 - y;
    const double fz = (i & 4) ? z : 1.0 - z;
    g.d[static_cast<std::size_t>(i)] = {sx * fy * fz, fx * sy * fz,
                                        fx * fy * sz};
  }
  return g;
}

HexReference compute_reference() {
  HexReference ref;
  ref.k_lambda.fill(0.0);
  ref.k_mu.fill(0.0);
  ref.k_lambda_t.fill(0.0);
  ref.k_mu_t.fill(0.0);
  ref.k_scalar.fill(0.0);

  // 2x2 Gauss points on [0,1].
  const double gp[2] = {0.5 - 0.5 / std::sqrt(3.0), 0.5 + 0.5 / std::sqrt(3.0)};
  const double w = 0.125;  // (1/2)^3 per point

  for (double x : gp) {
    for (double y : gp) {
      for (double z : gp) {
        const ShapeGrad g = shape_gradients(x, y, z);
        for (int i = 0; i < 8; ++i) {
          const auto& gi = g.d[static_cast<std::size_t>(i)];
          for (int j = 0; j < 8; ++j) {
            const auto& gj = g.d[static_cast<std::size_t>(j)];
            const double dot3 =
                gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2];
            ref.k_scalar[static_cast<std::size_t>(i * 8 + j)] += w * dot3;
            for (int a = 0; a < 3; ++a) {
              for (int b = 0; b < 3; ++b) {
                const std::size_t row = static_cast<std::size_t>(3 * i + a);
                const std::size_t col = static_cast<std::size_t>(3 * j + b);
                // lambda (div u)(div v): dNi/da * dNj/db.
                ref.k_lambda[row * kHexDofs + col] += w * gi[a] * gj[b];
                // mu term: grad u : grad v  +  grad u : (grad v)^T
                //   = delta_ab (grad Ni . grad Nj) + dNi/db * dNj/da.
                double v = gi[b] * gj[a];
                if (a == b) v += dot3;
                ref.k_mu[row * kHexDofs + col] += w * v;
              }
            }
          }
        }
      }
    }
  }
  for (int r = 0; r < kHexDofs; ++r) {
    for (int c = 0; c < kHexDofs; ++c) {
      const std::size_t rc = static_cast<std::size_t>(r) * kHexDofs +
                             static_cast<std::size_t>(c);
      const std::size_t cr = static_cast<std::size_t>(c) * kHexDofs +
                             static_cast<std::size_t>(r);
      ref.k_lambda_t[cr] = ref.k_lambda[rc];
      ref.k_mu_t[cr] = ref.k_mu[rc];
    }
  }
  return ref;
}

}  // namespace

const HexReference& HexReference::get() {
  static const HexReference ref = compute_reference();
  return ref;
}

void hex_apply(const HexReference& ref, const double* u_e, double scale_lambda,
               double scale_mu, double* y_e, double beta_e, double* y_damp) {
  // Row-blocked form of the fused dual matvec. A block of kRowBlock output
  // rows accumulates side by side; input dof c contributes to all of them
  // with one broadcast of u_e[c] against contiguous runs of the transposed
  // matrices (k_*_t[c * 24 + r0 ...]). Those entries are bitwise copies of
  // k_*[r * 24 + c], and each accumulator still sums in ascending c — the
  // exact operation sequence of hex_apply_ref per row — so the blocked
  // kernel is bitwise identical to the reference while the compiler gets
  // independent unit-stride accumulators to vectorize.
  constexpr int kRowBlock = 8;
  static_assert(kHexDofs % kRowBlock == 0);
  for (int r0 = 0; r0 < kHexDofs; r0 += kRowBlock) {
    double sl[kRowBlock] = {0.0}, sm[kRowBlock] = {0.0};
    for (int c = 0; c < kHexDofs; ++c) {
      const double uc = u_e[c];
      const double* klc = &ref.k_lambda_t[static_cast<std::size_t>(c) *
                                              kHexDofs +
                                          static_cast<std::size_t>(r0)];
      const double* kmc =
          &ref.k_mu_t[static_cast<std::size_t>(c) * kHexDofs +
                      static_cast<std::size_t>(r0)];
      for (int i = 0; i < kRowBlock; ++i) {
        sl[i] += klc[i] * uc;
        sm[i] += kmc[i] * uc;
      }
    }
    for (int i = 0; i < kRowBlock; ++i) {
      const double v = scale_lambda * sl[i] + scale_mu * sm[i];
      y_e[r0 + i] += v;
      if (y_damp != nullptr) y_damp[r0 + i] += beta_e * v;
    }
  }
}

void hex_apply_ref(const HexReference& ref, const double* u_e,
                   double scale_lambda, double scale_mu, double* y_e,
                   double beta_e, double* y_damp) {
  for (int r = 0; r < kHexDofs; ++r) {
    const double* kl = &ref.k_lambda[static_cast<std::size_t>(r) * kHexDofs];
    const double* km = &ref.k_mu[static_cast<std::size_t>(r) * kHexDofs];
    double sl = 0.0, sm = 0.0;
    for (int c = 0; c < kHexDofs; ++c) {
      sl += kl[c] * u_e[c];
      sm += km[c] * u_e[c];
    }
    const double v = scale_lambda * sl + scale_mu * sm;
    y_e[r] += v;
    if (y_damp != nullptr) y_damp[r] += beta_e * v;
  }
}

void hex_apply_elems(const HexReference& ref, const double* u_e, int n_elems,
                     const double* scale_lambda, const double* scale_mu,
                     double* y_e, const double* beta_e, double* y_damp) {
  for (int e = 0; e < n_elems; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * kHexDofs;
    hex_apply(ref, u_e + off, scale_lambda[e], scale_mu[e], y_e + off,
              beta_e != nullptr ? beta_e[e] : 0.0,
              y_damp != nullptr ? y_damp + off : nullptr);
  }
}

void hex_diagonal(const HexReference& ref, double scale_lambda,
                  double scale_mu, std::array<double, kHexDofs>& diag) {
  for (int r = 0; r < kHexDofs; ++r) {
    const std::size_t rr = static_cast<std::size_t>(r) * kHexDofs +
                           static_cast<std::size_t>(r);
    diag[static_cast<std::size_t>(r)] =
        scale_lambda * ref.k_lambda[rr] + scale_mu * ref.k_mu[rr];
  }
}

void hex_scalar_apply(const HexReference& ref, const double* u_e, double scale,
                      double* y_e) {
  for (int r = 0; r < kHexNodes; ++r) {
    const double* k = &ref.k_scalar[static_cast<std::size_t>(r) * kHexNodes];
    double s = 0.0;
    for (int c = 0; c < kHexNodes; ++c) s += k[c] * u_e[c];
    y_e[r] += scale * s;
  }
}

}  // namespace quake::fem

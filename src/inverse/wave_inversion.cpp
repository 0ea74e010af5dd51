#include "quake/inverse/wave_inversion.hpp"

#include <string>

namespace quake::inverse {

void Survey::validate(const char* who) const {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!(dt > 0.0) || nt < 1) fail("bad dt/nt");
  if (observations.empty()) return;
  if (observations.size() != receiver_nodes.size()) {
    fail("observations mismatch");
  }
  for (const auto& series : observations) {
    if (series.size() != static_cast<std::size_t>(nt)) {
      fail("observation series length != nt");
    }
  }
}

void compute_misfit(const Survey& s, ForwardOut& out) {
  if (s.observations.empty()) return;
  const Records& records = out.march.records;
  out.residuals.resize(records.size());
  double j = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    out.residuals[r].resize(records[r].size());
    for (std::size_t k = 0; k < records[r].size(); ++k) {
      const double res = records[r][k] - s.observations[r][k];
      out.residuals[r][k] = res;
      j += res * res;
    }
  }
  out.misfit = 0.5 * s.dt * j;
}

void add_adjoint_forcing(const Survey& s, const Records& driver, int tau,
                         std::span<double> f) {
  // Reversed-time source: f~^tau = -R^{nt-tau} / dt, where R^j carries the
  // driver at observation index j-1.
  const double inv_dt = 1.0 / s.dt;
  const std::size_t obs = static_cast<std::size_t>(s.nt - tau - 1);
  for (std::size_t r = 0; r < s.receiver_nodes.size(); ++r) {
    f[static_cast<std::size_t>(s.receiver_nodes[r])] -= driver[r][obs] * inv_dt;
  }
}

const std::vector<double>* state_at(const History& u, int k) {
  if (k <= 0) return nullptr;
  return &u[static_cast<std::size_t>(k - 1)];
}

}  // namespace quake::inverse

#include "omega/omega_stat.hpp"

#include <limits>
#include <numeric>
#include <vector>

#include "util/contract.hpp"

namespace ldla {

namespace {

double pairs2(double k) { return k * (k - 1.0) / 2.0; }

double omega_from_sums(double sum_l, double sum_r, double cross,
                       std::size_t l, std::size_t w) {
  const double n_within = pairs2(static_cast<double>(l)) +
                          pairs2(static_cast<double>(w - l));
  const double n_cross = static_cast<double>(l) * static_cast<double>(w - l);
  if (n_within <= 0.0 || n_cross <= 0.0) return 0.0;
  const double numer = (sum_l + sum_r) / n_within;
  const double denom = cross / n_cross;
  if (denom <= 0.0) {
    return numer > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return numer / denom;
}

double omega_at(const detail::OmegaPrefix& ps, std::size_t l) {
  const std::size_t w = ps.within.size() - 1;
  const double cross = ps.prefix_upper[l] - ps.within[l];
  const double sum_r = ps.within[w] - ps.within[l] - cross;
  return omega_from_sums(ps.within[l], sum_r, cross, l, w);
}

detail::OmegaPrefix prefix_of(const LdMatrix& r2) {
  LDLA_EXPECT(r2.rows() == r2.cols(), "window matrix must be square");
  return detail::omega_prefix(
      r2.rows(), [&r2](std::size_t i, std::size_t j) { return r2(i, j); });
}

}  // namespace

double omega_at_split(const LdMatrix& r2, std::size_t l) {
  LDLA_EXPECT(l >= 1 && l < r2.rows(),
              "split must leave both groups non-empty");
  return omega_at(prefix_of(r2), l);
}

OmegaMax omega_max(const LdMatrix& r2) {
  return detail::omega_max_from_prefix(prefix_of(r2));
}

OmegaMax detail::omega_max_from_prefix(const OmegaPrefix& ps) {
  OmegaMax best;
  for (std::size_t l = 1; l + 1 < ps.within.size(); ++l) {
    const double omega = omega_at(ps, l);
    if (omega > best.omega) {
      best.omega = omega;
      best.split = l;
    }
  }
  return best;
}

LdMatrix window_r2(const BitMatrix& g, std::size_t snp_begin,
                   std::size_t snp_end, const GemmConfig& cfg) {
  LDLA_EXPECT(snp_begin <= snp_end && snp_end <= g.snps(),
              "window out of range");
  if (snp_begin == snp_end) return LdMatrix(0, 0);
  std::vector<std::size_t> rows(snp_end - snp_begin);
  std::iota(rows.begin(), rows.end(), snp_begin);
  LdOptions opts;
  opts.gemm = cfg;
  return ld_matrix(g.gather_rows(rows), opts);
}

}  // namespace ldla

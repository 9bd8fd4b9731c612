#include "core/genotype_ld.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "util/contract.hpp"

namespace ldla {

DosagePlanes extract_dosage_planes(const GenotypeMatrix& g) {
  DosagePlanes out{BitMatrix(g.snps(), g.individuals()),
                   BitMatrix(g.snps(), g.individuals())};
  for (std::size_t s = 0; s < g.snps(); ++s) {
    for (std::size_t ind = 0; ind < g.individuals(); ++ind) {
      LDLA_EXPECT(!g.is_missing(s, ind),
                  "genotype GEMM fast path requires complete data");
      const unsigned d = g.dosage(s, ind);
      if (d == 1) out.lo.set(s, ind, true);
      if (d == 2) out.hi.set(s, ind, true);
    }
  }
  return out;
}

namespace {

struct Moments {
  double sum = 0.0;     ///< sum of dosages
  double sum_sq = 0.0;  ///< sum of squared dosages
};

// Pearson r^2 from pair-separable moments; identical arithmetic to the
// pairwise baseline so the two agree exactly on complete data.
double r2_from(const Moments& mi, const Moments& mj, double sum_xy,
               double n) {
  const double cov = n * sum_xy - mi.sum * mj.sum;
  const double var_i = n * mi.sum_sq - mi.sum * mi.sum;
  const double var_j = n * mj.sum_sq - mj.sum * mj.sum;
  const double denom = var_i * var_j;
  if (denom <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double r2 = (cov * cov) / denom;
  return r2 > 1.0 ? 1.0 : r2;
}

std::vector<Moments> plane_moments(const DosagePlanes& planes) {
  std::vector<Moments> m(planes.lo.snps());
  for (std::size_t s = 0; s < m.size(); ++s) {
    const double n1 = static_cast<double>(planes.lo.derived_count(s));
    const double n2 = static_cast<double>(planes.hi.derived_count(s));
    m[s] = {n1 + 2.0 * n2, n1 + 4.0 * n2};
  }
  return m;
}

}  // namespace

LdMatrix genotype_ld_matrix(const GenotypeMatrix& g, const GemmConfig& cfg) {
  const std::size_t n = g.snps();
  LdMatrix out(n, n);
  if (n == 0) return out;
  LDLA_EXPECT(g.individuals() > 1, "need at least two individuals");

  const DosagePlanes planes = extract_dosage_planes(g);
  const std::vector<Moments> m = plane_moments(planes);

  // Three GEMMs give every cross moment.
  CountMatrix ll(n, n), hh(n, n), lh(n, n);
  syrk_count(planes.lo.view(), ll.ref(), cfg);
  syrk_count(planes.hi.view(), hh.ref(), cfg);
  gemm_count(planes.lo.view(), planes.hi.view(), lh.ref(), cfg);

  const double n_ind = static_cast<double>(g.individuals());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double sum_xy = static_cast<double>(ll(i, j)) +
                            2.0 * static_cast<double>(lh(i, j)) +
                            2.0 * static_cast<double>(lh(j, i)) +
                            4.0 * static_cast<double>(hh(i, j));
      out(i, j) = r2_from(m[i], m[j], sum_xy, n_ind);
    }
  }
  return out;
}

void genotype_ld_scan(const GenotypeMatrix& g, const LdTileVisitor& visit,
                      const GemmConfig& cfg, std::size_t slab_rows) {
  LDLA_EXPECT(visit != nullptr, "genotype scan needs a visitor");
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(g.individuals() > 1, "need at least two individuals");
  LDLA_EXPECT(slab_rows > 0, "slab height must be positive");

  const DosagePlanes planes = extract_dosage_planes(g);
  const std::vector<Moments> m = plane_moments(planes);
  const double n_ind = static_cast<double>(g.individuals());

  const std::size_t max_rows = std::min(slab_rows, n);
  CountMatrix ll(max_rows, n), hh(max_rows, n), lh(max_rows, n),
      hl(max_rows, n);
  AlignedBuffer<double> values(max_rows * n);

  for (std::size_t r0 = 0; r0 < n; r0 += slab_rows) {
    const std::size_t rows = std::min(slab_rows, n - r0);
    const std::size_t cols = r0 + rows;
    auto slab_ref = [&](CountMatrix& c) {
      CountMatrixRef ref{c.ref().data, rows, cols, n};
      for (std::size_t i = 0; i < rows; ++i) {
        std::fill_n(&ref.at(i, 0), cols, 0u);
      }
      return ref;
    };
    CountMatrixRef ll_ref = slab_ref(ll);
    CountMatrixRef hh_ref = slab_ref(hh);
    CountMatrixRef lh_ref = slab_ref(lh);
    CountMatrixRef hl_ref = slab_ref(hl);

    gemm_count(planes.lo.view(r0, r0 + rows), planes.lo.view(0, cols), ll_ref,
               cfg);
    gemm_count(planes.hi.view(r0, r0 + rows), planes.hi.view(0, cols), hh_ref,
               cfg);
    gemm_count(planes.lo.view(r0, r0 + rows), planes.hi.view(0, cols), lh_ref,
               cfg);
    gemm_count(planes.hi.view(r0, r0 + rows), planes.lo.view(0, cols), hl_ref,
               cfg);

    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        const double sum_xy = static_cast<double>(ll_ref.at(i, j)) +
                              2.0 * static_cast<double>(lh_ref.at(i, j)) +
                              2.0 * static_cast<double>(hl_ref.at(i, j)) +
                              4.0 * static_cast<double>(hh_ref.at(i, j));
        values[i * cols + j] = r2_from(m[r0 + i], m[j], sum_xy, n_ind);
      }
    }
    visit(LdTile{r0, 0, rows, cols, values.data(), cols});
  }
}

}  // namespace ldla

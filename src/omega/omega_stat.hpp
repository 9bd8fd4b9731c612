// The omega statistic of Kim & Nielsen (2004) — the selective-sweep
// detector OmegaPlus builds on LD (the paper's second comparator and its
// motivating application).
//
// For a window of w SNPs split after the l-th SNP into a left group L and a
// right group R:
//
//             ( C(l,2) + C(w-l,2) )^-1  ( sum_{i<j in L} r2 + sum_{i<j in R} r2 )
//   omega_l = ---------------------------------------------------------------
//             ( l (w-l) )^-1  sum_{i in L, j in R} r2
//
// High omega = strong LD within each flank but weak LD across them — the
// signature left by a completed selective sweep between the groups.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/ld.hpp"

namespace ldla {

/// omega for one split of a window whose pairwise r^2 matrix is given.
/// `l` SNPs go left (1 <= l <= w-1). NaN r^2 entries (monomorphic SNPs)
/// contribute zero. Returns 0 when the cross term vanishes with empty
/// within-groups, and +inf when within-LD is positive but cross-LD is zero.
double omega_at_split(const LdMatrix& r2, std::size_t l);

struct OmegaMax {
  double omega = 0.0;
  std::size_t split = 0;  ///< best l
};

/// omega maximized over all splits of the window (OmegaPlus's omega_max),
/// computed in O(w^2) total via prefix sums.
OmegaMax omega_max(const LdMatrix& r2);

namespace detail {

/// Prefix sums of a w-SNP window: within[l] sums r^2 over pairs i < j < l,
/// prefix_upper[l] over pairs i < l, j > i.
struct OmegaPrefix { std::vector<double> within, prefix_upper; };

/// The one omega reduction body, over any accessor r2(i, j) with i < j < w.
/// Each entry is read once; row sums add in ascending j and column sums in
/// ascending i, so an LdMatrix and the sweep scan's band ring holding the
/// same r^2 values give bit-identical omega. Non-finite entries count 0.
template <class R2>
OmegaPrefix omega_prefix(std::size_t w, const R2& r2) {
  OmegaPrefix ps{std::vector<double>(w + 1), std::vector<double>(w + 1)};
  std::vector<double> upper(w);
  for (std::size_t j = 0; j < w; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double r = r2(i, j);
      const double v = std::isfinite(r) ? r : 0.0;
      upper[i] += v;
      col += v;
    }
    ps.within[j + 1] = ps.within[j] + col;
  }
  for (std::size_t l = 0; l < w; ++l) {
    ps.prefix_upper[l + 1] = ps.prefix_upper[l] + upper[l];
  }
  return ps;
}

/// omega_max over the splits of the window omega_prefix summed.
OmegaMax omega_max_from_prefix(const OmegaPrefix& ps);

}  // namespace detail

/// Pairwise r^2 matrix of a contiguous SNP window via the GEMM engine
/// (ld_matrix over the window's rows).
LdMatrix window_r2(const BitMatrix& g, std::size_t snp_begin,
                   std::size_t snp_end, const GemmConfig& cfg = {});

}  // namespace ldla

#include "core/missing.hpp"

#include <limits>

#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "util/contract.hpp"

namespace ldla {

MaskedBitMatrix::MaskedBitMatrix(BitMatrix states, BitMatrix valid)
    : states_(std::move(states)), valid_(std::move(valid)) {
  LDLA_EXPECT(states_.snps() == valid_.snps() &&
                  states_.samples() == valid_.samples(),
              "state and validity matrices must have identical dimensions");
  // Enforce X = S & C so the GEMM reformulation holds.
  for (std::size_t s = 0; s < states_.snps(); ++s) {
    std::uint64_t* x = states_.row_data(s);
    const std::uint64_t* c = valid_.row_data(s);
    for (std::size_t w = 0; w < states_.words_per_snp(); ++w) {
      x[w] &= c[w];
    }
  }
}

MaskedBitMatrix MaskedBitMatrix::from_snp_strings(
    std::span<const std::string> snps) {
  if (snps.empty()) return {};
  const std::size_t samples = snps.front().size();
  BitMatrix states(snps.size(), samples);
  BitMatrix valid(snps.size(), samples);
  for (std::size_t s = 0; s < snps.size(); ++s) {
    const std::string& str = snps[s];
    if (str.size() != samples) {
      throw ParseError("SNP " + std::to_string(s) +
                       " length mismatch in masked matrix");
    }
    for (std::size_t i = 0; i < samples; ++i) {
      switch (str[i]) {
        case '1':
          states.set(s, i, true);
          valid.set(s, i, true);
          break;
        case '0':
          valid.set(s, i, true);
          break;
        case '-':
        case 'N':
          break;  // missing: invalid, state stays 0
        default:
          throw ParseError(std::string("invalid state '") + str[i] +
                           "' in masked SNP " + std::to_string(s));
      }
    }
  }
  return MaskedBitMatrix(std::move(states), std::move(valid));
}

double ld_value_missing(LdStatistic stat, std::uint64_t ci_masked,
                        std::uint64_t cj_masked, std::uint64_t cij_masked,
                        std::uint64_t n_valid) {
  if (n_valid == 0) return std::numeric_limits<double>::quiet_NaN();
  return ld_value(stat, ci_masked, cj_masked, cij_masked, n_valid);
}

LdMatrix ld_matrix_missing(const MaskedBitMatrix& g, const LdOptions& opts) {
  const std::size_t n = g.snps();
  LdMatrix out(n, n);
  if (n == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");

  const BitMatrixView x = g.states().view();
  const BitMatrixView c = g.valid().view();

  // Three GEMMs (DESIGN.md): haplotype counts, masked marginals, valid pairs.
  CountMatrix hap(n, n);
  syrk_count(x, hap.ref(), opts.gemm);

  CountMatrix marg(n, n);  // marg(i, j) = POPCNT(x_i & c_j)
  gemm_count(x, c, marg.ref(), opts.gemm);

  CountMatrix nv(n, n);  // nv(i, j) = POPCNT(c_i & c_j)
  syrk_count(c, nv.ref(), opts.gemm);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out(i, j) = ld_value_missing(opts.stat, marg(i, j), marg(j, i),
                                   hap(i, j), nv(i, j));
    }
  }
  return out;
}

void ld_scan_missing(const MaskedBitMatrix& g, const LdTileVisitor& visit,
                     const LdOptions& opts) {
  LDLA_EXPECT(visit != nullptr, "scan needs a visitor");
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  LDLA_EXPECT(opts.slab_rows > 0, "slab height must be positive");

  const BitMatrixView x = g.states().view();
  const BitMatrixView c = g.valid().view();
  const std::size_t slab = opts.slab_rows;
  const std::size_t max_rows = std::min(slab, n);

  CountMatrix hap(max_rows, n);   // POPCNT(x_i & x_j)
  CountMatrix mi(max_rows, n);    // POPCNT(x_i & c_j)
  CountMatrix mj(max_rows, n);    // POPCNT(c_i & x_j)
  CountMatrix nv(max_rows, n);    // POPCNT(c_i & c_j)
  AlignedBuffer<double> values(max_rows * n);

  for (std::size_t r0 = 0; r0 < n; r0 += slab) {
    const std::size_t rows = std::min(slab, n - r0);
    const std::size_t cols = r0 + rows;
    auto slab_ref = [&](CountMatrix& m) {
      CountMatrixRef ref{m.ref().data, rows, cols, n};
      for (std::size_t i = 0; i < rows; ++i) {
        std::fill_n(&ref.at(i, 0), cols, 0u);
      }
      return ref;
    };
    CountMatrixRef hap_ref = slab_ref(hap);
    CountMatrixRef mi_ref = slab_ref(mi);
    CountMatrixRef mj_ref = slab_ref(mj);
    CountMatrixRef nv_ref = slab_ref(nv);

    auto rows_of = [&](const BitMatrixView& v) {
      BitMatrixView out = v;
      out.data = v.data + r0 * v.stride_words;
      out.n_snps = rows;
      return out;
    };
    auto cols_of = [&](const BitMatrixView& v) {
      BitMatrixView out = v;
      out.n_snps = cols;
      return out;
    };
    gemm_count(rows_of(x), cols_of(x), hap_ref, opts.gemm);
    gemm_count(rows_of(x), cols_of(c), mi_ref, opts.gemm);
    gemm_count(rows_of(c), cols_of(x), mj_ref, opts.gemm);
    gemm_count(rows_of(c), cols_of(c), nv_ref, opts.gemm);

    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        values[i * cols + j] =
            ld_value_missing(opts.stat, mi_ref.at(i, j), mj_ref.at(i, j),
                             hap_ref.at(i, j), nv_ref.at(i, j));
      }
    }
    visit(LdTile{r0, 0, rows, cols, values.data(), cols});
  }
}

LdMatrix ld_cross_matrix_missing(const MaskedBitMatrix& a,
                                 const MaskedBitMatrix& b,
                                 const LdOptions& opts) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  LdMatrix out(m, n);
  if (m == 0 || n == 0) return out;

  const BitMatrixView xa = a.states().view();
  const BitMatrixView ca = a.valid().view();
  const BitMatrixView xb = b.states().view();
  const BitMatrixView cb = b.valid().view();

  CountMatrix hap(m, n);   // POPCNT(x_i & x_j)
  CountMatrix mi(m, n);    // POPCNT(x_i & c_j)
  CountMatrix mj(m, n);    // POPCNT(c_i & x_j)
  CountMatrix nv(m, n);    // POPCNT(c_i & c_j)
  gemm_count(xa, xb, hap.ref(), opts.gemm);
  gemm_count(xa, cb, mi.ref(), opts.gemm);
  gemm_count(ca, xb, mj.ref(), opts.gemm);
  gemm_count(ca, cb, nv.ref(), opts.gemm);

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out(i, j) = ld_value_missing(opts.stat, mi(i, j), mj(i, j), hap(i, j),
                                   nv(i, j));
    }
  }
  return out;
}

}  // namespace ldla

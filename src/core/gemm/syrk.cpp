#include "core/gemm/syrk.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm/macro.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

void mirror_lower_to_upper(CountMatrixRef c, std::size_t n) {
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "matrix is too small to mirror");
  LDLA_TRACE_SPAN(kMirror);
  // Block so the source rows (unit stride) and destination rows (the
  // transposed block) both stay cache-resident: 64 x 64 x 4 B = 16 KiB of
  // destination lines, far under L1+L2 even with the source streaming.
  constexpr std::size_t kBlock = 64;
  for (std::size_t jb = 0; jb < n; jb += kBlock) {
    const std::size_t j_end = std::min(jb + kBlock, n);
    // Diagonal block: the triangle within the block.
    for (std::size_t i = jb; i < j_end; ++i) {
      for (std::size_t j = i + 1; j < j_end; ++j) {
        c.at(i, j) = c.at(j, i);
      }
    }
    // Full blocks below the diagonal block mirror to above it.
    for (std::size_t ib = j_end; ib < n; ib += kBlock) {
      const std::size_t i_end = std::min(ib + kBlock, n);
      for (std::size_t i = ib; i < i_end; ++i) {
        for (std::size_t j = jb; j < j_end; ++j) {
          c.at(j, i) = c.at(i, j);
        }
      }
    }
  }
}

void syrk_count_packed(const PackedBitMatrix& a, std::size_t row_begin,
                       std::size_t row_end, CountMatrixRef c,
                       bool triangular_only) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  const std::size_t n = row_end - row_begin;
  if (n == 0) return;
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "output matrix is too small");
  LDLA_EXPECT(c.ld >= c.cols, "output leading dimension too small");

  // Each tile writes the canonical (j <= i) prefix of its rows; the tiles
  // partition the lower triangle, so every entry is written exactly once.
  syrk_count_fused(a, row_begin, row_end, [&](const CountTile& t) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      if (gi < t.col_begin) continue;
      const std::size_t width = std::min(t.cols, gi + 1 - t.col_begin);
      std::memcpy(&c.at(gi - row_begin, t.col_begin - row_begin), t.row(i),
                  width * sizeof(std::uint32_t));
    }
  });

  if (!triangular_only) mirror_lower_to_upper(c, n);
}

void syrk_count(const BitMatrixView& a, CountMatrixRef c,
                const GemmConfig& cfg, bool triangular_only) {
  const std::size_t n = a.n_snps;
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "output matrix is too small");
  if (n == 0) return;

  const PackedBitMatrix pa(a, resolve_plan(cfg, a.n_words), PackSides::kBoth);
  syrk_count_packed(pa, 0, n, c, triangular_only);
}

}  // namespace ldla

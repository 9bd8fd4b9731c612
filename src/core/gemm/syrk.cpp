#include "core/gemm/syrk.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm/fused_tile.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packing.hpp"
#include "util/aligned_buffer.hpp"
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
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");

  // Zero the lower triangle (the part we accumulate into).
  for (std::size_t i = 0; i < n; ++i) {
    std::memset(&c.at(i, 0), 0, (i + 1) * sizeof(std::uint32_t));
  }

  const GemmPlan& plan = a.plan();
  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = row_begin / mr * mr;
  const std::size_t jc0 = row_begin / nr * nr;
  const std::size_t i_pad_end = (row_end + mr - 1) / mr * mr;
  const std::size_t j_pad_end = (row_end + nr - 1) / nr * nr;

  for (std::size_t jc = jc0; jc < row_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, j_pad_end);
    for (std::size_t p = 0; p < a.panels(); ++p) {
      const std::size_t kcp = a.panel_kc_padded(p);
      const PackedPanelView b_panel =
          a.b_panel(p, jc / nr, (jc_end - jc) / nr);

      // Only row blocks that intersect the lower triangle of this column
      // panel: global rows >= jc, snapped down to an mc boundary (the
      // per-tile skip below handles the slack exactly).
      std::size_t ic_start = ic0;
      if (jc > ic0) ic_start = ic0 + (jc - ic0) / mc * mc;
      for (std::size_t ic = ic_start; ic < row_end; ic += mc) {
        const std::size_t ic_end = std::min(ic + mc, i_pad_end);
        const PackedPanelView a_panel =
            a.a_panel(p, ic / mr, (ic_end - ic) / mr);

        LDLA_TRACE_SPAN(kKernel);
        // The diagonal skip makes the call count data-dependent on the tile
        // grid, so count actual invocations instead of deriving from shape.
        std::uint64_t block_calls = 0;
        for (std::size_t jr = jc; jr < jc_end; jr += nr) {
          const std::uint64_t* bp = b_panel.sliver((jr - jc) / nr);
          const std::size_t j_lo = std::max(jr, row_begin);
          const std::size_t j_hi = std::min(jr + nr, row_end);
          for (std::size_t ir = ic; ir < ic_end; ir += mr) {
            // Skip tiles strictly above the diagonal band.
            if (ir + mr <= jr) continue;
            ++block_calls;
            const std::uint64_t* ap = a_panel.sliver((ir - ic) / mr);
            const std::size_t i_lo = std::max(ir, row_begin);
            const std::size_t i_hi = std::min(ir + mr, row_end);
            LDLA_ASSERT_ALIGNED(ap, 8);
            LDLA_ASSERT_ALIGNED(bp, 8);
            const bool interior = i_lo == ir && i_hi == ir + mr &&
                                  j_lo == jr && j_hi == jr + nr;
            if (interior && ir >= jr + nr - 1) {
              // Tile entirely on/below the diagonal: write straight to C.
              kern.fn(kcp, ap, bp, &c.at(ir - row_begin, jr - row_begin),
                      c.ld);
            } else {
              // Diagonal-crossing or range-boundary tile: temporary, then
              // copy only the in-range lower-triangle entries.
              std::uint32_t tile[16 * 16];
              LDLA_ASSERT(mr * nr <= 256);
              std::memset(tile, 0, mr * nr * sizeof(std::uint32_t));
              kern.fn(kcp, ap, bp, tile, nr);
              for (std::size_t i = i_lo; i < i_hi; ++i) {
                const std::size_t j_stop = std::min(j_hi, i + 1);
                for (std::size_t j = j_lo; j < j_stop; ++j) {
                  c.at(i - row_begin, j - row_begin) +=
                      tile[(i - ir) * nr + (j - jr)];
                }
              }
            }
          }
        }
        LDLA_TRACE_ADD_KERNEL(
            block_calls,
            block_calls * static_cast<std::uint64_t>(mr * nr * kcp));
      }
    }
  }

  if (!triangular_only) mirror_lower_to_upper(c, n);
}

void syrk_count_fused(const PackedBitMatrix& a, std::size_t row_begin,
                      std::size_t row_end, const CountTileSink& sink) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (row_begin == row_end) return;
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");

  const GemmPlan& plan = a.plan();
  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = row_begin / mr * mr;
  const std::size_t jc0 = row_begin / nr * nr;
  const std::size_t i_pad_end = (row_end + mr - 1) / mr * mr;
  const std::size_t j_pad_end = (row_end + nr - 1) / nr * nr;

  // Tile-local count scratch (see gemm_count_fused). Zeroing the used
  // window also makes skipped above-diagonal register tiles read as
  // deterministic zeros.
  const std::size_t scratch_ld = std::min(nc, j_pad_end - jc0);
  AlignedBuffer<std::uint32_t> scratch(std::min(mc, i_pad_end - ic0) *
                                       scratch_ld);

  for (std::size_t jc = jc0; jc < row_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, j_pad_end);

    // Only row blocks that intersect the lower triangle of this column
    // panel: global rows >= jc, snapped down to an mc boundary (the
    // per-tile skip inside the tile body handles the slack exactly).
    std::size_t ic_start = ic0;
    if (jc > ic0) ic_start = ic0 + (jc - ic0) / mc * mc;
    for (std::size_t ic = ic_start; ic < row_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, i_pad_end);
      detail::fused_syrk_tile(a, kern, mr, nr, ic, ic_end, jc, jc_end,
                              row_begin, row_end, scratch.data(), scratch_ld,
                              sink);
    }
  }
}

void syrk_count(const BitMatrixView& a, CountMatrixRef c,
                const GemmConfig& cfg, bool triangular_only) {
  const std::size_t n = a.n_snps;
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "output matrix is too small");
  if (n == 0) return;

  const GemmPlan plan = resolve_plan(cfg, a.n_words);
  if (!plan.packing) {
    // Ablation path: reuse the rectangular driver on the full matrix (no
    // triangle savings without tiles); both triangles come out valid, so
    // triangular_only needs no extra work.
    for (std::size_t i = 0; i < n; ++i) {
      std::memset(&c.at(i, 0), 0, c.cols * sizeof(std::uint32_t));
    }
    gemm_count(a, a, c, cfg);
    return;
  }
  const PackedBitMatrix pa(a, plan, PackSides::kBoth);
  syrk_count_packed(pa, 0, n, c, triangular_only);
}

}  // namespace ldla

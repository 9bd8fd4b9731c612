// Shared per-tile bodies of the fused count drivers.
//
// One cache-resident count tile — rows [ic, ic_end) × cols [jc, jc_end) of
// the (sliver-padded) iteration space — is zeroed, accumulated over every
// kc panel, clamped to the caller's in-range window, and handed to the
// CountTileSink. The count nest (core/gemm/nest.cpp) calls these with whole
// mc×nc cache tiles for a team of one and with mc×(q·nr) chunks for a
// larger team, so stolen work keeps the exact same per-element arithmetic
// — results are bit-identical by construction, only the tile granularity
// differs.
//
// Contract (callers are the drivers, which validate their public inputs):
//  - ic is mr-aligned relative to the packed sliver grid, jc is nr-aligned;
//    ic_end / jc_end are sliver-aligned or equal to the padded range end.
//  - scratch holds at least (ic_end - ic) rows × scratch_ld cols, with
//    scratch_ld >= jc_end - jc.
//  - The clamp window [a_begin, a_end) × [b_begin, b_end) intersects the
//    tile (the drivers only enumerate intersecting tiles).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/sparse_kernel.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ldla::detail {

/// A register tile may leave the dense walk for the list kernels only when
/// the gather's dense side carries the sample-major transpose. Same-matrix
/// calls always qualify (a sparse sliver implies the pack classified
/// columns, which builds the transpose); in a cross-matrix call a partner
/// packed from an all-dense matrix lacks it, and the pair stays on the
/// dense micro-kernel. The dense walk and the sparse pass must agree on
/// this predicate — every pair is computed exactly once.
inline bool sparse_pair_ok(const PackedBitMatrix& a, const PackedBitMatrix& b,
                           bool a_sp, bool b_sp) {
  if (a_sp && b_sp) return true;  // both packs built their transposes
  if (a_sp) return b.has_sample_major();
  if (b_sp) return a.has_sample_major();
  return false;
}

/// Publish one tile body's list-kernel counts to the registry.
inline void count_sparse(const SparseTileCounters& tc,
                         std::uint64_t fallback_tiles) {
  const metrics::PipelineCounters& c = metrics::pipeline();
  c.sparse_ll_tiles.add(tc.ll_tiles);
  c.sparse_ld_tiles.add(tc.ld_tiles);
  c.sparse_intersections.add(tc.intersections);
  c.sparse_dense_fallback_tiles.add(fallback_tiles);
}

inline void fused_gemm_tile(const PackedBitMatrix& a, const PackedBitMatrix& b,
                            const KernelInfo& kern, std::size_t mr,
                            std::size_t nr, std::size_t ic, std::size_t ic_end,
                            std::size_t jc, std::size_t jc_end,
                            std::size_t a_begin, std::size_t a_end,
                            std::size_t b_begin, std::size_t b_end,
                            std::uint32_t* scratch, std::size_t scratch_ld,
                            const CountTileSink& sink) {
  const std::size_t tile_rows = ic_end - ic;
  const std::size_t tile_cols = jc_end - jc;
  for (std::size_t i = 0; i < tile_rows; ++i) {
    std::memset(&scratch[i * scratch_ld], 0,
                tile_cols * sizeof(std::uint32_t));
  }

  // All rank-kc updates for this tile before moving on: the tile is final
  // when the panel loop ends. When either pack carries sparse-classified
  // slivers the register tiles split two ways: pairs with at least one
  // all-sparse side are handed to the list kernels below (once, whole-k),
  // the rest keep the dense micro-kernel panel walk — same scratch, same
  // integer counts, so the emitted CountTile is bit-identical either way.
  const bool hybrid = a.hybrid_dispatch() || b.hybrid_dispatch();
  {
    LDLA_TRACE_SPAN(kKernel);
    std::uint64_t tile_calls = 0;
    std::uint64_t tile_words = 0;
    for (std::size_t p = 0; p < a.panels(); ++p) {
      const std::size_t kcp = a.panel_kc_padded(p);
      const PackedPanelView b_panel = b.b_panel(p, jc / nr, tile_cols / nr);
      const PackedPanelView a_panel = a.a_panel(p, ic / mr, tile_rows / mr);
      for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
        const std::uint64_t* bp = b_panel.sliver(jr / nr);
        const bool b_sp = hybrid && b.b_sliver_sparse((jc + jr) / nr);
        for (std::size_t ir = 0; ir < tile_rows; ir += mr) {
          if (hybrid &&
              sparse_pair_ok(a, b, a.a_sliver_sparse((ic + ir) / mr), b_sp)) {
            continue;
          }
          const std::uint64_t* ap = a_panel.sliver(ir / mr);
          LDLA_ASSERT_ALIGNED(ap, 8);
          LDLA_ASSERT_ALIGNED(bp, 8);
          kern.fn(kcp, ap, bp, &scratch[ir * scratch_ld + jr], scratch_ld);
          ++tile_calls;
          tile_words += static_cast<std::uint64_t>(mr * nr) * kcp;
        }
      }
    }
    metrics::pipeline().kernel_calls.add(tile_calls);
    metrics::pipeline().kernel_words.add(tile_words);
    if (hybrid) {
      SparseTileCounters tc;
      std::uint64_t fallback_tiles = 0;
      // Two passes, split by which side the gather's list comes from. Pass
      // 1 (jr outer) takes every pair with a sparse B sliver — those
      // gather the jr lists, which stay hot across the whole ir sweep.
      // Pass 2 (ir outer) takes the a-sparse × b-dense remainder — those
      // gather the ir lists against B's transpose, and with jr innermost
      // each gathered sample's transpose row lines cover every dense jr
      // word column of the tile, so only the first jr tile misses. The
      // passes partition the sparse pairs, so every pair still runs once.
      for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
        if (!b.b_sliver_sparse((jc + jr) / nr)) continue;
        for (std::size_t ir = 0; ir < tile_rows; ir += mr) {
          const bool a_sp = a.a_sliver_sparse((ic + ir) / mr);
          if (!sparse_pair_ok(a, b, a_sp, true)) {
            ++fallback_tiles;
            continue;
          }
          sparse_register_tile(a, b, a_sp, true, ic + ir, jc + jr, mr, nr,
                               &scratch[ir * scratch_ld + jr], scratch_ld, tc);
        }
      }
      for (std::size_t ir = 0; ir < tile_rows; ir += mr) {
        if (!a.a_sliver_sparse((ic + ir) / mr)) continue;
        for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
          if (b.b_sliver_sparse((jc + jr) / nr)) continue;
          if (!sparse_pair_ok(a, b, true, false)) {
            ++fallback_tiles;
            continue;
          }
          sparse_register_tile(a, b, true, false, ic + ir, jc + jr, mr, nr,
                               &scratch[ir * scratch_ld + jr], scratch_ld, tc);
        }
      }
      count_sparse(tc, fallback_tiles);
    }
  }

  const std::size_t i_lo = std::max(ic, a_begin);
  const std::size_t i_hi = std::min(ic_end, a_end);
  const std::size_t j_lo = std::max(jc, b_begin);
  const std::size_t j_hi = std::min(jc_end, b_end);
  metrics::pipeline().count_tiles.inc();
  sink(CountTile{i_lo, j_lo, i_hi - i_lo, j_hi - j_lo,
                 &scratch[(i_lo - ic) * scratch_ld + (j_lo - jc)],
                 scratch_ld});
}

// Symmetric variant: register tiles strictly above the diagonal are skipped
// (the zeroed scratch makes them read as deterministic zeros inside the
// emitted tile), and the clamp window is [row_begin, row_end) on both axes.
inline void fused_syrk_tile(const PackedBitMatrix& a, const KernelInfo& kern,
                            std::size_t mr, std::size_t nr, std::size_t ic,
                            std::size_t ic_end, std::size_t jc,
                            std::size_t jc_end, std::size_t row_begin,
                            std::size_t row_end, std::uint32_t* scratch,
                            std::size_t scratch_ld, const CountTileSink& sink) {
  const std::size_t tile_rows = ic_end - ic;
  const std::size_t tile_cols = jc_end - jc;
  for (std::size_t i = 0; i < tile_rows; ++i) {
    std::memset(&scratch[i * scratch_ld], 0,
                tile_cols * sizeof(std::uint32_t));
  }

  const bool hybrid = a.hybrid_dispatch();
  {
    LDLA_TRACE_SPAN(kKernel);
    std::uint64_t tile_calls = 0;
    std::uint64_t tile_words = 0;
    for (std::size_t p = 0; p < a.panels(); ++p) {
      const std::size_t kcp = a.panel_kc_padded(p);
      const PackedPanelView b_panel = a.b_panel(p, jc / nr, tile_cols / nr);
      const PackedPanelView a_panel = a.a_panel(p, ic / mr, tile_rows / mr);
      std::uint64_t panel_calls = 0;
      for (std::size_t jr = jc; jr < jc_end; jr += nr) {
        const std::uint64_t* bp = b_panel.sliver((jr - jc) / nr);
        const bool b_sp = hybrid && a.b_sliver_sparse(jr / nr);
        for (std::size_t ir = ic; ir < ic_end; ir += mr) {
          // Skip tiles strictly above the diagonal band.
          if (ir + mr <= jr) continue;
          if (hybrid && sparse_pair_ok(a, a, a.a_sliver_sparse(ir / mr), b_sp)) {
            continue;
          }
          ++panel_calls;
          const std::uint64_t* ap = a_panel.sliver((ir - ic) / mr);
          LDLA_ASSERT_ALIGNED(ap, 8);
          LDLA_ASSERT_ALIGNED(bp, 8);
          kern.fn(kcp, ap, bp,
                  &scratch[(ir - ic) * scratch_ld + (jr - jc)], scratch_ld);
        }
      }
      tile_calls += panel_calls;
      tile_words += panel_calls * static_cast<std::uint64_t>(mr * nr * kcp);
    }
    metrics::pipeline().kernel_calls.add(tile_calls);
    metrics::pipeline().kernel_words.add(tile_words);
    if (hybrid) {
      SparseTileCounters tc;
      std::uint64_t fallback_tiles = 0;
      // Same list-side split as the gemm body (see the comment there),
      // with the dense walk's diagonal skip applied in both passes.
      for (std::size_t jr = jc; jr < jc_end; jr += nr) {
        if (!a.b_sliver_sparse(jr / nr)) continue;
        for (std::size_t ir = ic; ir < ic_end; ir += mr) {
          if (ir + mr <= jr) continue;  // same diagonal skip as the dense walk
          const bool a_sp = a.a_sliver_sparse(ir / mr);
          if (!sparse_pair_ok(a, a, a_sp, true)) {
            ++fallback_tiles;
            continue;
          }
          sparse_register_tile(a, a, a_sp, true, ir, jr, mr, nr,
                               &scratch[(ir - ic) * scratch_ld + (jr - jc)],
                               scratch_ld, tc);
        }
      }
      for (std::size_t ir = ic; ir < ic_end; ir += mr) {
        if (!a.a_sliver_sparse(ir / mr)) continue;
        for (std::size_t jr = jc; jr < jc_end; jr += nr) {
          if (ir + mr <= jr) continue;  // same diagonal skip as the dense walk
          if (a.b_sliver_sparse(jr / nr)) continue;
          if (!sparse_pair_ok(a, a, true, false)) {
            ++fallback_tiles;
            continue;
          }
          sparse_register_tile(a, a, true, false, ir, jr, mr, nr,
                               &scratch[(ir - ic) * scratch_ld + (jr - jc)],
                               scratch_ld, tc);
        }
      }
      count_sparse(tc, fallback_tiles);
    }
  }

  const std::size_t i_lo = std::max(ic, row_begin);
  const std::size_t i_hi = std::min(ic_end, row_end);
  const std::size_t j_lo = std::max(jc, row_begin);
  const std::size_t j_hi = std::min(jc_end, row_end);
  metrics::pipeline().count_tiles.inc();
  sink(CountTile{i_lo, j_lo, i_hi - i_lo, j_hi - j_lo,
                 &scratch[(i_lo - ic) * scratch_ld + (j_lo - jc)],
                 scratch_ld});
}

}  // namespace ldla::detail

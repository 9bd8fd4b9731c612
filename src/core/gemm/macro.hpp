// The popcount-GEMM driver: GotoBLAS 5-loop structure over the
// (AND, POPCNT, +) semiring.
//
//     C[i][j] += sum_k POPCNT(a.row(i)[k] & b.row(j)[k])
//
// a supplies m rows, b supplies n rows (C = A · Bᵀ in row terms; with
// a == b this is the paper's  H·Nseq = Gᵀ G  haplotype-count matrix).
// Callers zero C first for assignment semantics; the driver accumulates.
#pragma once

#include <cstdint>
#include <functional>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/count_matrix.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

/// One finalized cache tile of haplotype counts, delivered by the fused
/// drivers while it is still hot. Indices are global operand row numbers
/// (row_begin in A space, col_begin in B space); `counts` points at the
/// in-range corner of a tile-local scratch buffer with leading dimension
/// `ld`, valid only for the duration of the sink call.
struct CountTile {
  std::size_t row_begin = 0;
  std::size_t col_begin = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const std::uint32_t* counts = nullptr;
  std::size_t ld = 0;

  const std::uint32_t* row(std::size_t i) const { return counts + i * ld; }
};

/// Consumer of finalized count tiles (the fused statistics epilogue).
using CountTileSink = std::function<void(const CountTile&)>;

/// Full rectangular count GEMM. C must be at least a.n_snps x b.n_snps.
/// Both operands must have the same word count (same sample universe).
/// The operands are packed whole and gemm_count_packed runs.
void gemm_count(const BitMatrixView& a, const BitMatrixView& b,
                CountMatrixRef c, const GemmConfig& cfg = {});

/// Count GEMM over pre-packed operands: rows [a_begin, a_end) of `a`
/// against rows [b_begin, b_end) of `b`, accumulating into C at local
/// indices (i - a_begin, j - b_begin). Callers zero C for assignment
/// semantics. A sink over gemm_count_fused (team of one) that adds each
/// finished tile into C. The ranges may start/end anywhere, so windowed
/// drivers slice one persistent packed copy instead of re-packing per
/// slab. `a` needs an A side, `b` a B side, and both must be packed for
/// compatible plans (same kernel, register tile, kc, ku).
void gemm_count_packed(const PackedBitMatrix& a, std::size_t a_begin,
                       std::size_t a_end, const PackedBitMatrix& b,
                       std::size_t b_begin, std::size_t b_end,
                       CountMatrixRef c);

/// The rectangular count nest (DESIGN.md §4.4). The k (panel) loop runs
/// innermost per tile — legal and cheap over persistently packed slivers —
/// so every tile of C is final exactly once, accumulated in tile-local
/// scratch and handed to `sink` while still hot. No count matrix is ever
/// materialized. Tiles partition [a_begin, a_end) x [b_begin, b_end); each
/// in-range element appears in exactly one tile.
///
/// threads = 0 means default_thread_count(). A team of one (or a problem
/// that yields a single chunk) runs inline on the calling thread and
/// delivers exactly the jc-major grid of mc x nc cache tiles. A larger
/// team cuts each mc x nc tile into mc x (q·nr) chunks, drains them
/// through per-member work-stealing deques on global_pool(), and calls
/// `sink` concurrently: it must then be thread-safe, and the caller must
/// not already be running inside a global_pool() task. Counts are
/// bit-identical for every team size; only the tile granularity differs.
void gemm_count_fused(const PackedBitMatrix& a, std::size_t a_begin,
                      std::size_t a_end, const PackedBitMatrix& b,
                      std::size_t b_begin, std::size_t b_end,
                      const CountTileSink& sink, unsigned threads = 1);

/// Empirically pick blocking parameters: runs short trials of candidate
/// (kc, mc) pairs on a problem-shaped sample and returns cfg with the
/// fastest combination filled in. Intended for long-running pipelines
/// where a few hundred milliseconds of tuning amortizes.
GemmConfig tune_gemm_config(const BitMatrixView& sample,
                            const GemmConfig& base = {});

}  // namespace ldla

// Internal: per-row LD statistic evaluation over a row of pair counts.
//
// The D = H - p pᵀ (and r²) pass is itself a dense O(n²) operation; doing
// it with branch-free arithmetic over precomputed per-SNP factors lets the
// compiler vectorize it, so the statistics layer never dominates the GEMM
// (the paper's DLA formulation computes D exactly this way). Monomorphic
// SNPs produce NaN naturally: d is exactly 0 there and inv = +inf, and
// 0 * inf = NaN. The arithmetic matches ld_r_squared / ld_d operation for
// operation, so scalar and row paths agree bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "util/aligned_buffer.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ldla::detail {

/// Precomputed per-SNP factors for the fast statistic rows.
struct StatTables {
  std::uint64_t nseq = 0;
  double n = 0.0;                ///< sample count as double
  std::vector<double> p;         ///< allele frequency P_i = c_i / Nseq
  std::vector<double> inv;       ///< 1 / (P_i (1 - P_i)); +inf if monomorphic
  std::vector<std::uint64_t> c;  ///< raw derived counts (generic fallback)
};

inline StatTables make_stat_tables(const BitMatrix& g) {
  StatTables t;
  t.nseq = g.samples();
  t.n = static_cast<double>(g.samples());
  t.p.resize(g.snps());
  t.inv.resize(g.snps());
  t.c.resize(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    const std::uint64_t c = g.derived_count(s);
    t.c[s] = c;
    const double p = static_cast<double>(c) / t.n;
    t.p[s] = p;
    t.inv[s] = 1.0 / (p * (1.0 - p));
  }
  return t;
}

/// Same tables from already-known per-SNP derived counts (the shard store
/// persists pack-time popcounts, so the streaming driver never touches the
/// bit matrix). Arithmetic is identical operation-for-operation to
/// make_stat_tables, which is what keeps streamed statistics bit-identical
/// to the in-memory drivers.
inline StatTables make_stat_tables_from_counts(
    const std::vector<std::uint64_t>& counts, std::uint64_t nseq) {
  StatTables t;
  t.nseq = nseq;
  t.n = static_cast<double>(nseq);
  t.p.resize(counts.size());
  t.inv.resize(counts.size());
  t.c = counts;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const double p = static_cast<double>(counts[s]) / t.n;
    t.p[s] = p;
    t.inv[s] = 1.0 / (p * (1.0 - p));
  }
  return t;
}

/// out[j] = statistic(SNP i of `ta`, SNP col_begin + j of `tb`) for j in
/// [0, cols), given this row's pair counts: counts[j] = POPCNT(s_i &
/// s_{col_begin+j}). Single-matrix callers pass the same table twice.
inline void stat_row_cross_shifted(LdStatistic stat, const StatTables& ta,
                                   std::size_t i, const StatTables& tb,
                                   std::size_t col_begin,
                                   const std::uint32_t* counts,
                                   std::size_t cols, double* out) {
  const double pi = ta.p[i];
  const double inv_i = ta.inv[i];
  const double n = ta.n;
  switch (stat) {
    case LdStatistic::kRSquared: {
      const double* p = tb.p.data() + col_begin;
      const double* inv = tb.inv.data() + col_begin;
      for (std::size_t j = 0; j < cols; ++j) {
        const double pij = static_cast<double>(counts[j]) / n;
        const double d = pij - pi * p[j];
        const double r = (d * d) * (inv_i * inv[j]);
        out[j] = r > 1.0 ? 1.0 : r;
      }
      break;
    }
    case LdStatistic::kD: {
      const double* p = tb.p.data() + col_begin;
      for (std::size_t j = 0; j < cols; ++j) {
        const double pij = static_cast<double>(counts[j]) / n;
        out[j] = pij - pi * p[j];
      }
      break;
    }
    case LdStatistic::kDPrime: {
      for (std::size_t j = 0; j < cols; ++j) {
        out[j] = ld_d_prime(ta.c[i], tb.c[col_begin + j], counts[j],
                            ta.nseq);
      }
      break;
    }
  }
}

/// Single-matrix form of stat_row_cross_shifted.
inline void stat_row_shifted(LdStatistic stat, const StatTables& t,
                             std::size_t i, std::size_t col_begin,
                             const std::uint32_t* counts, std::size_t cols,
                             double* out) {
  stat_row_cross_shifted(stat, t, i, t, col_begin, counts, cols, out);
}

/// Fused-epilogue sink: converts each count tile (rows of `ta` against
/// columns of `tb`) to statistics and stores pair (gi, gj) at
/// dst[(gi - row0) * ld + (gj - col0)]. With `lower_only`, only canonical
/// entries (gj <= gi) are converted — the symmetric drivers leave the rest
/// of a diagonal-crossing tile unspecified. Tiles write disjoint windows,
/// so the sink is safe to call concurrently from an in-nest team.
inline CountTileSink stat_tile_sink(LdStatistic stat, const StatTables& ta,
                                    const StatTables& tb, bool lower_only,
                                    double* dst, std::size_t row0,
                                    std::size_t col0, std::size_t ld) {
  return [=, &ta, &tb](const CountTile& t) {
    LDLA_TRACE_SPAN(kEpilogue);
    std::uint64_t rows_converted = 0;
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      std::size_t cols = t.cols;
      if (lower_only) {
        if (gi < t.col_begin) continue;
        cols = std::min(cols, gi + 1 - t.col_begin);
      }
      stat_row_cross_shifted(stat, ta, gi, tb, t.col_begin, t.row(i), cols,
                             dst + (gi - row0) * ld + (t.col_begin - col0));
      ++rows_converted;
    }
    metrics::pipeline().epilogue_rows.add(rows_converted);
  };
}

/// The count nest of one block: rows [a_begin, a_end) of `a` against rows
/// [b_begin, b_end) of `b`. A symmetric block (`a` == `b` over the same
/// range) runs the triangular SYRK nest, whose tiles specify only the
/// canonical entries (col <= row), so its sinks clip to them; a cross
/// block runs the rectangular GEMM nest.
inline void count_tiles(const PackedBitMatrix& a, std::size_t a_begin,
                        std::size_t a_end, const PackedBitMatrix& b,
                        std::size_t b_begin, std::size_t b_end, bool symmetric,
                        const CountTileSink& sink, unsigned threads) {
  if (symmetric) {
    syrk_count_fused(a, a_begin, a_end, sink, threads);
  } else {
    gemm_count_fused(a, a_begin, a_end, b, b_begin, b_end, sink, threads);
  }
}

/// Where a stat-tile emitter converts a tile: one buffer when the nest runs
/// a team of one, a per-thread buffer when tiles arrive concurrently (grown
/// once to `n` doubles, then reused for the life of the thread).
class TileScratch {
 public:
  TileScratch(std::size_t n, unsigned threads)
      : n_(n), team_(threads != 1), own_(team_ ? 0 : n) {}

  [[nodiscard]] double* get() {
    if (!team_) return own_.data();
    thread_local AlignedBuffer<double> buf;
    if (buf.size() < n_) buf = AlignedBuffer<double>(n_);
    return buf.data();
  }

 private:
  std::size_t n_;
  bool team_;
  AlignedBuffer<double> own_;
};

/// Stat-tile emitter of the tile-geometry drivers (ld_stat_scan,
/// ld_cross_stat_scan and the shard streams): each count tile of a block
/// whose rows start at SNP `row_base` of `ta` and whose columns start at
/// SNP `col_base` of `tb` is converted in `scratch` and handed to `visit`
/// as an LdTile in those global indices. A symmetric block (the diagonal,
/// row_base == col_base) passes tiles on or below the diagonal whole; of a
/// diagonal-crossing tile it emits the rows wholly on or below the
/// diagonal as one tile and only the at most cols - 1 rows the diagonal
/// cuts as canonical one-row fragments, so no above-diagonal entry ever
/// escapes.
inline CountTileSink stat_tile_emitter(LdStatistic stat, const StatTables& ta,
                                       std::size_t row_base,
                                       const StatTables& tb,
                                       std::size_t col_base, bool symmetric,
                                       TileScratch& scratch,
                                       const LdStatTileVisitor& visit) {
  return [=, &ta, &tb, &scratch, &visit](const CountTile& t) {
    double* values = scratch.get();
    const std::size_t c0 = col_base + t.col_begin;
    // Local rows [0, whole) meet the diagonal; rows [whole, t.rows) lie on
    // or below it across the whole tile (li >= col_begin + cols - 1).
    const std::size_t diag_row = t.col_begin + t.cols - 1;
    const std::size_t whole =
        !symmetric || diag_row <= t.row_begin
            ? 0
            : std::min(t.rows, diag_row - t.row_begin);
    std::uint64_t rows_converted = 0;
    {
      // The span covers the interleaved fragment visits too — they are
      // tiny.
      LDLA_TRACE_SPAN(kEpilogue);
      for (std::size_t i = 0; i < whole; ++i) {
        const std::size_t li = t.row_begin + i;
        if (li < t.col_begin) continue;
        const std::size_t width = li + 1 - t.col_begin;
        stat_row_cross_shifted(stat, ta, row_base + li, tb, c0, t.row(i),
                               width, values);
        ++rows_converted;
        visit(LdTile{row_base + li, c0, 1, width, values, width});
      }
      for (std::size_t i = whole; i < t.rows; ++i) {
        stat_row_cross_shifted(stat, ta, row_base + t.row_begin + i, tb, c0,
                               t.row(i), t.cols,
                               &values[(i - whole) * t.cols]);
      }
      rows_converted += t.rows - whole;
      metrics::pipeline().epilogue_rows.add(rows_converted);
    }
    if (whole < t.rows) {
      visit(LdTile{row_base + t.row_begin + whole, c0, t.rows - whole, t.cols,
                   values, t.cols});
    }
  };
}

/// First column of a band slab starting at row r0: `bandwidth` rows back,
/// but not before `lo`, the first SNP of the band pass.
inline std::size_t band_col_begin(std::size_t lo, std::size_t r0,
                                  std::size_t bandwidth) {
  return r0 - std::min(bandwidth, r0 - lo);
}

/// One slab step of a band pass, shared by ld_band_scan and the ω ring:
/// statistics of rows [r0, r0 + rows) against columns
/// [band_col_begin(lo, r0, bandwidth), r0 + rows) through one count nest,
/// stored as stat_tile_sink does with row0 = r0, col0 = that first column,
/// which is returned.
inline std::size_t band_slab(const PackedBitMatrix& packed,
                             LdStatistic stat, const StatTables& tables,
                             bool lower_only, std::size_t lo, std::size_t r0,
                             std::size_t rows, std::size_t bandwidth,
                             double* dst, std::size_t ld,
                             unsigned threads = 1) {
  const std::size_t col_begin = band_col_begin(lo, r0, bandwidth);
  gemm_count_fused(packed, r0, r0 + rows, packed, col_begin, r0 + rows,
                   stat_tile_sink(stat, tables, tables, lower_only, dst, r0,
                                  col_begin, ld),
                   threads);
  return col_begin;
}

}  // namespace ldla::detail

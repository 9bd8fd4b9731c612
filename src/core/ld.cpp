#include "core/ld.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "core/detail/top_pairs.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/parallel.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

std::string ld_statistic_name(LdStatistic s) {
  switch (s) {
    case LdStatistic::kD: return "D";
    case LdStatistic::kDPrime: return "D'";
    case LdStatistic::kRSquared: return "r^2";
  }
  return "unknown";
}

double ld_d(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
            std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pij = static_cast<double>(cij) / n;
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  return pij - pi * pj;
}

double ld_r_squared(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                    std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  if (pi <= 0.0 || pi >= 1.0 || pj <= 0.0 || pj >= 1.0) {
    return kNaN;  // monomorphic SNP: r^2 undefined
  }
  // The operation order matches detail::stat_row exactly so the scalar and
  // vectorized row paths agree bit-for-bit.
  const double inv_i = 1.0 / (pi * (1.0 - pi));
  const double inv_j = 1.0 / (pj * (1.0 - pj));
  const double pij = static_cast<double>(cij) / n;
  const double d = pij - pi * pj;
  const double r = (d * d) * (inv_i * inv_j);
  // Clamp tiny floating-point excursions so the documented r^2 in [0, 1]
  // invariant holds exactly.
  return r > 1.0 ? 1.0 : r;
}

double ld_d_prime(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                  std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  if (pi <= 0.0 || pi >= 1.0 || pj <= 0.0 || pj >= 1.0) return kNaN;
  const double d = static_cast<double>(cij) / n - pi * pj;
  double dmax;
  if (d >= 0.0) {
    dmax = std::min(pi * (1.0 - pj), (1.0 - pi) * pj);
  } else {
    dmax = std::min(pi * pj, (1.0 - pi) * (1.0 - pj));
  }
  if (dmax <= 0.0) return kNaN;
  return std::clamp(d / dmax, -1.0, 1.0);
}

double ld_value(LdStatistic stat, std::uint64_t ci, std::uint64_t cj,
                std::uint64_t cij, std::uint64_t nseq) {
  switch (stat) {
    case LdStatistic::kD: return ld_d(ci, cj, cij, nseq);
    case LdStatistic::kDPrime: return ld_d_prime(ci, cj, cij, nseq);
    case LdStatistic::kRSquared: return ld_r_squared(ci, cj, cij, nseq);
  }
  return kNaN;
}

void mirror_ld_lower_to_upper(LdMatrix& m) {
  const std::size_t n = m.rows();
  LDLA_EXPECT(m.cols() == n, "mirror needs a square matrix");
  LDLA_TRACE_SPAN(kMirror);
  // Cache-blocked transpose copy (same shape as mirror_lower_to_upper for
  // counts): 64 x 64 x 8 B destination blocks stay resident.
  constexpr std::size_t kBlock = 64;
  for (std::size_t jb = 0; jb < n; jb += kBlock) {
    const std::size_t j_end = std::min(jb + kBlock, n);
    for (std::size_t i = jb; i < j_end; ++i) {
      for (std::size_t j = i + 1; j < j_end; ++j) {
        m(i, j) = m(j, i);
      }
    }
    for (std::size_t ib = j_end; ib < n; ib += kBlock) {
      const std::size_t i_end = std::min(ib + kBlock, n);
      for (std::size_t i = ib; i < i_end; ++i) {
        for (std::size_t j = jb; j < j_end; ++j) {
          m(j, i) = m(i, j);
        }
      }
    }
  }
}

namespace {

// One body per driver shape, shared by the sequential entry point (a team
// of one) and its *_parallel twin. Every body packs once — the caller's
// pack or its own — and converts counts to statistics in the fused tile
// sink; the count nest runs a team of one inline.

unsigned resolve_threads(unsigned threads) {
  return threads == 0 ? default_thread_count() : threads;
}

// Triangular SYRK over the whole matrix: each tile writes only canonical
// (j <= i) entries of its disjoint window of `out`, then one mirror pass
// fills the upper triangle. All three statistics are bitwise symmetric in
// (i, j) (their formulas only combine the operands through commutative
// products and min), so the mirror equals computing the upper triangle.
LdMatrix matrix_body(const BitMatrix& g, const LdOptions& opts,
                     unsigned threads) {
  const std::size_t n = g.snps();
  LdMatrix out(n, n);
  if (n == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), opts.gemm, opts.packed, PackSides::kBoth, own, threads);
  const detail::StatTables tables = detail::make_stat_tables(g);
  syrk_count_fused(
      packed, 0, n,
      detail::stat_tile_sink(opts.stat, tables, tables, /*lower_only=*/true,
                             out.data(), 0, 0, n),
      threads);
  mirror_ld_lower_to_upper(out);
  return out;
}

// One GEMM over the whole m x n problem: stats land straight in `out` from
// hot tiles; no m x n count matrix is ever allocated.
LdMatrix cross_matrix_body(const BitMatrix& a, const BitMatrix& b,
                           const LdOptions& opts, unsigned threads) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  LdMatrix out(m, n);
  if (m == 0 || n == 0) return out;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(
      a.view(), opts.gemm, opts.packed, PackSides::kA, own_a, threads);
  const PackedBitMatrix& pb = resolve_packed(
      b.view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, threads);
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);
  gemm_count_fused(
      pa, 0, m, pb, 0, n,
      detail::stat_tile_sink(opts.stat, ta, tb, /*lower_only=*/false,
                             out.data(), 0, 0, n),
      threads);
  return out;
}

// Trapezoid slabs: rows [r0, r1) against columns [0, r1). The slab's count
// tiles become statistics in the values slab (the tile payload itself), and
// `visit` fires from the calling thread once the slab's nest has joined.
void scan_body(const BitMatrix& g, const LdTileVisitor& visit,
               const LdOptions& opts, unsigned threads) {
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  LDLA_EXPECT(opts.slab_rows > 0, "slab height must be positive");
  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), opts.gemm, opts.packed, PackSides::kBoth, own, threads);
  const detail::StatTables tables = detail::make_stat_tables(g);
  const std::size_t slab = opts.slab_rows;
  AlignedBuffer<double> values(std::min(slab, n) * n);
  for (std::size_t r0 = 0; r0 < n; r0 += slab) {
    const std::size_t rows = std::min(slab, n - r0);
    const std::size_t cols = r0 + rows;  // lower-trapezoid: j < slab end
    gemm_count_fused(
        packed, r0, r0 + rows, packed, 0, cols,
        detail::stat_tile_sink(opts.stat, tables, tables,
                               /*lower_only=*/false, values.data(), r0, 0,
                               cols),
        threads);
    visit(LdTile{r0, 0, rows, cols, values.data(), cols});
  }
}

// Row slabs of `a` against all of `b`, emitted like scan_body's.
void cross_scan_body(const BitMatrix& a, const BitMatrix& b,
                     const LdTileVisitor& visit, const LdOptions& opts,
                     unsigned threads) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  if (m == 0 || n == 0) return;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  LDLA_EXPECT(opts.slab_rows > 0, "slab height must be positive");
  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(
      a.view(), opts.gemm, opts.packed, PackSides::kA, own_a, threads);
  const PackedBitMatrix& pb = resolve_packed(
      b.view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, threads);
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);
  const std::size_t slab = opts.slab_rows;
  AlignedBuffer<double> values(std::min(slab, m) * n);
  for (std::size_t r0 = 0; r0 < m; r0 += slab) {
    const std::size_t rows = std::min(slab, m - r0);
    gemm_count_fused(
        pa, r0, r0 + rows, pb, 0, n,
        detail::stat_tile_sink(opts.stat, ta, tb, /*lower_only=*/false,
                               values.data(), r0, 0, n),
        threads);
    visit(LdTile{r0, 0, rows, n, values.data(), n});
  }
}

// Top-k pairs (DESIGN.md §4.9): each count tile is converted one canonical
// row at a time and offered to a tile-local bounded selector, whose
// survivors merge into one shared selector under a lock. Nothing of size
// n² (or m·n) is held: the packs, the nest's per-member count scratch, one
// row buffer and k pairs per tile in flight, and the k shared pairs.

/// The selector every tile merges into; team members call merge()
/// concurrently.
class SharedTopPairs {
 public:
  explicit SharedTopPairs(std::size_t k) : top_(k) {}

  void merge(const detail::TopPairSelector& tile) {
    MutexLock lock(mu_);
    top_.merge(tile);
  }

  /// Called once the nest has joined.
  std::vector<RankedPair> take() {
    MutexLock lock(mu_);
    return std::move(top_).sorted();
  }

 private:
  Mutex mu_;
  detail::TopPairSelector top_ LDLA_GUARDED_BY(mu_);
};

/// Count tiles of `ta` rows against `tb` columns → statistics → top-k.
/// With `strict_lower` (the symmetric drivers) only pairs j < i are read:
/// the diagonal and the nest's above-diagonal slack never are.
CountTileSink top_pairs_sink(LdStatistic stat, const detail::StatTables& ta,
                             const detail::StatTables& tb, bool strict_lower,
                             std::size_t k, SharedTopPairs& shared) {
  return [=, &ta, &tb, &shared](const CountTile& t) {
    LDLA_TRACE_SPAN(kEpilogue);
    std::vector<double> row(t.cols);
    detail::TopPairSelector tile(k);
    std::uint64_t rows_converted = 0;
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      std::size_t cols = t.cols;
      if (strict_lower) {
        if (gi <= t.col_begin) continue;
        cols = std::min(cols, gi - t.col_begin);
      }
      detail::stat_row_cross_shifted(stat, ta, gi, tb, t.col_begin, t.row(i),
                                     cols, row.data());
      tile.offer_row(gi, t.col_begin, row.data(), cols);
      ++rows_converted;
    }
    metrics::pipeline().epilogue_rows.add(rows_converted);
    shared.merge(tile);
  };
}

}  // namespace

LdMatrix ld_matrix(const BitMatrix& g, const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_matrix_seconds", "ld_matrix driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  return matrix_body(g, opts, 1);
}

LdMatrix ld_matrix_parallel(const BitMatrix& g, const LdOptions& opts,
                            unsigned threads) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_matrix_parallel_seconds",
      "ld_matrix_parallel driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  return matrix_body(g, opts, resolve_threads(threads));
}

LdMatrix ld_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                         const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_matrix_seconds",
      "ld_cross_matrix driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  return cross_matrix_body(a, b, opts, 1);
}

LdMatrix ld_cross_matrix_parallel(const BitMatrix& a, const BitMatrix& b,
                                  const LdOptions& opts, unsigned threads) {
  return cross_matrix_body(a, b, opts, resolve_threads(threads));
}

void ld_scan(const BitMatrix& g, const LdTileVisitor& visit,
             const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_scan_seconds", "ld_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  scan_body(g, visit, opts, 1);
}

void ld_scan_parallel(const BitMatrix& g, const LdTileVisitor& visit,
                      const LdOptions& opts, unsigned threads) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_scan_parallel_seconds",
      "ld_scan_parallel driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  scan_body(g, visit, opts, resolve_threads(threads));
}

void ld_cross_scan(const BitMatrix& a, const BitMatrix& b,
                   const LdTileVisitor& visit, const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_scan_seconds", "ld_cross_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  cross_scan_body(a, b, visit, opts, 1);
}

void ld_cross_scan_parallel(const BitMatrix& a, const BitMatrix& b,
                            const LdTileVisitor& visit, const LdOptions& opts,
                            unsigned threads) {
  cross_scan_body(a, b, visit, opts, resolve_threads(threads));
}

std::vector<RankedPair> ld_top_pairs(const BitMatrix& g, std::size_t k,
                                     const LdOptions& opts,
                                     unsigned threads) {
  const std::size_t n = g.snps();
  if (n < 2 || k == 0) return {};
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  threads = resolve_threads(threads);
  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), opts.gemm, opts.packed, PackSides::kBoth, own, threads);
  const detail::StatTables tables = detail::make_stat_tables(g);
  SharedTopPairs top(k);
  syrk_count_fused(
      packed, 0, n,
      top_pairs_sink(opts.stat, tables, tables, /*strict_lower=*/true, k,
                     top),
      threads);
  return top.take();
}

std::vector<RankedPair> ld_cross_top_pairs(const BitMatrix& a,
                                           const BitMatrix& b, std::size_t k,
                                           const LdOptions& opts,
                                           unsigned threads) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  if (m == 0 || n == 0 || k == 0) return {};
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  threads = resolve_threads(threads);
  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(
      a.view(), opts.gemm, opts.packed, PackSides::kA, own_a, threads);
  const PackedBitMatrix& pb = resolve_packed(
      b.view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, threads);
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);
  SharedTopPairs top(k);
  gemm_count_fused(
      pa, 0, m, pb, 0, n,
      top_pairs_sink(opts.stat, ta, tb, /*strict_lower=*/false, k, top),
      threads);
  return top.take();
}

void ld_stat_scan(const BitMatrix& g, const LdStatTileVisitor& visit,
                  const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_stat_scan_seconds", "ld_stat_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  const detail::StatTables tables = detail::make_stat_tables(g);

  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed =
      resolve_packed(g.view(), opts.gemm, opts.packed, PackSides::kBoth, own);
  // Sized from the clamped tile extent: without blocking, mc and nc are
  // effectively unbounded and their product would wrap.
  const GemmPlan& plan = packed.plan();
  AlignedBuffer<double> values(std::min(plan.mc, n) * std::min(plan.nc, n));
  syrk_count_fused(packed, 0, n, [&](const CountTile& t) {
    if (t.col_begin + t.cols <= t.row_begin + 1) {
      // Tile entirely on/below the diagonal: every entry is canonical.
      {
        LDLA_TRACE_SPAN(kEpilogue);
        for (std::size_t i = 0; i < t.rows; ++i) {
          detail::stat_row_shifted(opts.stat, tables, t.row_begin + i,
                                   t.col_begin, t.row(i), t.cols,
                                   &values[i * t.cols]);
        }
        metrics::pipeline().epilogue_rows.add(t.rows);
      }
      visit(LdTile{t.row_begin, t.col_begin, t.rows, t.cols, values.data(),
                   t.cols});
    } else {
      // Diagonal-crossing tile: emit the valid prefix of each row as a
      // one-row fragment so no above-diagonal entry ever escapes. The
      // span covers the interleaved visits too — fragment rows are tiny.
      LDLA_TRACE_SPAN(kEpilogue);
      std::uint64_t rows_converted = 0;
      for (std::size_t i = 0; i < t.rows; ++i) {
        const std::size_t gi = t.row_begin + i;
        if (gi < t.col_begin) continue;
        const std::size_t width =
            std::min(t.col_begin + t.cols, gi + 1) - t.col_begin;
        detail::stat_row_shifted(opts.stat, tables, gi, t.col_begin,
                                 t.row(i), width, values.data());
        ++rows_converted;
        visit(LdTile{gi, t.col_begin, 1, width, values.data(), width});
      }
      metrics::pipeline().epilogue_rows.add(rows_converted);
    }
  });
}

void ld_cross_stat_scan(const BitMatrix& a, const BitMatrix& b,
                        const LdStatTileVisitor& visit,
                        const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_stat_scan_seconds",
      "ld_cross_stat_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  if (m == 0 || n == 0) return;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);

  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(a.view(), opts.gemm, opts.packed,
                                             PackSides::kA, own_a);
  const PackedBitMatrix& pb = resolve_packed(b.view(), opts.gemm,
                                             opts.packed_b, PackSides::kB,
                                             own_b);
  const GemmPlan& plan = pa.plan();
  AlignedBuffer<double> values(std::min(plan.mc, m) * std::min(plan.nc, n));
  gemm_count_fused(pa, 0, m, pb, 0, n, [&](const CountTile& t) {
    {
      LDLA_TRACE_SPAN(kEpilogue);
      for (std::size_t i = 0; i < t.rows; ++i) {
        detail::stat_row_cross_shifted(opts.stat, ta, t.row_begin + i, tb,
                                       t.col_begin, t.row(i), t.cols,
                                       &values[i * t.cols]);
      }
      metrics::pipeline().epilogue_rows.add(t.rows);
    }
    visit(LdTile{t.row_begin, t.col_begin, t.rows, t.cols, values.data(),
                 t.cols});
  });
}

}  // namespace ldla

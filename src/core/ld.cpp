#include "core/ld.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "core/detail/mirror.hpp"
#include "core/detail/top_pairs.hpp"
#include "core/gemm/macro.hpp"
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
  LDLA_EXPECT(m.cols() == m.rows(), "mirror needs a square matrix");
  detail::mirror_lower_to_upper_blocked(m.data(), m.cols(), m.rows());
}

namespace {

// One body per output — dense matrix, slab scan, stat-tile scan, top-k —
// each serving both shapes over one operand setup. A sequential call is a
// team of one: LdOptions::threads sizes the count nest's team.

/// The operands of one call. Symmetric: `g` against itself, one pack with
/// both sides and one stat table. Cross: rows of `a` against rows of `b`,
/// an A pack, a B pack and a table each. Either pack may be the caller's
/// (LdOptions::packed / packed_b). Empty operands are neither packed nor
/// tabled. Built by operands(), which validates them first.
class Operands {
 public:
  Operands(const BitMatrix& a, const BitMatrix& b, bool symmetric,
           const LdOptions& opts, bool empty)
      : symmetric_(symmetric),
        empty_(empty),
        rows_(a.snps()),
        cols_(b.snps()),
        threads_(opts.threads == 0 ? default_thread_count() : opts.threads) {
    if (empty_) return;
    pa_ = &resolve_packed(a.view(), opts.gemm, opts.packed,
                          symmetric_ ? PackSides::kBoth : PackSides::kA,
                          own_a_, threads_);
    ta_ = detail::make_stat_tables(a);
    if (symmetric_) {
      pb_ = pa_;
    } else {
      pb_ = &resolve_packed(b.view(), opts.gemm, opts.packed_b, PackSides::kB,
                            own_b_, threads_);
      tb_ = detail::make_stat_tables(b);
    }
  }
  Operands(const Operands&) = delete;
  Operands& operator=(const Operands&) = delete;

  [[nodiscard]] bool symmetric() const { return symmetric_; }
  [[nodiscard]] bool empty() const { return empty_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] const GemmPlan& plan() const { return pa_->plan(); }
  [[nodiscard]] const detail::StatTables& ta() const { return ta_; }
  [[nodiscard]] const detail::StatTables& tb() const {
    return symmetric_ ? ta_ : tb_;
  }

  /// Every pair through the shape's count nest: the lower triangle
  /// (symmetric; sinks clip to canonical entries) or the full rectangle.
  void count(const CountTileSink& sink) const {
    detail::count_tiles(*pa_, 0, rows_, *pb_, 0, cols_, symmetric_, sink,
                        threads_);
  }

  /// Rows [r0, r1) against columns [0, slab_cols(r1)) through the GEMM nest.
  void count_slab(std::size_t r0, std::size_t r1,
                  const CountTileSink& sink) const {
    gemm_count_fused(*pa_, r0, r1, *pb_, 0, slab_cols(r1), sink, threads_);
  }

  /// Column extent of the slab ending at row r1: the lower trapezoid
  /// [0, r1) when symmetric, all of `b` when cross.
  [[nodiscard]] std::size_t slab_cols(std::size_t r1) const {
    return symmetric_ ? r1 : cols_;
  }

 private:
  bool symmetric_;
  bool empty_;
  std::size_t rows_;
  std::size_t cols_;
  unsigned threads_;
  std::optional<PackedBitMatrix> own_a_;
  std::optional<PackedBitMatrix> own_b_;
  const PackedBitMatrix* pa_ = nullptr;
  const PackedBitMatrix* pb_ = nullptr;
  detail::StatTables ta_;
  detail::StatTables tb_;
};

/// Validate the operands of one call and set them up. They are empty when
/// either side has no SNPs or the caller needs no pairs (`need` false).
Operands operands(const BitMatrix& a, const BitMatrix& b, bool symmetric,
                  const LdOptions& opts, bool need = true) {
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const bool empty = !need || a.snps() == 0 || b.snps() == 0;
  LDLA_EXPECT(empty || a.samples() > 0, "matrix has no samples");
  return Operands(a, b, symmetric, opts, empty);
}

// Symmetric: the triangular SYRK writes only canonical (j <= i) entries of
// each tile's disjoint window of `out`, then one mirror pass fills the upper
// triangle. All three statistics are bitwise symmetric in (i, j) (their
// formulas only combine the operands through commutative products and min),
// so the mirror equals computing the upper triangle. Cross: stats land in
// `out` straight from hot tiles. No count matrix is ever allocated.
LdMatrix matrix_body(const Operands& ops, const LdOptions& opts) {
  LdMatrix out(ops.rows(), ops.cols());
  if (ops.empty()) return out;
  ops.count(detail::stat_tile_sink(opts.stat, ops.ta(), ops.tb(),
                                   /*lower_only=*/ops.symmetric(), out.data(),
                                   0, 0, ops.cols()));
  if (ops.symmetric()) mirror_ld_lower_to_upper(out);
  return out;
}

// Row slabs [r0, r1) against columns [0, slab_cols(r1)). The slab's count
// tiles become statistics in the values slab (the tile payload itself), and
// `visit` fires from the calling thread once the slab's nest has joined.
void scan_body(const Operands& ops, const LdTileVisitor& visit,
               const LdOptions& opts) {
  if (ops.empty()) return;
  const std::size_t slab = opts.slab_rows;
  AlignedBuffer<double> values(std::min(slab, ops.rows()) * ops.cols());
  for (std::size_t r0 = 0; r0 < ops.rows(); r0 += slab) {
    const std::size_t r1 = r0 + std::min(slab, ops.rows() - r0);
    const std::size_t cols = ops.slab_cols(r1);
    ops.count_slab(r0, r1,
                   detail::stat_tile_sink(opts.stat, ops.ta(), ops.tb(),
                                          /*lower_only=*/false, values.data(),
                                          r0, 0, cols));
    visit(LdTile{r0, 0, r1 - r0, cols, values.data(), cols});
  }
}

// Stat tiles straight from the fused epilogue through the stat-tile emitter
// (canonical fragments on the symmetric diagonal), O(mc·nc) resident. The
// scratch is sized from the clamped tile extent: without blocking, mc and
// nc are effectively unbounded and their product would wrap.
void stat_scan_body(const Operands& ops, const LdStatTileVisitor& visit,
                    const LdOptions& opts) {
  if (ops.empty()) return;
  const GemmPlan& plan = ops.plan();
  detail::TileScratch scratch(
      std::min(plan.mc, ops.rows()) * std::min(plan.nc, ops.cols()),
      ops.threads());
  ops.count(detail::stat_tile_emitter(opts.stat, ops.ta(), 0, ops.tb(), 0,
                                      ops.symmetric(), scratch, visit));
}

// Top-k pairs (DESIGN.md §4.9): each count tile is converted one row at a
// time and offered to a tile-local bounded selector, whose survivors merge
// into one shared selector under a lock. Nothing of size n² (or m·n) is
// held: the packs, the nest's per-member count scratch, one row buffer and
// k pairs per tile in flight, and the k shared pairs.

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

// Symmetric operands read only pairs j < i: the diagonal and the nest's
// above-diagonal slack never are.
std::vector<RankedPair> top_pairs_body(const Operands& ops, std::size_t k,
                                       LdStatistic stat) {
  if (ops.empty()) return {};
  SharedTopPairs shared(k);
  const bool strict_lower = ops.symmetric();
  const detail::StatTables& ta = ops.ta();
  const detail::StatTables& tb = ops.tb();
  ops.count([&](const CountTile& t) {
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
  });
  return shared.take();
}

}  // namespace

LdMatrix ld_matrix(const BitMatrix& g, const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_matrix_seconds", "ld_matrix driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  return matrix_body(operands(g, g, /*symmetric=*/true, opts), opts);
}

LdMatrix ld_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                         const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_matrix_seconds",
      "ld_cross_matrix driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  return matrix_body(operands(a, b, /*symmetric=*/false, opts), opts);
}

void ld_scan(const BitMatrix& g, const LdTileVisitor& visit,
             const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_scan_seconds", "ld_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  LDLA_EXPECT(visit != nullptr, "scan needs a visitor");
  LDLA_EXPECT(opts.slab_rows > 0, "slab height must be positive");
  scan_body(operands(g, g, /*symmetric=*/true, opts), visit, opts);
}

void ld_cross_scan(const BitMatrix& a, const BitMatrix& b,
                   const LdTileVisitor& visit, const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_scan_seconds", "ld_cross_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  LDLA_EXPECT(visit != nullptr, "scan needs a visitor");
  LDLA_EXPECT(opts.slab_rows > 0, "slab height must be positive");
  scan_body(operands(a, b, /*symmetric=*/false, opts), visit, opts);
}

void ld_stat_scan(const BitMatrix& g, const LdStatTileVisitor& visit,
                  const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_stat_scan_seconds", "ld_stat_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  stat_scan_body(operands(g, g, /*symmetric=*/true, opts), visit, opts);
}

void ld_cross_stat_scan(const BitMatrix& a, const BitMatrix& b,
                        const LdStatTileVisitor& visit,
                        const LdOptions& opts) {
  static metrics::Histogram& h_call = metrics::histogram(
      "ldla_ld_cross_stat_scan_seconds",
      "ld_cross_stat_scan driver call latency");
  metrics::ScopedLatency metrics_lat(h_call);
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");
  stat_scan_body(operands(a, b, /*symmetric=*/false, opts), visit, opts);
}

std::vector<RankedPair> ld_top_pairs(const BitMatrix& g, std::size_t k,
                                     const LdOptions& opts) {
  return top_pairs_body(
      operands(g, g, /*symmetric=*/true, opts, k > 0 && g.snps() > 1), k,
      opts.stat);
}

std::vector<RankedPair> ld_cross_top_pairs(const BitMatrix& a,
                                           const BitMatrix& b, std::size_t k,
                                           const LdOptions& opts) {
  return top_pairs_body(operands(a, b, /*symmetric=*/false, opts, k > 0), k,
                        opts.stat);
}

}  // namespace ldla

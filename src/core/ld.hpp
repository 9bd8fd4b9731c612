// Linkage-disequilibrium statistics on top of the popcount-GEMM engine.
//
// Section II of the paper: with allele count c_i = s_i^T s_i, haplotype
// count c_ij = s_i^T s_j and sample size Nseq,
//
//   P_i  = c_i  / Nseq                (allele frequency, Eq. 3)
//   P_ij = c_ij / Nseq                (haplotype frequency, Eq. 4)
//   D    = P_ij - P_i P_j             (Eq. 1/5)
//   r^2  = D^2 / (P_i P_j (1-P_i)(1-P_j))   (Eq. 2)
//
// plus the conventional normalized D' = D / D_max. Monomorphic SNPs make
// r^2 and D' undefined; those entries are reported as NaN.
//
// Every driver runs on a PackedBitMatrix (LdOptions::packed, or one packed
// per call) and converts counts to statistics in the fused tile sink: each
// finalized count tile becomes D/D'/r² while still hot in cache, so no
// count matrix is ever materialized. Each output has one body for both
// shapes: a symmetric driver is its cross twin with a == b, restricted to
// the lower triangle.
//
// Threads (DESIGN.md §4.4). LdOptions::threads sizes a team; a sequential
// call is a team of one. The operand is packed once as a team (one sliver
// range per worker, one barrier per side), then the team works *inside*
// one loop nest: per-member Chase–Lev deques drain a queue of (ic, jr)
// macro-tile chunks over the shared immutable pack, stealing from each
// other when their block runs dry. The symmetric drivers enqueue only
// diagonal-and-below chunks, so the SYRK triangle saving survives
// parallelization. Results are bit-identical for every thread count. Tasks
// execute on the process-wide global_pool(), so execution parallelism is
// additionally capped by that pool's size and repeated calls pay no thread
// spawn/join cost. The slab scans fire their visitor sequentially from the
// calling thread after each slab's nest has joined; the stat-tile scans
// call it concurrently when threads != 1 (as the streams of
// core/ld_stream.hpp do).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "util/aligned_buffer.hpp"

namespace ldla {

enum class LdStatistic {
  kD,         ///< raw disequilibrium coefficient D
  kDPrime,    ///< D normalized by its theoretical extreme, in [-1, 1]
  kRSquared,  ///< squared Pearson correlation, in [0, 1]
};

std::string ld_statistic_name(LdStatistic s);

/// Scalar formulas (building blocks; exposed for tests and baselines).
/// All take raw counts plus the sample size.
double ld_d(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
            std::uint64_t nseq);
double ld_r_squared(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                    std::uint64_t nseq);
double ld_d_prime(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                  std::uint64_t nseq);
double ld_value(LdStatistic stat, std::uint64_t ci, std::uint64_t cj,
                std::uint64_t cij, std::uint64_t nseq);

struct LdOptions {
  LdStatistic stat = LdStatistic::kRSquared;
  GemmConfig gemm;
  /// Row-slab height of the streaming drivers (memory/latency trade-off).
  std::size_t slab_rows = 256;
  /// Optional persistent packed operand for the primary matrix (`g`, or
  /// `a` in the cross drivers). Must be packed from the same matrix with
  /// the same GemmConfig (shape is checked, content is the caller's
  /// responsibility). Repeated-call workloads pack once per dataset and
  /// pass it here; when null, each call packs once internally.
  const PackedBitMatrix* packed = nullptr;
  /// Same for the second matrix of the cross drivers (needs a B side).
  const PackedBitMatrix* packed_b = nullptr;
  /// Team size of the drivers in this header: 1 (default) runs the count
  /// nest inline on the calling thread, 0 means default_thread_count()
  /// (the LDLA_THREADS environment variable, else hardware concurrency).
  unsigned threads = 1;
};

/// One ranked SNP pair of a top-k report: row SNP `i`, column SNP `j` and
/// the statistic's value for the pair.
struct RankedPair {
  std::size_t i = 0;
  std::size_t j = 0;
  double value = 0.0;
};

/// The ranking order of every top-k report: value descending, then i
/// ascending, then j ascending. It is total on distinct (i, j), so a top-k
/// list is fully determined by its input, whatever order pairs arrive in.
[[nodiscard]] inline bool ranks_before(const RankedPair& a,
                                       const RankedPair& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.i != b.i) return a.i < b.i;
  return a.j < b.j;
}

/// Dense row-major matrix of doubles (LD values).
class LdMatrix {
 public:
  LdMatrix() = default;
  LdMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), buf_(rows * cols) {
    buf_.zero();
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return buf_[i * cols_ + j];
  }
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return buf_[i * cols_ + j];
  }
  [[nodiscard]] const double* data() const noexcept { return buf_.data(); }
  [[nodiscard]] double* data() noexcept { return buf_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer<double> buf_;
};

/// All-pairs LD within one genomic matrix (full symmetric n x n result,
/// diagonal = LD of a SNP with itself). Intended for moderate n; for large
/// regions use ld_scan.
LdMatrix ld_matrix(const BitMatrix& g, const LdOptions& opts = {});

/// ld_matrix with a team of `threads` (0 = default_thread_count()); the
/// form that predates LdOptions::threads, kept for its callers.
inline LdMatrix ld_matrix_parallel(const BitMatrix& g, LdOptions opts = {},
                                   unsigned threads = 0) {
  opts.threads = threads;
  return ld_matrix(g, opts);
}

/// LD between every SNP of `a` and every SNP of `b` (the Fig. 4 / long-range
/// association use case). Both matrices must cover the same samples.
LdMatrix ld_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                         const LdOptions& opts = {});

/// A tile of LD values streamed out of a scan. Row/col indices are SNP
/// indices in the input matrices; `values` is row-major with leading
/// dimension `ld`.
struct LdTile {
  std::size_t row_begin = 0;
  std::size_t col_begin = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const double* values = nullptr;
  std::size_t ld = 0;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return values[i * ld + j];
  }
};

using LdTileVisitor = std::function<void(const LdTile&)>;

/// Streaming all-pairs LD over one matrix: emits row slabs covering every
/// pair (i, j) with j <= i exactly once (tiles are lower-trapezoidal: a
/// slab of rows [r0, r1) comes with columns [0, r1)). Memory use is
/// O(slab_rows * n), independent of the number of pairs.
void ld_scan(const BitMatrix& g, const LdTileVisitor& visit,
             const LdOptions& opts = {});

/// Streaming cross-matrix LD over row slabs of `a` (columns span all of b).
void ld_cross_scan(const BitMatrix& a, const BitMatrix& b,
                   const LdTileVisitor& visit, const LdOptions& opts = {});

/// Visitor for stat tiles delivered straight from the fused GEMM epilogue:
/// tile geometry follows the cache blocking (at most mc x nc), values are
/// valid only for the duration of the call, and — unlike the slab scans —
/// total resident memory is O(mc·nc) per thread, independent of n. With a
/// team (threads != 1) the visitor is called CONCURRENTLY; tiles stay
/// disjoint, so a visitor writing disjoint output ranges needs no lock,
/// and TileStoreWriter::add (io/tile_store.hpp) can be the visitor as is.
using LdStatTileVisitor = std::function<void(const LdTile&)>;

/// Lowest-memory streaming all-pairs LD: emits stat tiles directly from
/// the fused epilogue, covering every canonical pair (j <= i, including
/// the diagonal) exactly once and emitting no other entries. Of a
/// diagonal-crossing cache tile, the rows wholly on or below the diagonal
/// arrive as one tile and only the at most cols - 1 rows the diagonal cuts
/// arrive as one-row fragments, so every emitted value is valid.
void ld_stat_scan(const BitMatrix& g, const LdStatTileVisitor& visit,
                  const LdOptions& opts = {});

/// Cross-matrix variant of ld_stat_scan: every (row of a, row of b) pair
/// exactly once, in cache-tile geometry, O(mc·nc) resident.
void ld_cross_stat_scan(const BitMatrix& a, const BitMatrix& b,
                        const LdStatTileVisitor& visit,
                        const LdOptions& opts = {});

/// The k best pairs (i, j), j < i, of one matrix in ranks_before order,
/// streamed through a fused top-k sink: count tiles become statistics row
/// by row, feed tile-local bounded selectors, and those merge into one
/// shared selector under a lock. NaN entries (monomorphic SNPs) are never
/// ranked. Memory is O(k + threads·mc·nc), not O(n²), and the list equals
/// top_pairs(ld_matrix(g, opts), k) for every thread count.
std::vector<RankedPair> ld_top_pairs(const BitMatrix& g, std::size_t k,
                                     const LdOptions& opts = {});

/// The k best (row of a, row of b) pairs in ranks_before order, streamed
/// like ld_top_pairs; i indexes `a` and j indexes `b`.
std::vector<RankedPair> ld_cross_top_pairs(const BitMatrix& a,
                                           const BitMatrix& b, std::size_t k,
                                           const LdOptions& opts = {});

/// Mirror the lower triangle (j < i) of a square LdMatrix into the upper
/// triangle, cache-blocked. All three statistics are symmetric in (i, j)
/// operation-for-operation, so mirroring stats equals computing them from
/// mirrored counts bit-for-bit.
void mirror_ld_lower_to_upper(LdMatrix& m);

/// Number of LD values a full symmetric analysis of n SNPs produces,
/// N(N+1)/2 including the diagonal — the paper's "50M pairwise LDs" figure
/// counts exactly this for N = 10,000.
[[nodiscard]] constexpr std::uint64_t ld_pair_count(std::uint64_t n) {
  return n * (n + 1) / 2;
}

}  // namespace ldla

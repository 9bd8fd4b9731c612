// Multi-threaded LD drivers (DESIGN.md §4.4).
//
// Each driver is its sequential twin in core/ld.hpp run by a team: the
// operand is packed once as a team (one sliver range per worker, one
// barrier per side), then the team works *inside* one loop nest —
// per-member Chase–Lev deques drain a queue of (ic, jr) macro-tile chunks
// over the shared immutable pack, stealing from each other when their
// block runs dry. The symmetric drivers enqueue only diagonal-and-below
// chunks, so the SYRK triangle saving survives parallelization. Count
// tiles become statistics in the fused sink, and scan visitors fire
// sequentially from the calling thread after each slab's nest has joined;
// they need no locking. Results are bit-identical to the sequential
// drivers for every thread count. The top-k drivers have no separate
// sequential entry point; threads = 1 runs them as a team of one.
//
// `threads` sizes the team (0 = default_thread_count(): the LDLA_THREADS
// environment variable, else hardware concurrency); tasks execute on the
// process-wide global_pool(), so execution parallelism is additionally
// capped by that pool's size and repeated calls pay no thread spawn/join
// cost.
#pragma once

#include <vector>

#include "core/ld.hpp"

namespace ldla {

/// All-pairs LD with `threads` workers (0 = hardware concurrency).
/// Semantically identical to ld_matrix.
LdMatrix ld_matrix_parallel(const BitMatrix& g, const LdOptions& opts = {},
                            unsigned threads = 0);

/// Cross-matrix LD with `threads` workers; identical to ld_cross_matrix.
LdMatrix ld_cross_matrix_parallel(const BitMatrix& a, const BitMatrix& b,
                                  const LdOptions& opts = {},
                                  unsigned threads = 0);

/// Streaming all-pairs scan; tile coverage and values are identical to
/// ld_scan (every pair (i, j) with j <= i appears in exactly one tile), and
/// `visit` fires sequentially from the calling thread.
void ld_scan_parallel(const BitMatrix& g, const LdTileVisitor& visit,
                      const LdOptions& opts = {}, unsigned threads = 0);

/// Streaming cross-matrix scan; identical tiles to ld_cross_scan.
void ld_cross_scan_parallel(const BitMatrix& a, const BitMatrix& b,
                            const LdTileVisitor& visit,
                            const LdOptions& opts = {}, unsigned threads = 0);

/// The k best pairs (i, j), j < i, of one matrix in ranks_before order,
/// streamed through a fused top-k sink on the in-nest team: count tiles
/// become statistics row by row, feed tile-local bounded selectors, and
/// those merge into one shared selector under a lock. NaN entries
/// (monomorphic SNPs) are never ranked. Memory is O(k + threads·mc·nc),
/// not O(n²), and the list equals top_pairs(ld_matrix(g, opts), k) for
/// every thread count.
std::vector<RankedPair> ld_top_pairs(const BitMatrix& g, std::size_t k,
                                     const LdOptions& opts = {},
                                     unsigned threads = 0);

/// The k best (row of a, row of b) pairs in ranks_before order, streamed
/// like ld_top_pairs; i indexes `a` and j indexes `b`.
std::vector<RankedPair> ld_cross_top_pairs(const BitMatrix& a,
                                           const BitMatrix& b, std::size_t k,
                                           const LdOptions& opts = {},
                                           unsigned threads = 0);

}  // namespace ldla

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
// drivers for every thread count.
//
// `threads` sizes the team (0 = default_thread_count(): the LDLA_THREADS
// environment variable, else hardware concurrency); tasks execute on the
// process-wide global_pool(), so execution parallelism is additionally
// capped by that pool's size and repeated calls pay no thread spawn/join
// cost.
#pragma once

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

}  // namespace ldla

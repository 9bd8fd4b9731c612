// Whole-region selective-sweep scan: omega evaluated on a grid of positions
// (OmegaPlus's main loop), with each window's pairwise r^2 matrix produced
// by the GEMM engine.
#pragma once

#include <cstddef>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

struct SweepScanParams {
  std::size_t grid_points = 100;   ///< evaluation positions across [0, 1)
  std::size_t window_snps = 40;    ///< SNPs on EACH side of the grid point
  /// OmegaPlus-style window search: when non-empty, every grid point also
  /// evaluates these half-window sizes and reports the maximizing one
  /// (window_snps is always included).
  std::vector<std::size_t> window_candidates;
  GemmConfig gemm;
  /// Optional persistent packed operand for `g` (see LdOptions::packed);
  /// when null, the scan packs `g` once per call. One band pass over the
  /// pack turns count tiles into r² rows in a ring of about 64 + 2·(widest
  /// half-window) rows that grid windows read, so overlapping windows share
  /// each r²; the pass skips the rows between windows that do not overlap.
  const PackedBitMatrix* packed = nullptr;
  /// Team size: 1 (default) scans on the calling thread, 0 means
  /// default_thread_count(). The grid points are split into `threads`
  /// contiguous ranges over one shared pack, each streaming its own band
  /// pass and ring with team-of-one nests (only a band of rows is
  /// recomputed at each seam). Results are identical for every team size.
  unsigned threads = 1;
};

struct OmegaPoint {
  double position = 0.0;
  double omega = 0.0;
  std::size_t window_begin = 0;  ///< SNP range the window covered
  std::size_t window_end = 0;
  std::size_t best_split = 0;    ///< split (SNPs left of it) maximizing omega
};

/// Scan a region. `positions` are the sorted SNP coordinates in [0, 1)
/// (as produced by the simulators or parsed from input files).
std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params = {});

/// Highest-omega grid point of a scan (the sweep candidate).
OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan);

}  // namespace ldla

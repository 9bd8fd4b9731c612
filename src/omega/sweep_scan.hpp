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
  /// Optional persistent packed operand for `g` (see LdOptions::packed).
  /// Windows are tiny relative to the region and neighbouring grid points
  /// overlap heavily, so the scan slices one pack instead of gathering and
  /// re-packing every window; when null, omega_scan packs `g` once per
  /// call. Each window's r² matrix is filled straight from hot count tiles
  /// (the fused epilogue), so ω consumes r² with zero count storage.
  const PackedBitMatrix* packed = nullptr;
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

/// Same scan with `threads` workers (0 = default_thread_count()). The grid
/// points are split statically into `threads` contiguous ranges that share
/// one pack; each worker evaluates its windows with a team-of-one
/// syrk_count_fused (a window of a few hundred SNPs is too small for an
/// in-nest team).
/// Results identical to omega_scan.
std::vector<OmegaPoint> omega_scan_parallel(
    const BitMatrix& g, const std::vector<double>& positions,
    const SweepScanParams& params = {}, unsigned threads = 0);

/// Highest-omega grid point of a scan (the sweep candidate).
OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan);

}  // namespace ldla

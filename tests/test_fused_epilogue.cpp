// Property sweep for the fused statistics epilogue: every LD, band and ω
// driver converts count tiles to statistics in the tile sink, and the
// result must match the naive per-bit oracle across stat x kernel arch x
// blocking params (including no blocking) x ragged shapes x unaligned
// band and omega windows x sequential/parallel drivers. The tile-geometry
// contracts of the scans are asserted directly.
#include "core/ld.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "omega/omega_stat.hpp"
#include "omega/sweep_scan.hpp"
#include "sim/rng.hpp"
#include "util/metrics.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(0.4)) m.set(s, b, true);
    }
  }
  return m;
}

// Ragged shapes, none a multiple of any register tile; sample counts off
// word boundaries so padding words are always in play.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {5, 100}, {33, 323}, {70, 129}, {128, 1000}};

constexpr std::array<LdStatistic, 3> kStats = {
    LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared};

// Auto, tiny blocks (many panels and edge tiles), kc forcing several k
// panels, and no blocking at all (one giant cache tile whose mc/nc are
// effectively unbounded).
std::vector<GemmConfig> blocking_configs(KernelArch arch) {
  std::vector<GemmConfig> cfgs(4);
  cfgs[1].kc_words = 2;
  cfgs[1].mc = 8;
  cfgs[1].nc = 8;
  cfgs[2].kc_words = 3;
  cfgs[2].mc = 24;
  cfgs[2].nc = 16;
  cfgs[3].blocking = false;
  for (GemmConfig& cfg : cfgs) cfg.arch = arch;
  return cfgs;
}

/// Naive oracle: LD of every (row of a, row of b) pair from per-bit counts.
LdMatrix oracle_ld(const BitMatrix& a, const BitMatrix& b,
                   const CountMatrix& counts, LdStatistic stat) {
  LdMatrix out(a.snps(), b.snps());
  for (std::size_t i = 0; i < a.snps(); ++i) {
    for (std::size_t j = 0; j < b.snps(); ++j) {
      out(i, j) = ld_value(stat, a.derived_count(i), b.derived_count(j),
                           counts(i, j), a.samples());
    }
  }
  return out;
}

void expect_near(double got, double want, const char* what, std::size_t i,
                 std::size_t j) {
  if (std::isnan(want)) {
    ASSERT_TRUE(std::isnan(got)) << what << " at (" << i << "," << j << ")";
  } else {
    ASSERT_NEAR(got, want, 1e-12) << what << " at (" << i << "," << j << ")";
  }
}

void expect_matrix_near(const LdMatrix& got, const LdMatrix& want,
                        const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      expect_near(got(i, j), want(i, j), what, i, j);
    }
  }
}

/// Every entry of a tile against the oracle, by global index.
void expect_tile_near(const LdTile& t, const LdMatrix& want,
                      const char* what) {
  for (std::size_t i = 0; i < t.rows; ++i) {
    for (std::size_t j = 0; j < t.cols; ++j) {
      expect_near(t.at(i, j), want(t.row_begin + i, t.col_begin + j), what,
                  t.row_begin + i, t.col_begin + j);
    }
  }
}

class FusedEpilogue : public ::testing::TestWithParam<KernelArch> {};

TEST_P(FusedEpilogue, LdMatrixMatchesNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix g = random_matrix(n, k, n * 57 + k);
    const CountMatrix counts = naive_count_matrix(g, g);
    for (const LdStatistic stat : kStats) {
      const LdMatrix want = oracle_ld(g, g, counts, stat);
      for (const GemmConfig& cfg : blocking_configs(GetParam())) {
        LdOptions opts;
        opts.gemm = cfg;
        opts.stat = stat;
        expect_matrix_near(ld_matrix(g, opts), want,
                           ld_statistic_name(stat).c_str());
      }
    }
  }
}

TEST_P(FusedEpilogue, CrossMatrixMatchesNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix a = random_matrix(n, k, n * 77 + k);
    const BitMatrix b = random_matrix((n * 2) / 3 + 1, k, n * 131 + k);
    const CountMatrix counts = naive_count_matrix(a, b);
    for (const LdStatistic stat : kStats) {
      const LdMatrix want = oracle_ld(a, b, counts, stat);
      for (const GemmConfig& cfg : blocking_configs(GetParam())) {
        LdOptions opts;
        opts.gemm = cfg;
        opts.stat = stat;
        expect_matrix_near(ld_cross_matrix(a, b, opts), want,
                           ld_statistic_name(stat).c_str());
      }
    }
  }
}

// Slab scans: tiles arrive in row order; a slab of rows [r0, r1) comes with
// columns [0, r1) (ld_scan) or [0, n_b) (ld_cross_scan), and every value in
// the tile — above-diagonal trapezoid entries included — is valid LD.
TEST_P(FusedEpilogue, ScansEmitDocumentedSlabsWithNaiveValues) {
  const BitMatrix g = random_matrix(93, 323, 41);
  const BitMatrix b = random_matrix(45, 323, 43);
  const std::size_t n = g.snps();
  constexpr std::size_t kSlab = 17;  // off every tile boundary
  const CountMatrix gg = naive_count_matrix(g, g);
  const CountMatrix gb = naive_count_matrix(g, b);
  for (const LdStatistic stat : kStats) {
    const LdMatrix want_g = oracle_ld(g, g, gg, stat);
    const LdMatrix want_b = oracle_ld(g, b, gb, stat);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      LdOptions opts;
      opts.gemm = cfg;
      opts.stat = stat;
      opts.slab_rows = kSlab;

      std::size_t next = 0;
      ld_scan(g, [&](const LdTile& t) {
        const std::size_t r1 = std::min(next + kSlab, n);
        ASSERT_EQ(t.row_begin, next);
        ASSERT_EQ(t.rows, r1 - next);
        ASSERT_EQ(t.col_begin, 0u);
        ASSERT_EQ(t.cols, r1);
        expect_tile_near(t, want_g, "ld_scan");
        next = r1;
      }, opts);
      EXPECT_EQ(next, n);

      next = 0;
      ld_cross_scan(g, b, [&](const LdTile& t) {
        const std::size_t r1 = std::min(next + kSlab, n);
        ASSERT_EQ(t.row_begin, next);
        ASSERT_EQ(t.rows, r1 - next);
        ASSERT_EQ(t.col_begin, 0u);
        ASSERT_EQ(t.cols, b.snps());
        expect_tile_near(t, want_b, "ld_cross_scan");
        next = r1;
      }, opts);
      EXPECT_EQ(next, n);
    }
  }
}

TEST_P(FusedEpilogue, BandScanMatchesNaiveAtUnalignedWindows) {
  const BitMatrix g = random_matrix(90, 129, 47);
  const std::size_t n = g.snps();
  constexpr std::size_t kSlab = 13;
  const LdMatrix want =
      oracle_ld(g, g, naive_count_matrix(g, g), LdStatistic::kRSquared);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    // Bandwidths and slabs chosen so column windows start/end off every
    // sliver and cache-tile boundary.
    for (const std::size_t bandwidth : {1ul, 11ul, 37ul}) {
      BandOptions opts;
      opts.gemm = cfg;
      opts.slab_rows = kSlab;
      std::size_t next = 0;
      ld_band_scan(g, bandwidth, [&](const LdTile& t) {
        const std::size_t r1 = std::min(next + kSlab, n);
        const std::size_t c0 = next > bandwidth ? next - bandwidth : 0;
        ASSERT_EQ(t.row_begin, next);
        ASSERT_EQ(t.rows, r1 - next);
        ASSERT_EQ(t.col_begin, c0);
        ASSERT_EQ(t.cols, r1 - c0);
        expect_tile_near(t, want, "ld_band_scan");
        next = r1;
      }, opts);
      EXPECT_EQ(next, n);
    }
  }
}

// Stat scans: tiles follow the cache blocking (at most mc x nc), carry only
// canonical pairs (j <= i) in the symmetric case, and cover each pair
// exactly once. The no-blocking config exercises effectively unbounded mc
// and nc, which the stat-tile buffer must not multiply unclamped.
TEST_P(FusedEpilogue, StatScanCoversCanonicalPairsExactlyOnce) {
  const BitMatrix g = random_matrix(70, 129, 53);
  const std::size_t n = g.snps();
  const LdMatrix want =
      oracle_ld(g, g, naive_count_matrix(g, g), LdStatistic::kRSquared);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const GemmPlan plan = resolve_plan(cfg, g.view().n_words);
    LdOptions opts;
    opts.gemm = cfg;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    ld_stat_scan(g, [&](const LdTile& t) {
      ASSERT_LE(t.rows, plan.mc);
      ASSERT_LE(t.cols, plan.nc);
      for (std::size_t i = 0; i < t.rows; ++i) {
        for (std::size_t j = 0; j < t.cols; ++j) {
          const auto key = std::pair(t.row_begin + i, t.col_begin + j);
          ASSERT_LE(key.second, key.first) << "non-canonical entry emitted";
          ASSERT_TRUE(seen.insert(key).second) << "duplicate pair";
        }
      }
      expect_tile_near(t, want, "ld_stat_scan");
    }, opts);
    ASSERT_EQ(seen.size(), ld_pair_count(n));
  }
}

TEST_P(FusedEpilogue, CrossStatScanCoversEveryPairExactlyOnce) {
  const BitMatrix a = random_matrix(33, 323, 59);
  const BitMatrix b = random_matrix(23, 323, 61);
  const LdMatrix want =
      oracle_ld(a, b, naive_count_matrix(a, b), LdStatistic::kRSquared);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const GemmPlan plan = resolve_plan(cfg, a.view().n_words);
    LdOptions opts;
    opts.gemm = cfg;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    ld_cross_stat_scan(a, b, [&](const LdTile& t) {
      ASSERT_LE(t.rows, plan.mc);
      ASSERT_LE(t.cols, plan.nc);
      for (std::size_t i = 0; i < t.rows; ++i) {
        for (std::size_t j = 0; j < t.cols; ++j) {
          const auto key = std::pair(t.row_begin + i, t.col_begin + j);
          ASSERT_TRUE(seen.insert(key).second) << "duplicate pair";
        }
      }
      expect_tile_near(t, want, "ld_cross_stat_scan");
    }, opts);
    ASSERT_EQ(seen.size(), a.snps() * b.snps());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FusedEpilogue, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- parallel drivers and omega windows ---------------------------------

TEST(FusedEpilogueParallel, ParallelScanMatchesNaiveFromCallingThread) {
  const BitMatrix g = random_matrix(93, 200, 67);
  const std::size_t n = g.snps();
  constexpr std::size_t kSlab = 17;
  const CountMatrix counts = naive_count_matrix(g, g);
  const std::thread::id caller = std::this_thread::get_id();
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = oracle_ld(g, g, counts, stat);
    LdOptions opts;
    opts.stat = stat;
    opts.slab_rows = kSlab;
    opts.threads = 3;
    // The team works inside each slab's nest; the visitor fires in slab
    // order from this thread, so it needs no locking.
    std::size_t next = 0;
    ld_scan(
        g,
        [&](const LdTile& t) {
          ASSERT_EQ(std::this_thread::get_id(), caller);
          const std::size_t r1 = std::min(next + kSlab, n);
          ASSERT_EQ(t.row_begin, next);
          ASSERT_EQ(t.rows, r1 - next);
          ASSERT_EQ(t.cols, r1);
          expect_tile_near(t, want, "ld_scan team of 3");
          next = r1;
        },
        opts);
    EXPECT_EQ(next, n);
  }
}

TEST(FusedEpilogueParallel, ParallelMatricesMatchNaive) {
  const BitMatrix g = random_matrix(70, 129, 71);
  const BitMatrix b = random_matrix(33, 129, 73);
  const CountMatrix gg = naive_count_matrix(g, g);
  const CountMatrix gb = naive_count_matrix(g, b);
  for (const LdStatistic stat : kStats) {
    LdOptions opts;
    opts.stat = stat;
    opts.slab_rows = 17;
    opts.threads = 3;
    expect_matrix_near(ld_matrix(g, opts), oracle_ld(g, g, gg, stat),
                       "ld_matrix team of 3");
    expect_matrix_near(ld_cross_matrix(g, b, opts), oracle_ld(g, b, gb, stat),
                       "ld_cross_matrix team of 3");
  }
}

/// Naive ω oracle: the scan's grid and window rules, with each window's r²
/// built from per-bit pair counts over its polymorphic SNPs.
std::vector<OmegaPoint> oracle_omega(const BitMatrix& g,
                                     const std::vector<double>& positions,
                                     const SweepScanParams& params) {
  const auto window = [&](double x, std::size_t center,
                          std::size_t half) -> std::optional<OmegaPoint> {
    const std::size_t begin = center > half ? center - half : 0;
    const std::size_t end = std::min(g.snps(), center + half);
    std::vector<std::size_t> keep;
    for (std::size_t s = begin; s < end; ++s) {
      if (g.is_polymorphic(s)) keep.push_back(s);
    }
    if (end - begin < 4 || keep.size() < 4) return std::nullopt;
    LdMatrix r2(keep.size(), keep.size());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      for (std::size_t j = 0; j < keep.size(); ++j) {
        r2(i, j) = ld_r_squared(g.derived_count(keep[i]),
                                g.derived_count(keep[j]),
                                naive_pair_count(g, keep[i], g, keep[j]),
                                g.samples());
      }
    }
    const OmegaMax m = omega_max(r2);
    return OmegaPoint{x, m.omega, begin, end, m.split};
  };
  std::vector<OmegaPoint> out;
  for (std::size_t gp = 0; gp < params.grid_points; ++gp) {
    const double x = (static_cast<double>(gp) + 0.5) /
                     static_cast<double>(params.grid_points);
    const std::size_t center = static_cast<std::size_t>(
        std::lower_bound(positions.begin(), positions.end(), x) -
        positions.begin());
    std::optional<OmegaPoint> best = window(x, center, params.window_snps);
    for (const std::size_t half : params.window_candidates) {
      if (half == params.window_snps || half < 2) continue;
      const auto candidate = window(x, center, half);
      if (candidate && (!best || candidate->omega > best->omega)) {
        best = candidate;
      }
    }
    if (best) out.push_back(*best);
  }
  return out;
}

std::vector<double> uniform_positions(std::size_t n) {
  std::vector<double> positions(n);
  for (std::size_t s = 0; s < n; ++s) {
    positions[s] = (static_cast<double>(s) + 0.5) / static_cast<double>(n);
  }
  return positions;
}

/// omega_scan at 0-4 threads must reproduce the oracle exactly: same
/// points, bit-identical omega, same window and split.
void expect_scan_matches_oracle(const BitMatrix& g,
                                const SweepScanParams& params) {
  const std::vector<double> positions = uniform_positions(g.snps());
  const std::vector<OmegaPoint> want = oracle_omega(g, positions, params);
  ASSERT_FALSE(want.empty());
  for (const unsigned threads : {0u, 1u, 2u, 3u, 4u}) {
    SweepScanParams team = params;
    team.threads = threads;
    const std::vector<OmegaPoint> got = omega_scan(g, positions, team);
    ASSERT_EQ(got.size(), want.size()) << "threads " << threads;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].position, want[i].position);
      EXPECT_EQ(got[i].omega, want[i].omega)
          << "point " << i << " threads " << threads;
      EXPECT_EQ(got[i].window_begin, want[i].window_begin);
      EXPECT_EQ(got[i].window_end, want[i].window_end);
      EXPECT_EQ(got[i].best_split, want[i].best_split);
    }
  }
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveAtUnalignedWindows) {
  // Window extents chosen so [begin, end) lands off every register-tile
  // and cache-tile boundary across the grid.
  SweepScanParams params;
  params.grid_points = 12;
  params.window_snps = 14;
  params.window_candidates = {7, 25};
  expect_scan_matches_oracle(random_matrix(160, 100, 79), params);
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveAcrossSlabSeams) {
  // Far more SNPs than one band slab: windows straddle slab and ring seams,
  // and parallel ranges meet mid-region.
  SweepScanParams params;
  params.grid_points = 37;
  params.window_snps = 23;
  params.window_candidates = {9};
  expect_scan_matches_oracle(random_matrix(613, 70, 97), params);
}

TEST(FusedEpilogueOmega, SparseGridComputesOnlyItsWindows) {
  // Grid windows far apart: the band pass restarts at each window, so the
  // epilogue converts one 64-row slab per 46-row window rather than every
  // row from the first window to the last (712 rows here).
  const BitMatrix g = random_matrix(1000, 70, 113);
  SweepScanParams params;
  params.grid_points = 3;
  params.window_snps = 23;
  params.window_candidates = {9};
  expect_scan_matches_oracle(g, params);

  const std::uint64_t before = metrics::pipeline().epilogue_rows.value();
  ASSERT_EQ(omega_scan(g, uniform_positions(g.snps()), params).size(), 3u);
  EXPECT_LE(metrics::pipeline().epilogue_rows.value() - before, 3u * 64u);
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveOverMonomorphicRuns) {
  // Runs of monomorphic SNPs (all-ancestral, then all-derived) longer than
  // a whole window: some windows keep fewer than 4 SNPs and are skipped.
  BitMatrix g = random_matrix(300, 90, 101);
  for (std::size_t s = 80; s < 140; ++s) {
    for (std::size_t b = 0; b < g.samples(); ++b) g.set(s, b, false);
  }
  for (std::size_t s = 190; s < 230; ++s) {
    for (std::size_t b = 0; b < g.samples(); ++b) g.set(s, b, true);
  }
  SweepScanParams params;
  params.grid_points = 41;
  params.window_snps = 12;
  params.window_candidates = {5};
  expect_scan_matches_oracle(g, params);
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveWithWindowBeyondRegion) {
  const BitMatrix g = random_matrix(150, 80, 103);
  SweepScanParams params;
  params.grid_points = 5;
  params.window_snps = g.snps() + 7;
  expect_scan_matches_oracle(g, params);
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveWhenCandidateSetsBand) {
  // The widest extent is a candidate, not window_snps, so the band (and
  // every window's reach) comes from the candidate list.
  SweepScanParams params;
  params.grid_points = 19;
  params.window_snps = 6;
  params.window_candidates = {1, 3, 71, 40};
  expect_scan_matches_oracle(random_matrix(400, 75, 107), params);
}

TEST(FusedEpilogueOmega, UnboundedWindowScansLikeWholeRegion) {
  // Half-windows of SIZE_MAX or past the region must not wrap
  // center + half: they scan exactly like a window of n SNPs.
  const BitMatrix g = random_matrix(300, 60, 109);
  const std::vector<double> positions = uniform_positions(g.snps());
  SweepScanParams whole;
  whole.grid_points = 7;
  whole.window_snps = g.snps();
  whole.window_candidates = {4};
  SweepScanParams unbounded = whole;
  unbounded.window_snps = SIZE_MAX;
  unbounded.window_candidates = {SIZE_MAX, 4, g.snps() + 5};
  const std::vector<OmegaPoint> want = omega_scan(g, positions, whole);
  ASSERT_EQ(want.size(), whole.grid_points);
  for (const unsigned threads : {1u, 3u}) {
    unbounded.threads = threads;
    const std::vector<OmegaPoint> got = omega_scan(g, positions, unbounded);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].omega, want[i].omega) << "point " << i;
      EXPECT_EQ(got[i].window_begin, want[i].window_begin);
      EXPECT_EQ(got[i].window_end, want[i].window_end);
      EXPECT_EQ(got[i].best_split, want[i].best_split);
    }
  }
}

// ---- driver-level: fused tile streams reassemble to the naive counts -----

// A team of one and teams of 2..4 must all partition the range exactly.
constexpr unsigned kThreads[] = {1, 2, 3, 4};

TEST(FusedEpilogueDrivers, GemmFusedTilesReassembleExactly) {
  const BitMatrix a = random_matrix(70, 129, 83);
  const BitMatrix b = random_matrix(33, 129, 89);
  const CountMatrix want = naive_count_matrix(a, b);
  for (const GemmConfig& cfg : blocking_configs(KernelArch::kAuto)) {
    const PackedBitMatrix pa =
        PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
    const PackedBitMatrix pb =
        PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
    // Ranges start/end off every register-tile boundary.
    for (const auto& [a0, a1, b0, b1] :
         std::vector<std::array<std::size_t, 4>>{
             {0, 70, 0, 33}, {3, 11, 1, 30}, {17, 42, 29, 30}}) {
      for (const unsigned threads : kThreads) {
        std::vector<std::uint8_t> hits((a1 - a0) * (b1 - b0), 0);
        std::mutex mu;
        gemm_count_fused(pa, a0, a1, pb, b0, b1, [&](const CountTile& t) {
          const std::lock_guard<std::mutex> lock(mu);
          for (std::size_t i = 0; i < t.rows; ++i) {
            for (std::size_t j = 0; j < t.cols; ++j) {
              const std::size_t gi = t.row_begin + i;
              const std::size_t gj = t.col_begin + j;
              ASSERT_EQ(t.row(i)[j], want(gi, gj)) << gi << "," << gj;
              ++hits[(gi - a0) * (b1 - b0) + (gj - b0)];
            }
          }
        }, threads);
        for (const std::uint8_t h : hits) {
          ASSERT_EQ(h, 1u) << "tiles must partition the range, threads="
                           << threads;
        }
      }
    }
  }
}

TEST(FusedEpilogueDrivers, SyrkFusedTilesCoverLowerTriangleExactly) {
  const BitMatrix g = random_matrix(67, 200, 97);
  const CountMatrix want = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(KernelArch::kAuto)) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    for (const auto& [r0, r1] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 67}, {5, 37}, {30, 31}, {62, 67}}) {
      const std::size_t w = r1 - r0;
      for (const unsigned threads : kThreads) {
        std::vector<std::uint8_t> hits(w * w, 0);
        std::mutex mu;
        syrk_count_fused(p, r0, r1, [&](const CountTile& t) {
          const std::lock_guard<std::mutex> lock(mu);
          for (std::size_t i = 0; i < t.rows; ++i) {
            const std::size_t gi = t.row_begin + i;
            for (std::size_t j = 0; j < t.cols; ++j) {
              const std::size_t gj = t.col_begin + j;
              if (gj > gi) continue;  // above-diagonal entries unspecified
              ASSERT_EQ(t.row(i)[j], want(gi, gj)) << gi << "," << gj;
              ++hits[(gi - r0) * w + (gj - r0)];
            }
          }
        }, threads);
        for (std::size_t i = 0; i < w; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            ASSERT_EQ(hits[i * w + j], 1u)
                << "pair (" << i << "," << j << ") seen "
                << int{hits[i * w + j]} << " times, threads=" << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldla

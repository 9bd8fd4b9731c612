// Property sweep for the persistent packed operand (PackedBitMatrix): the
// packed-sliver drivers — with a caller-held pack or one packed per call —
// must match the naive per-bit oracle across kernel arch x blocking params
// x non-multiple-of-tile shapes x padding, including ranged
// (sliver-boundary-crossing) windows.
#include "core/gemm/packed_bit_matrix.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "omega/sweep_scan.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

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

// Ragged shapes: none a multiple of any register tile, sample counts off
// word boundaries (padding words in play) and spanning 1..16 words.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {5, 100}, {33, 323}, {70, 129}, {128, 1000}};

// Blocking sweeps: auto, tiny blocks (many panels and edge tiles), kc that
// forces several k panels on multi-word samples, and the no-blocking
// ablation (single giant block).
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class PackReuse : public ::testing::TestWithParam<KernelArch> {};

TEST_P(PackReuse, CallerAndInternalPackMatchNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix a = random_matrix(n, k, n * 57 + k);
    const BitMatrix b = random_matrix((n * 2) / 3 + 1, k, n * 91 + k);
    const CountMatrix expected = naive_count_matrix(a, b);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      CountMatrix internal(n, b.snps());
      gemm_count(a.view(), b.view(), internal.ref(), cfg);

      const PackedBitMatrix pa =
          PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
      const PackedBitMatrix pb =
          PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
      CountMatrix packed(n, b.snps());
      gemm_count_packed(pa, 0, n, pb, 0, b.snps(), packed.ref());

      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < b.snps(); ++j) {
          ASSERT_EQ(packed(i, j), expected(i, j))
              << "n=" << n << " k=" << k << " at (" << i << "," << j << ")";
          ASSERT_EQ(internal(i, j), expected(i, j));
        }
      }
    }
  }
}

TEST_P(PackReuse, RangedPackedGemmMatchesSubmatrix) {
  const std::size_t n = 70, k = 129;
  const BitMatrix g = random_matrix(n, k, 11);
  const CountMatrix expected = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    // Ranges chosen to start/end off every register-tile boundary.
    for (const auto& [a0, a1, b0, b1] :
         std::vector<std::array<std::size_t, 4>>{
             {0, n, 0, n}, {3, 11, 1, 70}, {17, 42, 29, 30},
             {63, 70, 5, 64}}) {
      CountMatrix c(a1 - a0, b1 - b0);
      gemm_count_packed(p, a0, a1, p, b0, b1, c.ref());
      for (std::size_t i = a0; i < a1; ++i) {
        for (std::size_t j = b0; j < b1; ++j) {
          ASSERT_EQ(c(i - a0, j - b0), expected(i, j))
              << "range [" << a0 << "," << a1 << ")x[" << b0 << "," << b1
              << ") at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST_P(PackReuse, RangedPackedSyrkMatchesWindow) {
  const std::size_t n = 67, k = 200;
  const BitMatrix g = random_matrix(n, k, 23);
  const CountMatrix expected = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    for (const auto& [r0, r1] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
             {0, n}, {5, 37}, {30, 31}, {62, 67}}) {
      const std::size_t w = r1 - r0;
      CountMatrix full(w, w);
      syrk_count_packed(p, r0, r1, full.ref());
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          ASSERT_EQ(full(i, j), expected(r0 + i, r0 + j))
              << "window [" << r0 << "," << r1 << ") at (" << i << "," << j
              << ")";
        }
      }

      // triangular_only: valid lower triangle, upper unspecified (must not
      // pay the mirror) — seed with a sentinel and check only j <= i.
      CountMatrix tri(w, w);
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) tri(i, j) = 0xdeadbeef;
      }
      syrk_count_packed(p, r0, r1, tri.ref(), /*triangular_only=*/true);
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(tri(i, j), expected(r0 + i, r0 + j));
        }
      }
    }
  }
}

TEST_P(PackReuse, ParallelGemmMatchesNaive) {
  const std::size_t n = 61, k = 323;
  const BitMatrix a = random_matrix(n, k, 31);
  const BitMatrix b = random_matrix(45, k, 37);
  const CountMatrix expected = naive_count_matrix(a, b);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const PackedBitMatrix pa =
        PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
    const PackedBitMatrix pb =
        PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
    for (const unsigned threads : {1u, 3u}) {
      // Team tiles land in disjoint windows of C: the sink needs no lock.
      CountMatrix c(n, b.snps());
      gemm_count_fused(pa, 0, n, pb, 0, b.snps(), [&](const CountTile& t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          for (std::size_t j = 0; j < t.cols; ++j) {
            c(t.row_begin + i, t.col_begin + j) = t.row(i)[j];
          }
        }
      }, threads);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < b.snps(); ++j) {
          ASSERT_EQ(c(i, j), expected(i, j)) << "threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PackReuse, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- driver-level: caller-held and per-call packs match the oracle -----

/// r² of every canonical pair (j <= i) a scan emits, keyed by global index.
using PairValues = std::vector<std::pair<std::pair<std::size_t, std::size_t>,
                                         double>>;

PairValues collect_scan(const BitMatrix& g, const LdOptions& opts) {
  PairValues out;
  ld_scan(g, [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      const std::size_t gi = tile.row_begin + i;
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const std::size_t gj = tile.col_begin + j;
        if (gj > gi) continue;
        out.push_back({{gi, gj}, tile.at(i, j)});
      }
    }
  }, opts);
  return out;
}

PairValues collect_band(const BitMatrix& g, std::size_t w,
                        const BandOptions& opts) {
  PairValues out;
  ld_band_scan(g, w, [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      const std::size_t gi = tile.row_begin + i;
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const std::size_t gj = tile.col_begin + j;
        if (gj > gi || gi - gj > w) continue;
        out.push_back({{gi, gj}, tile.at(i, j)});
      }
    }
  }, opts);
  return out;
}

void expect_pairs_match_naive(const PairValues& got, const BitMatrix& g,
                              const CountMatrix& counts) {
  for (const auto& [key, v] : got) {
    const auto [i, j] = key;
    const double want = ld_r_squared(g.derived_count(i), g.derived_count(j),
                                     counts(i, j), g.samples());
    if (std::isnan(want)) {
      ASSERT_TRUE(std::isnan(v)) << i << "," << j;
    } else {
      ASSERT_NEAR(v, want, 1e-12) << i << "," << j;
    }
  }
}

TEST(PackReuseDrivers, LdScanCallerAndInternalPackMatchNaive) {
  const BitMatrix g = random_matrix(93, 323, 41);
  const CountMatrix counts = naive_count_matrix(g, g);
  LdOptions internal;
  internal.slab_rows = 17;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), internal.gemm);
  LdOptions caller = internal;
  caller.packed = &p;
  const PairValues a = collect_scan(g, internal);
  const PairValues b = collect_scan(g, caller);
  ASSERT_EQ(a.size(), ld_pair_count(g.snps()));
  ASSERT_EQ(b.size(), a.size());
  expect_pairs_match_naive(a, g, counts);
  expect_pairs_match_naive(b, g, counts);
}

TEST(PackReuseDrivers, BandScanCallerAndInternalPackMatchNaive) {
  const BitMatrix g = random_matrix(90, 129, 43);
  const CountMatrix counts = naive_count_matrix(g, g);
  BandOptions internal;
  internal.slab_rows = 13;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), internal.gemm);
  BandOptions caller = internal;
  caller.packed = &p;
  const PairValues a = collect_band(g, 11, internal);
  const PairValues b = collect_band(g, 11, caller);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(b.size(), a.size());
  expect_pairs_match_naive(a, g, counts);
  expect_pairs_match_naive(b, g, counts);
}

TEST(PackReuseDrivers, OmegaScanCallerPackBitIdenticalToInternalPack) {
  const BitMatrix g = random_matrix(160, 100, 47);
  std::vector<double> positions(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    positions[s] =
        (static_cast<double>(s) + 0.5) / static_cast<double>(g.snps());
  }
  SweepScanParams internal;
  internal.grid_points = 12;
  internal.window_snps = 14;
  internal.window_candidates = {7, 25};
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), internal.gemm);
  SweepScanParams caller = internal;
  caller.packed = &p;

  const std::vector<OmegaPoint> a = omega_scan(g, positions, internal);
  const std::vector<OmegaPoint> b = omega_scan(g, positions, caller);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_bits(a[i].omega, b[i].omega)) << "point " << i;
    EXPECT_EQ(a[i].window_begin, b[i].window_begin);
    EXPECT_EQ(a[i].window_end, b[i].window_end);
    EXPECT_EQ(a[i].best_split, b[i].best_split);
  }
}

TEST(PackReuseDrivers, CallerSuppliedPackAcceptedAndShapeChecked) {
  const BitMatrix g = random_matrix(40, 200, 53);
  const LdOptions base;
  const LdMatrix want = ld_matrix(g, base);

  LdOptions opts;
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), opts.gemm);
  opts.packed = &p;
  const LdMatrix got = ld_matrix(g, opts);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      ASSERT_TRUE(same_bits(got(i, j), want(i, j))) << i << "," << j;
    }
  }

  // A pack of a different matrix shape must be rejected up front.
  const BitMatrix other = random_matrix(41, 200, 59);
  EXPECT_THROW((void)ld_matrix(other, opts), ContractViolation);
}

}  // namespace
}  // namespace ldla

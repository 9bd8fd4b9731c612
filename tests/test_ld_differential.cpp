// Randomized differential test of every LD output against the naive oracle.
//
// One seeded generator draws a problem — SNP counts from {0, 1, 2, ragged,
// > mc}, a sample count off the 64-bit word boundaries, a MAF spectrum with
// some monomorphic SNPs mixed in, the statistic, a kernel variant, blocking
// (off, cache-derived, or small explicit tiles), the slab height and a team
// of 1, 2 or 4 — and runs each output in its symmetric and cross form: the
// dense matrix, the slab scan, the stat-tile scan, top-k, the band, and the
// stream over temporary shard stores. Every emitted value must equal
// ld_value over naive per-bit counts bit for bit (NaN matching NaN), every
// value must lie inside its statistic's bounds, and every pair must be
// emitted exactly as often as its driver promises. A second test pins the
// bounds on all-monomorphic and one-sample panels.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/ld.hpp"
#include "core/ld_stream.hpp"
#include "io/shard_store.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "util/sync.hpp"

namespace ldla {
namespace {

constexpr LdStatistic kStats[] = {LdStatistic::kD, LdStatistic::kDPrime,
                                  LdStatistic::kRSquared};

/// ld_value over naive per-bit counts for every (row of a, row of b) pair.
LdMatrix oracle_ld(const BitMatrix& a, const BitMatrix& b, LdStatistic stat) {
  LdMatrix out(a.snps(), b.snps());
  if (a.snps() == 0 || b.snps() == 0) return out;
  const CountMatrix counts = naive_count_matrix(a, b);
  for (std::size_t i = 0; i < a.snps(); ++i) {
    for (std::size_t j = 0; j < b.snps(); ++j) {
      out(i, j) = ld_value(stat, a.derived_count(i), b.derived_count(j),
                           counts(i, j), a.samples());
    }
  }
  return out;
}

bool same(double got, double want) {
  return std::isnan(want) ? std::isnan(got) : got == want;
}

/// The statistic's mathematical range; NaN (monomorphic SNP) is allowed
/// for r² and D', never for D.
bool in_bounds(LdStatistic stat, double v) {
  switch (stat) {
    case LdStatistic::kD: return std::abs(v) <= 0.25;
    case LdStatistic::kDPrime: return std::isnan(v) || std::abs(v) <= 1.0;
    case LdStatistic::kRSquared: return std::isnan(v) || (v >= 0.0 && v <= 1.0);
  }
  return false;
}

/// Gathers emitted tiles — concurrently, for the team-mode stat scans and
/// streams — counting how often each cell arrives and how many values
/// differ from the oracle or leave the statistic's bounds.
class Coverage {
 public:
  Coverage(const LdMatrix& want, LdStatistic stat)
      : want_(want), stat_(stat), hits_(want.rows() * want.cols(), 0) {}

  void add(const LdTile& t) {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < t.rows; ++i) {
      for (std::size_t j = 0; j < t.cols; ++j) {
        const std::size_t gi = t.row_begin + i;
        const std::size_t gj = t.col_begin + j;
        if (gi >= want_.rows() || gj >= want_.cols()) {
          ++out_of_range_;
          continue;
        }
        ++hits_[gi * want_.cols() + gj];
        const double v = t.at(i, j);
        if (!same(v, want_(gi, gj))) ++mismatches_;
        if (!in_bounds(stat_, v)) ++out_of_bounds_;
      }
    }
  }

  LdTileVisitor visitor() {
    return [this](const LdTile& t) { add(t); };
  }

  /// `expected(i, j)` is how often pair (i, j) must arrive, or -1 for "at
  /// most once" (slack a driver may carry beside the pairs it promises).
  template <typename Expected>
  void check(const std::string& what, Expected expected) {
    MutexLock lock(mu_);
    EXPECT_EQ(out_of_range_, 0u) << what;
    EXPECT_EQ(mismatches_, 0u) << what;
    EXPECT_EQ(out_of_bounds_, 0u) << what;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < want_.rows(); ++i) {
      for (std::size_t j = 0; j < want_.cols(); ++j) {
        const int want = expected(i, j);
        const int got = hits_[i * want_.cols() + j];
        if (want < 0 ? got > 1 : got != want) ++wrong;
      }
    }
    EXPECT_EQ(wrong, 0u) << what << ": cells emitted the wrong number of times";
  }

 private:
  const LdMatrix& want_;
  LdStatistic stat_;
  Mutex mu_;
  std::vector<int> hits_ LDLA_GUARDED_BY(mu_);
  std::size_t out_of_range_ LDLA_GUARDED_BY(mu_) = 0;
  std::size_t mismatches_ LDLA_GUARDED_BY(mu_) = 0;
  std::size_t out_of_bounds_ LDLA_GUARDED_BY(mu_) = 0;
};

void expect_same_matrix(const LdMatrix& got, const LdMatrix& want,
                        LdStatistic stat, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  std::size_t mismatches = 0;
  std::size_t out_of_bounds = 0;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      if (!same(got(i, j), want(i, j))) ++mismatches;
      if (!in_bounds(stat, got(i, j))) ++out_of_bounds;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  EXPECT_EQ(out_of_bounds, 0u) << what;
}

/// The k best pairs of the oracle matrix under ranks_before; `strict_lower`
/// restricts a symmetric matrix to pairs j < i.
std::vector<RankedPair> oracle_top(const LdMatrix& want, bool strict_lower,
                                   std::size_t k) {
  std::vector<RankedPair> all;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    const std::size_t cols = strict_lower ? i : want.cols();
    for (std::size_t j = 0; j < cols; ++j) {
      if (std::isfinite(want(i, j))) all.push_back({i, j, want(i, j)});
    }
  }
  std::sort(all.begin(), all.end(), ranks_before);
  if (all.size() > k) all.resize(k);
  return all;
}

void expect_same_list(const std::vector<RankedPair>& got,
                      const std::vector<RankedPair>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].i, want[r].i) << what << " rank " << r;
    EXPECT_EQ(got[r].j, want[r].j) << what << " rank " << r;
    EXPECT_EQ(got[r].value, want[r].value) << what << " rank " << r;
  }
}

/// A panel with site frequencies from the MAF spectrum, about one SNP in
/// eight then forced monomorphic (all ancestral or all derived).
BitMatrix draw_panel(std::size_t snps, std::size_t samples,
                     double rare_fraction, Rng& rng) {
  if (snps == 0) return BitMatrix(0, samples);
  MafSpectrumParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.rare_fraction = rare_fraction;
  p.seed = rng.next_u64();
  BitMatrix g = simulate_maf_spectrum(p);
  for (std::size_t s = 0; s < snps; ++s) {
    if (rng.next_below(8) != 0) continue;
    const bool derived = rng.next_bool(0.5);
    for (std::size_t x = 0; x < samples; ++x) g.set(s, x, derived);
  }
  return g;
}

/// One drawn problem: options shared by every output, plus the band and
/// shard geometry.
struct Draw {
  std::size_t samples = 0;
  double rare_fraction = 0.0;
  LdOptions opts;
  std::size_t bandwidth = 1;
  std::size_t shard_rows = 1;
  bool prefetch = true;
  std::string kernel;

  [[nodiscard]] std::string describe(std::size_t m, std::size_t n) const {
    std::ostringstream s;
    s << m << "x" << n << " snps, " << samples << " samples, rare "
      << rare_fraction << ", " << ld_statistic_name(opts.stat) << ", "
      << kernel << ", blocking " << opts.gemm.blocking << " mc "
      << opts.gemm.mc << ", slab " << opts.slab_rows << ", threads "
      << opts.threads << ", band " << bandwidth << ", shard rows "
      << shard_rows << ", prefetch " << prefetch;
    return s.str();
  }
};

Draw draw_problem(Rng& rng) {
  Draw d;
  d.samples = 2 + rng.next_below(190);
  if (d.samples % 64 == 0) ++d.samples;  // off the word boundary
  const double rare[] = {0.0, 0.5, 0.95};
  d.rare_fraction = rare[rng.next_below(3)];
  d.opts.stat = kStats[rng.next_below(3)];
  const std::vector<const KernelInfo*> variants = available_kernel_variants();
  const KernelInfo& k = *variants[rng.next_below(variants.size())];
  d.kernel = k.name;
  d.opts.gemm.arch = k.arch;
  d.opts.gemm.mr = k.mr;
  d.opts.gemm.nr = k.nr;
  d.opts.gemm.ku = k.ku;
  switch (rng.next_below(3)) {
    case 0: d.opts.gemm.blocking = false; break;
    case 1: break;  // cache-derived tiles
    default:
      d.opts.gemm.kc_words = 1 + rng.next_below(3);
      d.opts.gemm.mc = 8 * (1 + rng.next_below(3));
      d.opts.gemm.nc = 8 * (1 + rng.next_below(3));
      break;
  }
  d.opts.slab_rows = 1 + rng.next_below(40);
  const unsigned threads[] = {1, 2, 4};
  d.opts.threads = threads[rng.next_below(3)];
  d.bandwidth = 1 + rng.next_below(12);
  d.shard_rows = 1 + rng.next_below(30);
  d.prefetch = rng.next_bool(0.5);
  return d;
}

/// One SNP count from each class: {0, 1, 2, ragged, > mc}. The last class
/// needs the small explicit tiles: without blocking mc is unbounded, and a
/// cache-derived mc (hundreds of rows) would dominate the run time, so
/// both fall back to ragged.
std::size_t draw_snps(const Draw& d, Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    case 3: return 3 + rng.next_below(40);
    default:
      if (d.opts.gemm.mc == 0) return 3 + rng.next_below(40);
      return resolve_plan(d.opts.gemm, (d.samples + 63) / 64).mc + 1 +
             rng.next_below(20);
  }
}

std::string temp_store(const std::string& name) {
  return ::testing::TempDir() + "ld_differential_" + name + ".ldshard";
}

/// Every output in symmetric form over `g`.
void run_symmetric(const BitMatrix& g, const Draw& d, const std::string& what) {
  const LdStatistic stat = d.opts.stat;
  const LdMatrix want = oracle_ld(g, g, stat);
  const auto lower = [](std::size_t i, std::size_t j) { return j <= i; };

  expect_same_matrix(ld_matrix(g, d.opts), want, stat, "ld_matrix " + what);

  Coverage scan(want, stat);
  ld_scan(g, scan.visitor(), d.opts);
  // Trapezoid slabs carry some above-diagonal values beside the triangle.
  scan.check("ld_scan " + what, [&](std::size_t i, std::size_t j) {
    return lower(i, j) ? 1 : -1;
  });

  Coverage stat_scan(want, stat);
  ld_stat_scan(g, stat_scan.visitor(), d.opts);
  stat_scan.check("ld_stat_scan " + what, [&](std::size_t i, std::size_t j) {
    return lower(i, j) ? 1 : 0;
  });

  const std::size_t all = g.snps() * g.snps();
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, all}) {
    expect_same_list(ld_top_pairs(g, k, d.opts), oracle_top(want, true, k),
                     "ld_top_pairs k=" + std::to_string(k) + " " + what);
  }

  BandOptions band_opts;
  band_opts.stat = stat;
  band_opts.gemm = d.opts.gemm;
  band_opts.slab_rows = d.opts.slab_rows;
  band_opts.threads = d.opts.threads;
  Coverage band(want, stat);
  ld_band_scan(g, d.bandwidth, band.visitor(), band_opts);
  band.check("ld_band_scan " + what, [&](std::size_t i, std::size_t j) {
    return lower(i, j) && i - j <= d.bandwidth ? 1 : -1;
  });

  // Shard stores hold only blocked, non-empty panels.
  if (!d.opts.gemm.blocking || g.snps() == 0) return;
  const std::string path = temp_store("sym");
  write_shard_store(path, g.view(), d.opts.gemm, d.shard_rows);
  ShardStore store = ShardStore::open(path);
  StreamOptions sopts;
  sopts.stat = stat;
  sopts.prefetch = d.prefetch;
  sopts.threads = d.opts.threads;
  Coverage stream(want, stat);
  ld_matrix_stream(store, stream.visitor(), sopts);
  stream.check("ld_matrix_stream " + what, [&](std::size_t i, std::size_t j) {
    return lower(i, j) ? 1 : 0;
  });
}

/// Every output in cross form over rows of `a` against rows of `b`.
void run_cross(const BitMatrix& a, const BitMatrix& b, const Draw& d,
               const std::string& what) {
  const LdStatistic stat = d.opts.stat;
  const LdMatrix want = oracle_ld(a, b, stat);
  const auto once = [](std::size_t, std::size_t) { return 1; };

  expect_same_matrix(ld_cross_matrix(a, b, d.opts), want, stat,
                     "ld_cross_matrix " + what);

  Coverage scan(want, stat);
  ld_cross_scan(a, b, scan.visitor(), d.opts);
  scan.check("ld_cross_scan " + what, once);

  Coverage stat_scan(want, stat);
  ld_cross_stat_scan(a, b, stat_scan.visitor(), d.opts);
  stat_scan.check("ld_cross_stat_scan " + what, once);

  const std::size_t all = a.snps() * b.snps() + 1;
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, all}) {
    expect_same_list(ld_cross_top_pairs(a, b, k, d.opts),
                     oracle_top(want, false, k),
                     "ld_cross_top_pairs k=" + std::to_string(k) + " " + what);
  }

  if (!d.opts.gemm.blocking || a.snps() == 0 || b.snps() == 0) return;
  const std::string pa = temp_store("cross_a");
  const std::string pb = temp_store("cross_b");
  write_shard_store(pa, a.view(), d.opts.gemm, d.shard_rows);
  write_shard_store(pb, b.view(), d.opts.gemm, d.shard_rows);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);
  StreamOptions sopts;
  sopts.stat = stat;
  sopts.prefetch = d.prefetch;
  sopts.threads = d.opts.threads;
  Coverage stream(want, stat);
  ld_cross_stream(sa, sb, stream.visitor(), sopts);
  stream.check("ld_cross_stream " + what, once);
}

TEST(LdDifferential, EveryOutputMatchesTheNaiveOracle) {
  Rng rng(20261018);
  for (int round = 0; round < 120; ++round) {
    const Draw d = draw_problem(rng);
    const std::size_t m = draw_snps(d, rng);
    const std::size_t n = draw_snps(d, rng);
    const BitMatrix a = draw_panel(m, d.samples, d.rare_fraction, rng);
    const BitMatrix b = draw_panel(n, d.samples, d.rare_fraction, rng);
    const std::string what = "round " + std::to_string(round) + ": ";
    run_symmetric(a, d, what + d.describe(m, m));
    run_cross(a, b, d, what + d.describe(m, n));
  }
}

// Degenerate panels: every SNP monomorphic (all ancestral, all derived, or
// a mix), and a single sample, where every SNP is monomorphic too. r² and
// D' must be NaN or inside their bounds on every path; D must be exactly 0.
TEST(LdDifferential, DegeneratePanelsStayInBounds) {
  Rng rng(7);
  for (const std::size_t samples : {std::size_t{1}, std::size_t{70}}) {
    BitMatrix g(23, samples);
    for (std::size_t s = 0; s < g.snps(); ++s) {
      const bool derived = s % 3 == 1 || (s % 3 == 2 && rng.next_bool(0.5));
      for (std::size_t x = 0; x < samples; ++x) g.set(s, x, derived);
    }
    for (const LdStatistic stat : kStats) {
      for (const unsigned threads : {1u, 4u}) {
        Draw d;
        d.samples = samples;
        d.opts.stat = stat;
        d.opts.gemm.mc = 8;
        d.opts.gemm.nc = 8;
        d.opts.slab_rows = 5;
        d.opts.threads = threads;
        d.bandwidth = 3;
        d.shard_rows = 6;
        d.kernel = "default";
        const std::string what = "degenerate " + d.describe(23, 23);
        run_symmetric(g, d, what);
        run_cross(g, g, d, what);
        const LdMatrix m = ld_matrix(g, d.opts);
        for (std::size_t i = 0; i < m.rows(); ++i) {
          for (std::size_t j = 0; j < m.cols(); ++j) {
            if (stat == LdStatistic::kD) {
              ASSERT_EQ(m(i, j), 0.0) << what;
            } else {
              ASSERT_TRUE(std::isnan(m(i, j))) << what;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldla

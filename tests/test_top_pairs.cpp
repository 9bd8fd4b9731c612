// ld_top_pairs / ld_cross_top_pairs against a sort-everything oracle built
// from naive_pair_count + ld_value, over seeded random cases: shape, thread
// count, k, statistic, blocking, and panels with monomorphic columns (NaN
// is never ranked, D = 0 is) and duplicated or complemented SNPs (r² = 1
// ties that must order by i, then j).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/config.hpp"
#include "core/ld.hpp"
#include "io/matrix_writer.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

constexpr LdStatistic kStats[] = {LdStatistic::kD, LdStatistic::kDPrime,
                                  LdStatistic::kRSquared};

/// Random panel with planted structure: each SNP is fresh random bits, a
/// copy or complement of an earlier SNP, or monomorphic (all 0 or all 1).
BitMatrix random_panel(std::size_t snps, std::size_t samples, Rng& rng) {
  BitMatrix g(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    const std::uint64_t kind = rng.next_below(10);
    if (s > 0 && kind < 3) {
      const std::size_t src = rng.next_below(s);
      const bool flip = kind == 2;
      for (std::size_t x = 0; x < samples; ++x) {
        g.set(s, x, g.get(src, x) != flip);
      }
    } else if (kind == 3) {
      const bool value = rng.next_bool(0.5);
      for (std::size_t x = 0; x < samples; ++x) g.set(s, x, value);
    } else {
      const double p = 0.05 + 0.9 * rng.next_double();
      for (std::size_t x = 0; x < samples; ++x) {
        g.set(s, x, rng.next_bool(p));
      }
    }
  }
  return g;
}

std::vector<RankedPair> sort_and_cut(std::vector<RankedPair> all,
                                     std::size_t k) {
  std::sort(all.begin(), all.end(), ranks_before);
  all.resize(std::min(k, all.size()));
  return all;
}

RankedPair oracle_pair(LdStatistic stat, const BitMatrix& a, std::size_t i,
                       const BitMatrix& b, std::size_t j) {
  return {i, j,
          ld_value(stat, a.derived_count(i), b.derived_count(j),
                   naive_pair_count(a, i, b, j), a.samples())};
}

std::vector<RankedPair> oracle_top(const BitMatrix& g, std::size_t k,
                                   LdStatistic stat) {
  std::vector<RankedPair> all;
  for (std::size_t i = 1; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const RankedPair p = oracle_pair(stat, g, i, g, j);
      if (std::isfinite(p.value)) all.push_back(p);
    }
  }
  return sort_and_cut(std::move(all), k);
}

std::vector<RankedPair> oracle_cross_top(const BitMatrix& a,
                                         const BitMatrix& b, std::size_t k,
                                         LdStatistic stat) {
  std::vector<RankedPair> all;
  for (std::size_t i = 0; i < a.snps(); ++i) {
    for (std::size_t j = 0; j < b.snps(); ++j) {
      const RankedPair p = oracle_pair(stat, a, i, b, j);
      if (std::isfinite(p.value)) all.push_back(p);
    }
  }
  return sort_and_cut(std::move(all), k);
}

/// Exact equality: the fused rows use the oracle's arithmetic operation for
/// operation, so values (and hence the order of near-ties) match bit-for-bit.
void expect_same_list(const std::vector<RankedPair>& got,
                      const std::vector<RankedPair>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].i, want[r].i) << where << " rank " << r;
    EXPECT_EQ(got[r].j, want[r].j) << where << " rank " << r;
    EXPECT_EQ(got[r].value, want[r].value) << where << " rank " << r;
  }
}

/// One SNP count from each class: {0, 1, 2, ragged, > mc}.
std::size_t draw_snps(std::size_t shape, std::size_t mc, Rng& rng) {
  switch (shape) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    case 3: return 3 + rng.next_below(60);
    default: return mc + 1 + rng.next_below(40);
  }
}

/// k from {0, 1, 10, > pair count}.
std::size_t draw_k(std::size_t pairs, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 10;
    default: return pairs + 1 + rng.next_below(5);
  }
}

struct Case {
  std::size_t samples = 0;
  LdOptions opts;

  std::string describe(std::size_t m, std::size_t n, std::size_t k) const {
    std::ostringstream s;
    s << m << "x" << n << " snps, " << samples << " samples, k=" << k
      << ", threads=" << opts.threads
      << ", stat=" << ld_statistic_name(opts.stat)
      << ", blocking=" << opts.gemm.blocking;
    return s.str();
  }
};

Case draw_case(Rng& rng) {
  Case c;
  c.samples = 1 + rng.next_below(200);
  const unsigned threads[] = {1, 2, 4};
  c.opts.threads = threads[rng.next_below(3)];
  c.opts.stat = kStats[rng.next_below(3)];
  c.opts.gemm.blocking = rng.next_below(4) != 0;
  return c;
}

/// The plan's mc for this sample count, so the "> mc" shape really spans
/// several row blocks (blocking off has no finite mc: use ragged instead).
std::size_t plan_mc(const Case& c) {
  return resolve_plan(c.opts.gemm, (c.samples + 63) / 64).mc;
}

std::size_t draw_shape(const Case& c, Rng& rng) {
  const std::size_t shape = rng.next_below(5);
  return (shape == 4 && !c.opts.gemm.blocking) ? 3 : shape;
}

TEST(LdTopPairs, MatchesSortedOracle) {
  Rng rng(20240613);
  for (int round = 0; round < 60; ++round) {
    const Case c = draw_case(rng);
    const std::size_t n = draw_snps(draw_shape(c, rng), plan_mc(c), rng);
    const BitMatrix g = random_panel(n, c.samples, rng);
    const std::size_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
    const std::size_t k = draw_k(pairs, rng);
    expect_same_list(ld_top_pairs(g, k, c.opts),
                     oracle_top(g, k, c.opts.stat), c.describe(n, n, k));
  }
}

TEST(LdCrossTopPairs, MatchesSortedOracle) {
  Rng rng(777);
  for (int round = 0; round < 60; ++round) {
    const Case c = draw_case(rng);
    const std::size_t mc = plan_mc(c);
    const std::size_t m = draw_snps(draw_shape(c, rng), mc, rng);
    const std::size_t n = draw_snps(draw_shape(c, rng), mc, rng);
    const BitMatrix a = random_panel(m, c.samples, rng);
    const BitMatrix b = random_panel(n, c.samples, rng);
    const std::size_t k = draw_k(m * n, rng);
    expect_same_list(ld_cross_top_pairs(a, b, k, c.opts),
                     oracle_cross_top(a, b, k, c.opts.stat),
                     c.describe(m, n, k));
  }
}

TEST(LdTopPairs, EqualsTopPairsOfTheMatrix) {
  Rng rng(99);
  for (int round = 0; round < 12; ++round) {
    const Case c = draw_case(rng);
    const std::size_t n = draw_snps(draw_shape(c, rng), plan_mc(c), rng);
    const BitMatrix g = random_panel(n, c.samples, rng);
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, n * n}) {
      expect_same_list(ld_top_pairs(g, k, c.opts),
                       top_pairs(ld_matrix(g, c.opts), k),
                       c.describe(n, n, k));
    }
  }
}

// Planted duplicates: every SNP equals one of four haplotype patterns, so
// r² = 1 ties are everywhere and only the (i, j) order separates them.
TEST(LdTopPairs, TiesOrderByRowThenColumn) {
  BitMatrix g(64, 100);
  for (std::size_t s = 0; s < g.snps(); ++s) {
    const std::size_t pattern = s % 4;
    for (std::size_t x = 0; x < g.samples(); ++x) {
      g.set(s, x, (x + pattern) % 5 < 2);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    LdOptions opts;
    opts.threads = threads;
    const auto top = ld_top_pairs(g, 20, opts);
    ASSERT_EQ(top.size(), 20u);
    EXPECT_NEAR(top.front().value, 1.0, 1e-12);
    for (std::size_t r = 0; r < top.size(); ++r) {
      EXPECT_EQ(top[r].value, top.front().value);
      if (r > 0) {
        EXPECT_TRUE(top[r - 1].i < top[r].i ||
                    (top[r - 1].i == top[r].i && top[r - 1].j < top[r].j));
      }
    }
    EXPECT_EQ(top.front().i, 4u);
    EXPECT_EQ(top.front().j, 0u);
  }
}

// Monomorphic SNPs: r² and D' are NaN and never ranked; D is exactly 0 and
// ranked like any other value.
TEST(LdTopPairs, MonomorphicPairsRankOnlyUnderD) {
  BitMatrix g(3, 50);
  for (std::size_t x = 0; x < g.samples(); ++x) {
    g.set(0, x, true);  // monomorphic
    g.set(2, x, x % 2 == 0);
  }
  LdOptions opts;
  opts.stat = LdStatistic::kRSquared;
  EXPECT_TRUE(ld_top_pairs(g, 10, opts).empty());
  opts.stat = LdStatistic::kDPrime;
  EXPECT_TRUE(ld_top_pairs(g, 10, opts).empty());
  opts.stat = LdStatistic::kD;
  const auto top = ld_top_pairs(g, 10, opts);
  ASSERT_EQ(top.size(), 3u);
  for (const RankedPair& p : top) EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(top[0].i, 1u);
  EXPECT_EQ(top[0].j, 0u);
  EXPECT_EQ(top[2].i, 2u);
  EXPECT_EQ(top[2].j, 1u);
}

TEST(LdTopPairs, NegativeDRanksBelowPositive) {
  BitMatrix g(2, 40);
  for (std::size_t x = 0; x < g.samples(); ++x) {
    g.set(0, x, x < 20);
    g.set(1, x, x >= 20);  // complement: D = -1/4, D' = -1, r² = 1
  }
  LdOptions opts;
  opts.stat = LdStatistic::kD;
  const auto d = ld_top_pairs(g, 5, opts);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].value, -0.25);
  opts.stat = LdStatistic::kDPrime;
  EXPECT_EQ(ld_top_pairs(g, 5, opts)[0].value, -1.0);
}

TEST(LdTopPairs, RejectsBadInput) {
  const BitMatrix empty_samples(4, 0);
  EXPECT_THROW((void)ld_top_pairs(empty_samples, 3), ContractViolation);
  const BitMatrix a(3, 10);
  const BitMatrix b(3, 11);
  EXPECT_THROW((void)ld_cross_top_pairs(a, b, 3), ContractViolation);
}

}  // namespace
}  // namespace ldla

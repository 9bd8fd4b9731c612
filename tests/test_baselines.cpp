#include "baselines/omegaplus_like.hpp"
#include "baselines/plink_like.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/ld.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix test_matrix(std::size_t snps, std::size_t samples,
                      std::uint64_t seed) {
  WrightFisherParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.seed = seed;
  p.founders = 16;
  return simulate_genotypes(p);
}

// --- OmegaPlus-like baseline --------------------------------------------

TEST(OmegaPlusLike, AgreesWithGemmEngineExactly) {
  // Allele-based r^2: same statistic as the GEMM engine, different engine.
  const BitMatrix g = test_matrix(30, 180, 1);
  const LdMatrix gemm = ld_matrix(g);
  const LdMatrix base = omegaplus_like_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      if (std::isnan(gemm(i, j))) {
        EXPECT_TRUE(std::isnan(base(i, j)));
      } else {
        EXPECT_DOUBLE_EQ(base(i, j), gemm(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(OmegaPlusLike, ScanCountsAllLowerPairs) {
  const BitMatrix g = test_matrix(40, 100, 2);
  const BaselineScanResult r = omegaplus_like_scan(g, 1);
  EXPECT_EQ(r.pairs, ld_pair_count(g.snps()));
  EXPECT_GT(r.finite, 0u);
  EXPECT_LE(r.finite, r.pairs);
}

TEST(OmegaPlusLike, ScanResultIndependentOfThreads) {
  const BitMatrix g = test_matrix(50, 120, 3);
  const BaselineScanResult one = omegaplus_like_scan(g, 1);
  for (unsigned t : {2u, 4u, 7u}) {
    const BaselineScanResult r = omegaplus_like_scan(g, t);
    EXPECT_EQ(r.pairs, one.pairs) << t << " threads";
    EXPECT_EQ(r.finite, one.finite);
    EXPECT_NEAR(r.sum, one.sum, 1e-9);
  }
}

TEST(OmegaPlusLike, ScanSumMatchesGemmAggregate) {
  const BitMatrix g = test_matrix(35, 90, 4);
  const BaselineScanResult base = omegaplus_like_scan(g, 1);
  const LdMatrix gemm = ld_matrix(g);
  double sum = 0.0;
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (std::isfinite(gemm(i, j))) sum += gemm(i, j);
    }
  }
  EXPECT_NEAR(base.sum, sum, 1e-9);
}

// --- PLINK-like baseline --------------------------------------------------

TEST(GenotypeMatrix, DosageRoundTrip) {
  GenotypeMatrix g(2, 5);
  g.set_dosage(0, 0, 0);
  g.set_dosage(0, 1, 1);
  g.set_dosage(0, 2, 2);
  EXPECT_EQ(g.dosage(0, 0), 0u);
  EXPECT_EQ(g.dosage(0, 1), 1u);
  EXPECT_EQ(g.dosage(0, 2), 2u);
  g.set_dosage(0, 2, 1);
  EXPECT_EQ(g.dosage(0, 2), 1u);
  EXPECT_THROW(g.set_dosage(0, 0, 3), ContractViolation);
}

TEST(GenotypeMatrix, FromHaplotypesPairsColumns) {
  // haplotypes: sample0=1, sample1=1 -> individual0 dosage 2, etc.
  const BitMatrix haps = BitMatrix::from_snp_strings(
      std::vector<std::string>{"110100"});
  const GenotypeMatrix g = GenotypeMatrix::from_haplotypes(haps);
  EXPECT_EQ(g.individuals(), 3u);
  EXPECT_EQ(g.dosage(0, 0), 2u);
  EXPECT_EQ(g.dosage(0, 1), 1u);
  EXPECT_EQ(g.dosage(0, 2), 0u);
}

TEST(GenotypeMatrix, FromHaplotypesRejectsOddSamples) {
  const BitMatrix haps = BitMatrix::from_snp_strings(
      std::vector<std::string>{"101"});
  EXPECT_THROW((void)GenotypeMatrix::from_haplotypes(haps), ContractViolation);
}

// Dosage-vector Pearson r^2 reference computed in plain floating point.
double pearson_r2_reference(const GenotypeMatrix& g, std::size_t i,
                            std::size_t j) {
  const double n = static_cast<double>(g.individuals());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t ind = 0; ind < g.individuals(); ++ind) {
    const double x = g.dosage(i, ind);
    const double y = g.dosage(j, ind);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double cov = n * sxy - sx * sy;
  const double vx = n * sxx - sx * sx;
  const double vy = n * syy - sy * sy;
  if (vx <= 0 || vy <= 0) return std::numeric_limits<double>::quiet_NaN();
  return (cov * cov) / (vx * vy);
}

TEST(PlinkLike, PopcountCountingMatchesFloatingPointPearson) {
  const BitMatrix haps = test_matrix(20, 160, 5);
  const GenotypeMatrix g = GenotypeMatrix::from_haplotypes(haps);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double want = pearson_r2_reference(g, i, j);
      const double got = plink_like_r2_pair(g, i, j);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << i << "," << j;
      } else {
        EXPECT_NEAR(got, want, 1e-9) << i << "," << j;
      }
    }
  }
}

TEST(PlinkLike, PerfectLdDetected) {
  // Two identical SNPs have genotype correlation 1.
  const BitMatrix haps = BitMatrix::from_snp_strings(
      std::vector<std::string>{"11010010", "11010010"});
  const GenotypeMatrix g = GenotypeMatrix::from_haplotypes(haps);
  EXPECT_NEAR(plink_like_r2_pair(g, 0, 1), 1.0, 1e-12);
}

TEST(PlinkLike, ScanCountsAllLowerPairsAndIsThreadInvariant) {
  const BitMatrix haps = test_matrix(30, 200, 6);
  const GenotypeMatrix g = GenotypeMatrix::from_haplotypes(haps);
  const BaselineScanResult one = plink_like_scan(g, 1);
  EXPECT_EQ(one.pairs, ld_pair_count(g.snps()));
  for (unsigned t : {2u, 4u}) {
    const BaselineScanResult r = plink_like_scan(g, t);
    EXPECT_EQ(r.pairs, one.pairs);
    EXPECT_EQ(r.finite, one.finite);
    EXPECT_NEAR(r.sum, one.sum, 1e-9);
  }
}

TEST(PlinkLike, MatrixMatchesPairFunction) {
  const BitMatrix haps = test_matrix(10, 60, 7);
  const GenotypeMatrix g = GenotypeMatrix::from_haplotypes(haps);
  const LdMatrix m = plink_like_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      const double want = plink_like_r2_pair(g, i, j);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(m(i, j)));
      } else {
        EXPECT_DOUBLE_EQ(m(i, j), want);
      }
    }
  }
}

// Cross-engine sanity: on haplotype data collapsed to genotypes, the
// genotype r^2 tracks the allele r^2 closely for strongly linked SNPs.
TEST(Baselines, GenotypeAndAlleleR2CorrelateOnLinkedData) {
  WrightFisherParams p;
  p.n_snps = 40;
  p.n_samples = 300;
  p.switch_rate = 0.002;  // strong LD
  p.seed = 8;
  const BitMatrix haps = simulate_genotypes(p);
  const GenotypeMatrix geno = GenotypeMatrix::from_haplotypes(haps);
  const LdMatrix allele = ld_matrix(haps);

  double diff_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < haps.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double a = allele(i, j);
      const double g = plink_like_r2_pair(geno, i, j);
      if (std::isfinite(a) && std::isfinite(g)) {
        diff_sum += std::abs(a - g);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_LT(diff_sum / static_cast<double>(count), 0.15)
      << "genotype r^2 should track allele r^2 on phased data";
}

}  // namespace
}  // namespace ldla

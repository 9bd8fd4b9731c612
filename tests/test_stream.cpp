// Bit-identity of the out-of-core streaming drivers against the in-memory
// scans, across kernels, blocking shapes, ragged shard boundaries,
// statistics and sequential/nest execution — plus the residency-budget
// invariant the streaming engine exists to provide.
//
// "Bit-identical" is literal: the streamed tiles and the ld_stat_scan tiles
// are assembled into dense matrices and compared with memcmp, so NaN
// payloads and -0.0 count as differences. The streaming path recomputes
// StatTables from persisted popcounts and rebases tile indices, so this is
// the test that pins its epilogue arithmetic to ld.cpp's.
#include "core/ld_stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/band.hpp"
#include "core/detail/ld_stats_row.hpp"
#include "core/genotype_ld.hpp"
#include "core/ld.hpp"
#include "core/missing.hpp"
#include "io/tile_store.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"
#include "util/sync.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed, double density = 0.3) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Assembles tiles into a dense matrix for the memcmp; a sentinel fill
/// makes a missing emission differ from an emitted zero.
struct Assembly {
  std::size_t cols = 0;
  std::vector<double> values;
  std::size_t cells = 0;
  Mutex mu;  // nest mode delivers tiles concurrently

  Assembly(std::size_t r, std::size_t c) : cols(c), values(r * c, -7777.0) {}

  void add(const LdTile& t) {
    MutexLock lock(mu);
    for (std::size_t i = 0; i < t.rows; ++i) {
      std::memcpy(values.data() + (t.row_begin + i) * cols + t.col_begin,
                  t.values + i * t.ld, t.cols * sizeof(double));
    }
    cells += t.rows * t.cols;
  }
};

void expect_identical(const Assembly& got, const Assembly& want,
                      const std::string& label) {
  ASSERT_EQ(got.cells, want.cells) << label << ": pair coverage differs";
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(double)),
            0)
      << label << ": values diverge bitwise";
}

struct Case {
  std::size_t snps, samples, rows_per_shard;
  std::size_t kc_words, mc, nc;
};

// Ragged everywhere: shard sizes off the row count, blocking off the shard
// sizes, sample counts off the word/ku grids. The last case leaves a
// 1-row final shard (row 96 of 97).
const Case kCases[] = {
    {61, 130, 17, 2, 8, 8},
    {97, 1025, 32, 4, 16, 16},
    {97, 391, 24, 3, 8, 32},
};

class StreamIdentity
    : public ::testing::TestWithParam<std::tuple<KernelArch, Case>> {};

TEST_P(StreamIdentity, MatrixStreamMatchesStatScan) {
  const auto [arch, c] = GetParam();
  const BitMatrix g = random_matrix(c.snps, c.samples, 13 + c.snps);
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = c.kc_words;
  cfg.mc = c.mc;
  cfg.nc = c.nc;

  const std::string path = temp_path("identity.ldshard");
  write_shard_store(path, g.view(), cfg, c.rows_per_shard);
  ShardStore store = ShardStore::open(path);
  EXPECT_EQ(store.shards(), (c.snps + c.rows_per_shard - 1) /
                                c.rows_per_shard);

  for (const LdStatistic stat :
       {LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared}) {
    LdOptions opts;
    opts.stat = stat;
    opts.gemm = cfg;
    Assembly want(g.snps(), g.snps());
    ld_stat_scan(g, [&](const LdTile& t) { want.add(t); }, opts);

    for (const unsigned threads : {1u, 3u}) {
      StreamOptions sopts;
      sopts.stat = stat;
      sopts.threads = threads;
      Assembly got(g.snps(), g.snps());
      ld_matrix_stream(store, [&](const LdTile& t) { got.add(t); }, sopts);
      expect_identical(got, want,
                       "stat=" + std::to_string(static_cast<int>(stat)) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST_P(StreamIdentity, CrossStreamMatchesCrossStatScan) {
  const auto [arch, c] = GetParam();
  const BitMatrix a = random_matrix(c.snps, c.samples, 17 + c.snps);
  const BitMatrix b = random_matrix(c.snps / 2 + 3, c.samples, 23 + c.snps);
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = c.kc_words;
  cfg.mc = c.mc;
  cfg.nc = c.nc;

  const std::string pa = temp_path("cross_a.ldshard");
  const std::string pb = temp_path("cross_b.ldshard");
  write_shard_store(pa, a.view(), cfg, c.rows_per_shard);
  write_shard_store(pb, b.view(), cfg, c.rows_per_shard + 5);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(a.snps(), b.snps());
  ld_cross_stat_scan(a, b, [&](const LdTile& t) { want.add(t); }, opts);

  for (const unsigned threads : {1u, 3u}) {
    StreamOptions sopts;
    sopts.threads = threads;
    Assembly got(a.snps(), b.snps());
    ld_cross_stream(sa, sb, [&](const LdTile& t) { got.add(t); }, sopts);
    expect_identical(got, want, "cross threads=" + std::to_string(threads));
  }
}

std::vector<std::tuple<KernelArch, Case>> identity_cases() {
  std::vector<std::tuple<KernelArch, Case>> cases;
  for (const KernelArch arch : available_kernels()) {
    for (const Case& c : kCases) cases.emplace_back(arch, c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StreamIdentity,
                         ::testing::ValuesIn(identity_cases()));

TEST(StreamBudget, ResidencyNeverExceedsTheBudgetAndResultsMatch) {
  const BitMatrix g = random_matrix(120, 700, 41);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 4;
  cfg.mc = 16;
  cfg.nc = 16;
  const std::string path = temp_path("budget.ldshard");
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/16);
  ShardStore store = ShardStore::open(path);
  ASSERT_GE(store.shards(), 7u);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(g.snps(), g.snps());
  ld_stat_scan(g, [&](const LdTile& t) { want.add(t); }, opts);

  for (const bool prefetch : {true, false}) {
    StreamOptions sopts;
    sopts.prefetch = prefetch;
    // The documented floor exactly: the tightest legal budget.
    sopts.cache_bytes =
        (prefetch ? 4 : 2) * store.max_shard_bytes();
    std::size_t peak = 0;
    Assembly got(g.snps(), g.snps());
    ld_matrix_stream(store,
                     [&](const LdTile& t) {
                       got.add(t);
                       peak = std::max(peak, store.resident_bytes());
                     },
                     sopts);
    EXPECT_LE(peak, sopts.cache_bytes) << "prefetch=" << prefetch;
    EXPECT_LE(store.resident_bytes(), sopts.cache_bytes);
    EXPECT_GT(peak, 0u);
    expect_identical(got, want,
                     std::string("budget prefetch=") +
                         (prefetch ? "on" : "off"));
  }

  // Below-floor budgets are a contract violation, not a silent degrade.
  StreamOptions tiny;
  tiny.cache_bytes = store.max_shard_bytes();
  EXPECT_THROW(ld_matrix_stream(store, [](const LdTile&) {}, tiny),
               ContractViolation);
}

TEST(StreamBudget, CrossStreamHonorsBudgetAcrossTwoStores) {
  const BitMatrix a = random_matrix(60, 500, 3);
  const BitMatrix b = random_matrix(45, 500, 4);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 4;
  const std::string pa = temp_path("budget_a.ldshard");
  const std::string pb = temp_path("budget_b.ldshard");
  write_shard_store(pa, a.view(), cfg, 16);
  write_shard_store(pb, b.view(), cfg, 12);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(a.snps(), b.snps());
  ld_cross_stat_scan(a, b, [&](const LdTile& t) { want.add(t); }, opts);

  StreamOptions sopts;
  sopts.cache_bytes = 2 * (sa.max_shard_bytes() + sb.max_shard_bytes());
  std::size_t peak = 0;
  Assembly got(a.snps(), b.snps());
  ld_cross_stream(sa, sb,
                  [&](const LdTile& t) {
                    got.add(t);
                    peak = std::max(peak,
                                    sa.resident_bytes() + sb.resident_bytes());
                  },
                  sopts);
  EXPECT_LE(peak, sopts.cache_bytes);
  expect_identical(got, want, "cross budget");
}

// mc = nc = 2^20 is inside the store's header bounds, so such a store is
// legal; the stat scratch must come from the clamped tile extent (at most
// one shard per axis), not from mc·nc (8 TiB of doubles).
TEST(StreamBudget, HugeLegalBlockingStreamsLikeStatScan) {
  const BitMatrix a = random_matrix(70, 300, 47);
  const BitMatrix b = random_matrix(33, 300, 53);
  GemmConfig cfg;
  cfg.mc = std::size_t{1} << 20;
  cfg.nc = std::size_t{1} << 20;
  const std::string pa = temp_path("huge_block_a.ldshard");
  const std::string pb = temp_path("huge_block_b.ldshard");
  write_shard_store(pa, a.view(), cfg, 25);
  write_shard_store(pb, b.view(), cfg, 14);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);
  ASSERT_EQ(sa.plan().mc, std::size_t{1} << 20);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(a.snps(), a.snps());
  ld_stat_scan(a, [&](const LdTile& t) { want.add(t); }, opts);
  Assembly want_cross(a.snps(), b.snps());
  ld_cross_stat_scan(a, b, [&](const LdTile& t) { want_cross.add(t); }, opts);

  for (const unsigned threads : {1u, 2u}) {
    StreamOptions sopts;
    sopts.threads = threads;
    Assembly got(a.snps(), a.snps());
    ld_matrix_stream(sa, [&](const LdTile& t) { got.add(t); }, sopts);
    expect_identical(got, want, "huge blocking threads=" +
                                    std::to_string(threads));
    Assembly got_cross(a.snps(), b.snps());
    ld_cross_stream(sa, sb, [&](const LdTile& t) { got_cross.add(t); },
                    sopts);
    expect_identical(got_cross, want_cross,
                     "huge blocking cross threads=" + std::to_string(threads));
  }
}

TEST(StreamContracts, RejectsNullVisitorAndMismatchedStores) {
  const BitMatrix g = random_matrix(20, 100, 9);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  const std::string p1 = temp_path("contract1.ldshard");
  write_shard_store(p1, g.view(), cfg, 10);
  ShardStore s1 = ShardStore::open(p1);
  EXPECT_THROW(ld_matrix_stream(s1, nullptr), ContractViolation);

  // Different sample universe.
  const BitMatrix h = random_matrix(20, 130, 10);
  const std::string p2 = temp_path("contract2.ldshard");
  write_shard_store(p2, h.view(), cfg, 10);
  ShardStore s2 = ShardStore::open(p2);
  EXPECT_THROW(ld_cross_stream(s1, s2, [](const LdTile&) {}),
               ContractViolation);
}

// The in-memory scans reject an empty visitor the same way, before they
// pack or compute anything — including on inputs with no SNPs.
TEST(StreamContracts, ScansRejectNullVisitor) {
  for (const std::size_t snps : {std::size_t{20}, std::size_t{0}}) {
    const BitMatrix g = random_matrix(snps, 100, 11);
    EXPECT_THROW(ld_scan(g, nullptr), ContractViolation);
    EXPECT_THROW(ld_cross_scan(g, g, nullptr), ContractViolation);
    EXPECT_THROW(ld_stat_scan(g, nullptr), ContractViolation);
    EXPECT_THROW(ld_cross_stat_scan(g, g, nullptr), ContractViolation);
    EXPECT_THROW(ld_band_scan(g, 4, nullptr), ContractViolation);
    const MaskedBitMatrix masked(random_matrix(snps, 100, 11),
                                 BitMatrix(snps, 100));
    EXPECT_THROW(ld_scan_missing(masked, nullptr), ContractViolation);
    EXPECT_THROW(
        genotype_ld_scan(GenotypeMatrix::from_haplotypes(g), nullptr),
        ContractViolation);
  }
}


/// The tile geometry one count tile of a diagonal block produced.
struct Emitted {
  std::size_t row_begin, col_begin, rows, cols;
};

// The stat-tile emitter on a symmetric block, driven by the SYRK nest at a
// team of one (mc x nc cache tiles) and of four (nr-wide chunks, so most
// count tiles cross the diagonal with rows wholly below it): every tile is
// canonical, the tiles cover the lower triangle exactly once with the
// naive values, and a crossing count tile emits at most cols - 1 one-row
// fragments plus one tile of the rows on or below the diagonal.
TEST(StreamGeometry, CrossingTilesEmitWholeRowsAndFewFragments) {
  const std::size_t n = 75;
  const BitMatrix g = random_matrix(n, 200, 5);
  GemmConfig cfg;
  cfg.kc_words = 2;
  cfg.mc = 24;
  cfg.nc = 32;
  const PackedBitMatrix packed = PackedBitMatrix::pack(g.view(), cfg);
  const detail::StatTables tables = detail::make_stat_tables(g);
  const LdStatistic stat = LdStatistic::kRSquared;
  const CountMatrix counts = naive_count_matrix(g, g);

  for (const unsigned threads : {1u, 4u}) {
    Mutex mu;
    std::vector<int> hits(n * n, 0);
    std::size_t wrong_values = 0, non_canonical = 0, crossing = 0;
    thread_local std::vector<Emitted>* emitted = nullptr;
    const LdStatTileVisitor visit = [&](const LdTile& t) {
      emitted->push_back({t.row_begin, t.col_begin, t.rows, t.cols});
      MutexLock lock(mu);
      if (t.col_begin + t.cols > t.row_begin + 1) ++non_canonical;
      for (std::size_t i = 0; i < t.rows; ++i) {
        for (std::size_t j = 0; j < t.cols; ++j) {
          const std::size_t gi = t.row_begin + i, gj = t.col_begin + j;
          ++hits[gi * n + gj];
          const double want =
              ld_value(stat, g.derived_count(gi), g.derived_count(gj),
                       counts(gi, gj), g.samples());
          const double got = t.values[i * t.ld + j];
          if (std::isnan(want) ? !std::isnan(got) : got != want) {
            ++wrong_values;
          }
        }
      }
    };
    detail::TileScratch scratch(packed.plan().mc * packed.plan().nc, threads);
    const CountTileSink emitter = detail::stat_tile_emitter(
        stat, tables, 0, tables, 0, /*symmetric=*/true, scratch, visit);
    syrk_count_fused(
        packed, 0, n,
        [&](const CountTile& t) {
          std::vector<Emitted> mine;
          emitted = &mine;
          emitter(t);
          emitted = nullptr;
          const std::size_t diag_row = t.col_begin + t.cols - 1;
          if (diag_row <= t.row_begin) return;  // wholly below: one tile
          std::size_t fragments = 0, whole = 0;
          for (const Emitted& e : mine) {
            if (e.cols < t.cols) {
              EXPECT_EQ(e.rows, 1u);
              ++fragments;
            } else {
              EXPECT_GE(e.row_begin, diag_row);  // on or below the diagonal
              ++whole;
            }
          }
          MutexLock lock(mu);
          ++crossing;
          EXPECT_LE(fragments, t.cols - 1);
          EXPECT_LE(whole, 1u);
        },
        threads);

    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_GT(crossing, 0u) << label;
    EXPECT_EQ(non_canonical, 0u) << label;
    EXPECT_EQ(wrong_values, 0u) << label;
    std::size_t miscovered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (hits[i * n + j] != (j <= i ? 1 : 0)) ++miscovered;
      }
    }
    EXPECT_EQ(miscovered, 0u) << label;
  }
}

// A team-mode stream hands its tiles straight to TileStoreWriter::add from
// every worker, with no lock of the caller's; the re-read store is the
// ld_stat_scan matrix bit for bit.
TEST(StreamTileStore, ConcurrentAddWithoutOuterLock) {
  const BitMatrix g = random_matrix(97, 391, 29);
  GemmConfig cfg;
  cfg.kc_words = 3;
  cfg.mc = 16;
  cfg.nc = 16;
  const std::string store_path = temp_path("concurrent_add.ldshard");
  write_shard_store(store_path, g.view(), cfg, 24);
  ShardStore store = ShardStore::open(store_path);
  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(g.snps(), g.snps());
  ld_stat_scan(g, [&](const LdTile& t) { want.add(t); }, opts);

  for (const TileCodec codec : {TileCodec::kXor, TileCodec::kRaw}) {
    const std::string path = temp_path("concurrent_add.ldtile");
    StreamOptions sopts;
    sopts.threads = 4;
    TileStoreWriter writer(path, sopts.stat, g.snps(), g.snps(), codec);
    ld_matrix_stream(store, [&](const LdTile& t) { writer.add(t); }, sopts);
    writer.close();

    TileStoreReader reader(path);
    EXPECT_EQ(reader.tiles(), writer.tiles());
    Assembly got(g.snps(), g.snps());
    for (std::size_t t = 0; t < reader.tiles(); ++t) {
      const TileData td = reader.read_tile(t);
      got.add(LdTile{td.rec.row_begin, td.rec.col_begin, td.rec.rows,
                     td.rec.cols, td.values.data(), td.rec.cols});
    }
    expect_identical(got, want,
                     "codec=" + std::to_string(static_cast<int>(codec)));
  }
}

// Every cell of a many-tile store (ragged shards, coalesced diagonal tiles,
// team-mode file order) through TileStoreReader::find: a covered cell
// returns the streamed value bit for bit, an uncovered one returns false.
TEST(StreamTileStore, FindReadsEveryCell) {
  const BitMatrix g = random_matrix(97, 391, 31);
  GemmConfig cfg;
  cfg.kc_words = 3;
  cfg.mc = 16;
  cfg.nc = 16;
  const std::string store_path = temp_path("find_every_cell.ldshard");
  write_shard_store(store_path, g.view(), cfg, 24);
  ShardStore store = ShardStore::open(store_path);
  const std::string path = temp_path("find_every_cell.ldtile");
  StreamOptions sopts;
  sopts.threads = 4;
  Assembly want(g.snps(), g.snps());
  TileStoreWriter writer(path, sopts.stat, g.snps(), g.snps());
  ld_matrix_stream(store,
                   [&](const LdTile& t) {
                     writer.add(t);
                     want.add(t);
                   },
                   sopts);
  writer.close();

  TileStoreReader reader(path);
  ASSERT_GT(reader.tiles(), 20u);
  std::size_t found = 0;
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      const double expected = want.values[i * g.snps() + j];
      double got = 0.0;
      const bool covered = expected != -7777.0;
      ASSERT_EQ(reader.find(i, j, &got), covered) << i << ", " << j;
      if (covered) {
        ++found;
        ASSERT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << i << ", " << j;
      }
    }
  }
  EXPECT_EQ(found, want.cells);
}

}  // namespace
}  // namespace ldla

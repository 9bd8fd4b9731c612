// ldla_ingest — build an out-of-core shard store from a genotype dataset.
//
// The expensive pack (micro-panel slivers, sparse index lists, sample-major
// transpose) runs ONCE here; the store is then mmap'd read-only by the
// streaming drivers (core/ld_stream.hpp), which consume the slivers
// zero-copy with no re-packing. Input format follows the extension:
// .ldm (binary snapshot), .vcf, anything else = Hudson ms.
//
// Examples:
//   ldla_ingest region.ms --out region.ldshard --rows-per-shard 4096
//   ldla_ingest panel.vcf --out panel.ldshard --arch avx2 --threads 8
//   ldla_ingest --selftest            # ingest -> stream -> verify round trip
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "ldla.hpp"
#include "util/args.hpp"

namespace {

using namespace ldla;

BitMatrix load_genotypes(const std::string& path, unsigned threads) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".ldm") {
    return read_ldm_file(path);
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".vcf") {
    VcfData vcf = parse_vcf_file(path, /*skip_invalid=*/true);
    if (vcf.skipped > 0) {
      std::fprintf(stderr, "note: skipped %zu unsupported VCF sites\n",
                   vcf.skipped);
    }
    return std::move(vcf.genotypes);
  }
  auto reps = parse_ms_file(path, threads);
  if (reps.size() > 1) {
    std::fprintf(stderr, "note: using first of %zu ms replicates\n",
                 reps.size());
  }
  return std::move(reps.front().genotypes);
}

KernelArch parse_arch(const std::string& s) {
  if (s == "auto") return KernelArch::kAuto;
  if (s == "scalar") return KernelArch::kScalar;
  if (s == "swar") return KernelArch::kSwar;
  if (s == "strawman") return KernelArch::kStrawman;
  if (s == "avx2") return KernelArch::kAvx2;
  if (s == "avx512") return KernelArch::kAvx512;
  if (s == "avx512wide") return KernelArch::kAvx512Wide;
  throw Error("unknown arch '" + s +
              "' (auto, scalar, swar, strawman, avx2, avx512, avx512wide)");
}

GemmConfig config_from_args(const ArgParser& args) {
  GemmConfig cfg;
  cfg.arch = parse_arch(args.str("arch"));
  cfg.kc_words = static_cast<std::size_t>(args.integer("kc"));
  cfg.mc = static_cast<std::size_t>(args.integer("mc"));
  cfg.nc = static_cast<std::size_t>(args.integer("nc"));
  if (const std::string t = args.str("sparse-threshold"); t != "auto") {
    cfg.sparse_threshold = static_cast<std::size_t>(std::stoull(t));
  }
  return cfg;
}

/// Dense assembly target for verifying streamed tiles against the
/// in-memory scan: a full n x n matrix of doubles, compared bitwise.
struct Assembly {
  std::size_t n_rows = 0;
  std::size_t n_cols = 0;
  std::vector<double> values;
  std::size_t cells = 0;

  Assembly(std::size_t r, std::size_t c)
      : n_rows(r), n_cols(c), values(r * c, -7777.0) {}

  void add(const LdTile& t) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      std::memcpy(values.data() + (t.row_begin + i) * n_cols + t.col_begin,
                  t.values + i * t.ld, t.cols * sizeof(double));
    }
    cells += t.rows * t.cols;
  }

  [[nodiscard]] bool identical(const Assembly& other) const {
    return cells == other.cells &&
           std::memcmp(values.data(), other.values.data(),
                       values.size() * sizeof(double)) == 0;
  }
};

/// Ingest -> stream -> verify round trip on a synthetic panel; exercises
/// ragged shard boundaries, both stream drivers and the tile store. This
/// is the ingest_stream_roundtrip ctest.
int selftest(const std::string& dir) {
  WrightFisherParams p;
  p.n_snps = 531;  // deliberately not a multiple of rows_per_shard
  p.n_samples = 173;
  p.seed = 20260809;
  const SimulatedDataset data = simulate_wright_fisher(p);

  // Round-trip the dataset through the ldm reader so the ingest path under
  // test is the same one a real run takes.
  const std::string ldm = dir + "/selftest.ldm";
  write_ldm_file(ldm, data.genotypes);
  const BitMatrix g = read_ldm_file(ldm);

  int failures = 0;
  const LdStatistic stats[] = {LdStatistic::kD, LdStatistic::kDPrime,
                               LdStatistic::kRSquared};
  GemmConfig cfg;  // kAuto: the widest kernel this machine has
  const std::string store_path = dir + "/selftest.ldshard";
  write_shard_store(store_path, g.view(), cfg, /*rows_per_shard=*/100);
  ShardStore store = ShardStore::open(store_path);

  for (const LdStatistic stat : stats) {
    LdOptions opts;
    opts.stat = stat;
    opts.gemm = cfg;
    Assembly expect(g.snps(), g.snps());
    ld_stat_scan(g, [&](const LdTile& t) { expect.add(t); }, opts);

    StreamOptions sopts;
    sopts.stat = stat;
    Assembly got(g.snps(), g.snps());
    ld_matrix_stream(store, [&](const LdTile& t) { got.add(t); }, sopts);

    if (!got.identical(expect)) {
      std::fprintf(stderr, "FAIL: ld_matrix_stream stat=%d diverges\n",
                   static_cast<int>(stat));
      ++failures;
    }
  }

  // Cross-stream: two stores over disjoint row windows of the same panel.
  const std::size_t split = 217;
  BitMatrix top(split, g.samples());
  BitMatrix bottom(g.snps() - split, g.samples());
  for (std::size_t s = 0; s < split; ++s) {
    std::memcpy(top.row_data(s), g.row_data(s), g.words_per_snp() * 8);
  }
  for (std::size_t s = split; s < g.snps(); ++s) {
    std::memcpy(bottom.row_data(s - split), g.row_data(s),
                g.words_per_snp() * 8);
  }
  const std::string a_path = dir + "/selftest_a.ldshard";
  const std::string b_path = dir + "/selftest_b.ldshard";
  write_shard_store(a_path, top.view(), cfg, /*rows_per_shard=*/64);
  write_shard_store(b_path, bottom.view(), cfg, /*rows_per_shard=*/90);
  ShardStore sa = ShardStore::open(a_path);
  ShardStore sb = ShardStore::open(b_path);

  LdOptions xopts;
  xopts.gemm = cfg;
  Assembly xexpect(top.snps(), bottom.snps());
  ld_cross_stat_scan(top, bottom, [&](const LdTile& t) { xexpect.add(t); },
                     xopts);
  Assembly xgot(top.snps(), bottom.snps());
  ld_cross_stream(sa, sb, [&](const LdTile& t) { xgot.add(t); }, {});
  if (!xgot.identical(xexpect)) {
    std::fprintf(stderr, "FAIL: ld_cross_stream diverges\n");
    ++failures;
  }

  // Tile store round trip: stream to disk, then re-read every tile and a
  // random-access probe, comparing against the in-memory assembly.
  for (const TileCodec codec : {TileCodec::kRaw, TileCodec::kXor}) {
    LdOptions opts;
    opts.gemm = cfg;
    Assembly expect(g.snps(), g.snps());
    ld_stat_scan(g, [&](const LdTile& t) { expect.add(t); }, opts);

    const std::string tile_path = dir + "/selftest.ldtile";
    {
      TileStoreWriter writer(tile_path, LdStatistic::kRSquared, g.snps(),
                             g.snps(), codec);
      ld_matrix_stream(store, [&](const LdTile& t) { writer.add(t); }, {});
      writer.close();
    }
    TileStoreReader reader(tile_path);
    std::size_t cells = 0;
    bool tile_ok = true;
    for (std::size_t t = 0; t < reader.tiles() && tile_ok; ++t) {
      const TileData td = reader.read_tile(t);
      for (std::size_t i = 0; i < td.rec.rows && tile_ok; ++i) {
        for (std::size_t j = 0; j < td.rec.cols; ++j) {
          const double want = expect.values[(td.rec.row_begin + i) * g.snps() +
                                            td.rec.col_begin + j];
          const double have = td.at(i, j);
          if (std::memcmp(&want, &have, sizeof(double)) != 0) {
            tile_ok = false;
            break;
          }
          ++cells;
        }
      }
    }
    if (!tile_ok || cells != expect.cells) {
      std::fprintf(stderr, "FAIL: tile store codec=%d round trip\n",
                   static_cast<int>(codec));
      ++failures;
    }
    double v = 0.0;
    if (!reader.find(g.snps() - 1, 3, &v) ||
        std::memcmp(&v, &expect.values[(g.snps() - 1) * g.snps() + 3],
                    sizeof(double)) != 0) {
      std::fprintf(stderr, "FAIL: tile store random lookup codec=%d\n",
                   static_cast<int>(codec));
      ++failures;
    }
    if (reader.find(0, g.snps() - 1, &v)) {  // strictly-upper: not stored
      std::fprintf(stderr, "FAIL: tile store returned an upper-triangle "
                           "element it never stored\n");
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("selftest OK: ingest -> stream -> verify round trip "
                "(%zu SNPs x %zu samples)\n", g.snps(), g.samples());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("ldla_ingest",
                 "pack a genotype dataset into an mmap-able shard store");
  args.add_option("out", "output store path (.ldshard)", "out.ldshard");
  args.add_option("rows-per-shard", "SNP rows per shard", "4096");
  args.add_option("threads", "parse and pack worker threads", "1");
  args.add_option("arch", "kernel architecture", "auto");
  args.add_option("kc", "kc blocking in words (0 = derive)", "0");
  args.add_option("mc", "mc blocking in rows (0 = derive)", "0");
  args.add_option("nc", "nc blocking in columns (0 = derive)", "0");
  args.add_option("sparse-threshold",
                  "allele-count threshold for sparse columns "
                  "(auto = crossover model, 0 = dense only)",
                  "auto");
  args.add_option("selftest-dir", "scratch directory for --selftest", ".");
  args.add_flag("selftest",
                "ingest a synthetic panel and verify the streamed LD matrix "
                "bit-for-bit against the in-memory scan");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.flag("selftest")) return selftest(args.str("selftest-dir"));

    if (args.positional().size() != 1) {
      std::fprintf(stderr, "%s", args.usage().c_str());
      std::fprintf(stderr, "error: expected exactly one input dataset\n");
      return 1;
    }
    const auto threads = static_cast<unsigned>(args.integer("threads"));
    const BitMatrix g = load_genotypes(args.positional().front(), threads);
    const GemmConfig cfg = config_from_args(args);
    const std::string out = args.str("out");
    write_shard_store(out, g.view(), cfg,
                      static_cast<std::size_t>(args.integer("rows-per-shard")),
                      threads);

    const ShardStore store = ShardStore::open(out);
    std::printf("wrote %s: %zu SNPs x %zu samples, %zu shards, "
                "%.1f MiB payload (max shard %.1f MiB)\n",
                out.c_str(), store.snps(), store.samples(), store.shards(),
                static_cast<double>(store.total_payload_bytes()) / (1 << 20),
                static_cast<double>(store.max_shard_bytes()) / (1 << 20));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

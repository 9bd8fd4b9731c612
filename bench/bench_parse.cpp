// ms parse at bandwidth (DESIGN.md §4.10): a Hudson ms file on disk
// to the SNP-major BitMatrix through parse_ms_file, at 1 and 4 threads,
// reported as MB/s of input text against a measured memcpy ceiling (the
// same number of bytes copied buffer to buffer, warm) — the roofline for a
// conversion that touches every input byte once.
//
// Shapes are the perfbench inputs' (allpairs_topk: 8000 SNPs x 4000
// haplotypes, 32 MB; sweep_omega: 20000 x 1000, 20 MB); smoke mode cuts
// them to a few MB. Every parse is checked against the matrix and
// positions that were written, so a fast wrong parse fails the bench.
#include "bench_common.hpp"

#include <cstring>
#include <filesystem>

using namespace ldla;
using namespace ldla::bench;

namespace {

struct Shape {
  std::size_t snps;
  std::size_t samples;
};

/// Warm buffer-to-buffer copy rate of `bytes`, median of 5, in MB/s.
double memcpy_mb_per_s(std::size_t bytes) {
  AlignedBuffer<std::uint8_t> src(bytes), dst(bytes);
  std::memset(src.data(), 1, bytes);
  std::memset(dst.data(), 2, bytes);
  std::vector<double> times;
  for (int r = 0; r < 5; ++r) {
    Timer timer;
    std::memcpy(dst.data(), src.data(), bytes);
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  return static_cast<double>(bytes) / times[times.size() / 2] / 1e6;
}

bool same_matrix(const BitMatrix& a, const BitMatrix& b) {
  if (a.snps() != b.snps() || a.samples() != b.samples()) return false;
  for (std::size_t s = 0; s < a.snps(); ++s) {
    if (std::memcmp(a.row_data(s), b.row_data(s),
                    a.words_per_snp() * sizeof(std::uint64_t)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  maybe_start_trace(argc, argv, "parse");
  print_header("ms parse: text file to SNP-major bits",
               "input conversion ahead of the packed GEMM (Second-generation "
               "PLINK's convert-once argument)");

  const int trials = smoke_mode() ? 1 : 5;
  const std::vector<Shape> shapes =
      smoke_mode() ? std::vector<Shape>{{2000, 1000}, {5000, 300}}
                   : std::vector<Shape>{{8000, 4000}, {20000, 1000}};
  const std::string tmp_dir =
      std::getenv("TMPDIR") != nullptr ? std::getenv("TMPDIR") : "/tmp";
  const std::string path = tmp_dir + "/bench_parse.ms";
  BenchJson json("parse");
  Table table({"shape", "MB", "threads", "median s", "MB/s", "of memcpy",
               "speedup"});
  int rc = 0;

  for (const Shape& shape : shapes) {
    MsReplicate rep;
    rep.genotypes = random_bits(shape.snps, shape.samples, 190019);
    Rng rng(7);
    rep.positions.resize(shape.snps);
    for (std::size_t s = 0; s < shape.snps; ++s) {
      rep.positions[s] = (static_cast<double>(s) + rng.next_double()) /
                         static_cast<double>(shape.snps);
    }
    write_ms_file(path, rep);
    const auto bytes =
        static_cast<std::size_t>(std::filesystem::file_size(path));
    const double mb = static_cast<double>(bytes) / 1e6;
    const double ceiling = memcpy_mb_per_s(bytes);

    double one_thread_s = 0.0;
    for (const unsigned threads : {1u, 4u}) {
      std::vector<double> times;
      for (int t = 0; t < trials; ++t) {
        Timer timer;
        std::vector<MsReplicate> got = parse_ms_file(path, threads);
        times.push_back(timer.seconds());
        if (got.size() != 1 || !same_matrix(got[0].genotypes, rep.genotypes) ||
            got[0].positions != rep.positions) {
          std::printf("PARSE MISMATCH (%zu x %zu, %u threads)\n", shape.snps,
                      shape.samples, threads);
          rc = 1;
        }
      }
      std::sort(times.begin(), times.end());
      const double s = times[times.size() / 2];
      if (threads == 1) one_thread_s = s;
      const double mb_per_s = mb / s;
      json.add("parse-t" + std::to_string(threads), "swar", shape.snps,
               shape.samples, s, static_cast<double>(bytes) / s);
      json.set_last_speedup(one_thread_s / s);
      json.add_last_field("mb_per_s", mb_per_s);
      json.add_last_field("memcpy_mb_per_s", ceiling);
      json.add_last_field("frac_of_memcpy", mb_per_s / ceiling);
      table.add_row({std::to_string(shape.snps) + " x " +
                         std::to_string(shape.samples),
                     fmt_fixed(mb, 1), std::to_string(threads),
                     fmt_fixed(s, 4), fmt_fixed(mb_per_s, 0),
                     fmt_fixed(mb_per_s / ceiling, 3),
                     fmt_fixed(one_thread_s / s, 2)});
    }
  }
  std::remove(path.c_str());

  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nMB/s counts input text bytes; the ceiling is a warm memcpy of the\n"
      "same size. lds_per_sec in the JSON rows is input bytes per second.\n");
  if (!json.flush()) rc = 1;
  if (!finish_trace()) rc = 1;
  return rc;
}

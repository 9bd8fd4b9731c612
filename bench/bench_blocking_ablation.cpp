// Ablation of the GotoBLAS design choices (Section III / DESIGN.md §4):
// what cache blocking, the kc/mc choice and the register tile are each
// worth.
#include "bench_common.hpp"

using namespace ldla;
using namespace ldla::bench;

namespace {

struct AblationPoint {
  double rate = 0.0;     ///< word-triples per second (best rep)
  double seconds = 0.0;  ///< wall seconds of the best rep
};

// Best of three runs: the shared vCPU shows multi-percent run-to-run noise
// and the best repetition is the least contaminated estimate.
AblationPoint run(const BitMatrix& g, const GemmConfig& cfg) {
  AblationPoint best;
  const int reps = smoke_mode() ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    const CountScanResult r = time_symmetric_counts(g, cfg);
    const double rate = static_cast<double>(r.word_triples) / r.seconds;
    if (rate > best.rate) best = AblationPoint{rate, r.seconds};
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  maybe_start_trace(argc, argv, "blocking_ablation");
  print_header("Blocking ablation",
               "Sec. III: the layered GotoBLAS structure is what buys the "
               "84-90% of peak");

  const std::size_t n = full_mode() ? 8192 : smoke_mode() ? 512 : 2048;
  const std::size_t k = full_mode() ? 65536 : smoke_mode() ? 1024 : 16384;
  const BitMatrix g = random_bits(n, k, 77);
  std::printf("problem: %zu SNPs x %zu samples (%zu words/SNP)\n\n", n, k,
              g.words_per_snp());

  BenchJson json("blocking_ablation");
  GemmConfig base;
  base.arch = KernelArch::kScalar;
  const AblationPoint full = run(g, base);
  json.add("full", kernel_arch_name(base.arch), n, k, full.seconds,
           full.rate);

  Table table({"configuration", "Gtriples/s", "vs full GotoBLAS"});
  table.add_row({"full (pack + block, auto kc/mc/nc)",
                 fmt_fixed(full.rate / 1e9, 2), "1.00x"});

  {
    GemmConfig cfg = base;
    cfg.blocking = false;
    const AblationPoint r = run(g, cfg);
    json.add("no-blocking", kernel_arch_name(cfg.arch), n, k, r.seconds,
             r.rate);
    table.add_row({"no cache blocking (one giant pass)",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  for (const std::size_t kc : {16u, 64u, 256u, 1024u}) {
    GemmConfig cfg = base;
    cfg.kc_words = kc;
    const AblationPoint r = run(g, cfg);
    json.add("kc=" + std::to_string(kc), kernel_arch_name(cfg.arch), n, k,
             r.seconds, r.rate);
    table.add_row({"kc = " + std::to_string(kc) + " words",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  for (const std::size_t mc : {16u, 64u, 256u}) {
    GemmConfig cfg = base;
    cfg.mc = mc;
    const AblationPoint r = run(g, cfg);
    json.add("mc=" + std::to_string(mc), kernel_arch_name(cfg.arch), n, k,
             r.seconds, r.rate);
    table.add_row({"mc = " + std::to_string(mc) + " rows",
                   fmt_fixed(r.rate / 1e9, 2),
                   fmt_fixed(r.rate / full.rate, 2) + "x"});
  }
  // Register-tile geometry (AVX-512 only): 4x4 vs 2x8.
  if (kernel_available(KernelArch::kAvx512)) {
    for (const KernelArch arch :
         {KernelArch::kAvx512, KernelArch::kAvx512Wide}) {
      GemmConfig cfg;
      cfg.arch = arch;
      const AblationPoint r = run(g, cfg);
      json.add("tile-geometry", kernel_arch_name(arch), n, k, r.seconds,
               r.rate);
      table.add_row({"tile: " + kernel_arch_name(arch),
                     fmt_fixed(r.rate / 1e9, 2),
                     fmt_fixed(r.rate / full.rate, 2) + "x"});
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nexpected shape: the full configuration is at or near the top; very\n"
      "small kc/mc hurt (packing overhead dominates), and disabling\n"
      "blocking costs performance on problems that exceed the caches.\n");
  const bool json_ok = json.flush();
  const bool trace_ok = finish_trace();
  return (json_ok && trace_ok) ? 0 : 1;
}

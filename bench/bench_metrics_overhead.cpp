// Cost of the counter registry: the same workload with metrics enabled vs
// metrics::set_enabled(false), as paired runs in alternating arm order.
//
// Each run is timed in process CPU time (all threads), which a shared host
// disturbs less than wall time. For each workload the bench reports the
// median and interquartile range of the per-pair relative difference
// (enabled / disabled - 1); alternating which arm runs first cancels slow
// drift, and the IQR says whether the median is resolved. It also times
// one pipeline-counter sink call (metrics::pipeline().kernel_words.add) in
// a tight loop, enabled vs disabled, and prints the count tiles per run,
// which sets how many sink calls a run makes.
//
// Usage: bench_metrics_overhead [pairs]   (default 41; LDLA_SMOKE=1: 3)
#include <ctime>
#include <functional>

#include "bench_common.hpp"

using namespace ldla;
using namespace ldla::bench;

namespace {

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Pairs in a lower triangle with its diagonal (what one scan visits).
double triangle(std::size_t n) {
  return static_cast<double>(n) * static_cast<double>(n + 1) / 2.0;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_time(const std::function<void()>& op) {
  const double t0 = cpu_seconds();
  op();
  return cpu_seconds() - t0;
}

double sink_ns(bool enabled) {
  constexpr std::uint64_t kCalls = 50'000'000;
  metrics::set_enabled(enabled);
  Timer t;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    metrics::pipeline().kernel_words.add(1);
  }
  const double ns = t.seconds() * 1e9 / static_cast<double>(kCalls);
  metrics::set_enabled(true);
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Counter registry overhead: enabled vs set_enabled(false)",
               "no paper figure; cost of the telemetry substrate");
  const std::size_t pairs = std::max<std::size_t>(
      1, argc > 1 ? std::strtoul(argv[1], nullptr, 10) : smoke_mode() ? 3 : 41);

  const double ns_on = sink_ns(true);
  const double ns_off = sink_ns(false);
  std::printf("one pipeline-counter sink call: enabled %.2f ns, "
              "disabled %.2f ns\n\n",
              ns_on, ns_off);

  const GemmConfig cfg;  // auto-dispatch, as a caller would run it
  // Counter-heavy control: 8x8 cache tiles and one-word k panels put ~20
  // sink calls on every few hundred word-triples of work.
  GemmConfig tiny = cfg;
  tiny.mc = 8;
  tiny.nc = 8;
  tiny.kc_words = 1;
  const std::size_t big_n = smoke_mode() ? 1536 : 6144;
  const std::size_t big_k = smoke_mode() ? 512 : 2048;
  const BitMatrix small = random_bits(1536, 512, 9731);
  const BitMatrix big = random_bits(big_n, big_k, 9732);
  MafSpectrumParams sp;
  sp.n_snps = smoke_mode() ? 1000 : 5000;
  sp.n_samples = 500;
  sp.seed = 9733;
  const BitMatrix sweep = simulate_maf_spectrum(sp);
  std::vector<double> positions(sweep.snps());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<double>(i) / static_cast<double>(sweep.snps());
  }
  SweepScanParams omega;
  omega.grid_points = sweep.snps() / 5;
  omega.window_snps = 100;

  struct Workload {
    std::string name;
    std::size_t snps, samples;
    double lds_per_op;
    std::function<void()> op;
  };
  const std::vector<Workload> workloads = {
      {"r2 scan, 1 thread", 1536, 512, triangle(1536),
       [&] { time_gemm_ld_scan(small, 1, cfg); }},
      {"r2 scan, mc=nc=8, kc=1 word", 1536, 512, triangle(1536),
       [&] { time_gemm_ld_scan(small, 1, tiny); }},
      {"r2 scan, 1 thread", big_n, big_k, triangle(big_n),
       [&] { time_gemm_ld_scan(big, 1, cfg); }},
      {"r2 scan, 4 threads", big_n, big_k, triangle(big_n),
       [&] { time_gemm_ld_scan(big, 4, cfg); }},
      {"omega sweep (w=100), 1 thread", sweep.snps(), sweep.samples(),
       static_cast<double>(omega.grid_points) * triangle(200),
       [&] { (void)omega_scan(sweep, positions, omega); }},
  };

  BenchJson json("metrics_overhead");
  Table table({"workload", "SNPs x samples", "pairs", "off CPU s (median)",
               "overhead % (median)", "Q1 %", "Q3 %", "on faster",
               "count tiles/run"});
  for (const Workload& w : workloads) {
    const std::uint64_t tiles0 = metrics::pipeline().count_tiles.value();
    w.op();  // warm the pool and the page cache; count the tiles
    const std::uint64_t tiles =
        metrics::pipeline().count_tiles.value() - tiles0;
    std::vector<double> rel, on_s, off_s;
    std::size_t on_faster = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      double t_on = 0.0;
      double t_off = 0.0;
      for (int arm = 0; arm < 2; ++arm) {
        const bool enabled = (arm == 0) == (p % 2 == 0);
        metrics::set_enabled(enabled);
        (enabled ? t_on : t_off) = cpu_time(w.op);
      }
      metrics::set_enabled(true);
      rel.push_back((t_on / t_off - 1.0) * 100.0);
      on_s.push_back(t_on);
      off_s.push_back(t_off);
      on_faster += t_on < t_off ? 1 : 0;
    }
    const double med_on = quantile(on_s, 0.5);
    table.add_row({w.name,
                   std::to_string(w.snps) + "x" + std::to_string(w.samples),
                   std::to_string(pairs), fmt_fixed(quantile(off_s, 0.5), 4),
                   fmt_fixed(quantile(rel, 0.5), 2),
                   fmt_fixed(quantile(rel, 0.25), 2),
                   fmt_fixed(quantile(rel, 0.75), 2),
                   std::to_string(on_faster) + "/" + std::to_string(pairs),
                   std::to_string(tiles)});
    json.add(w.name, "auto", w.snps, w.samples, med_on,
             w.lds_per_op / med_on);
  }
  std::fputs(table.str().c_str(), stdout);
  return json.flush() ? 0 : 1;
}

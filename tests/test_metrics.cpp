// Tests for the always-on metrics layer (util/metrics.hpp): striped
// counter aggregation, the runtime enable switch, analytic histogram
// bucket layout and quantile math, exporter output shape, the background
// health sampler's lifecycle and probes, and the pipeline counters that
// trace::snapshot() reads back from this registry.
//
// The registry is process-global find-or-create storage, so tests reuse
// fixed names freely — re-registering a name returns the same object.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "sim/maf_spectrum.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

using metrics::Histogram;

TEST(Metrics, CounterAggregatesAcrossStripesExactly) {
  metrics::set_enabled(true);
  metrics::Counter& c =
      metrics::counter("test_counter_total", "test counter");
  const std::uint64_t before = c.value();

  // Drive increments from many pool threads so multiple stripes are hit;
  // the scrape-side sum must still be exact.
  ThreadPool pool(4);
  constexpr std::uint64_t kPerTask = 10000;
  constexpr std::size_t kTasks = 16;
  pool.run_tasks(kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) c.inc();
  });
  EXPECT_EQ(c.value() - before, kPerTask * kTasks);
}

TEST(Metrics, RegistrationIsFindOrCreateByName) {
  metrics::Counter& a = metrics::counter("test_identity_total", "first");
  metrics::Counter& b = metrics::counter("test_identity_total", "second");
  EXPECT_EQ(&a, &b);
  EXPECT_STREQ(a.name(), "test_identity_total");
  // The first registration's help wins; re-registration does not clobber.
  EXPECT_STREQ(a.help(), "first");
}

TEST(Metrics, DisabledSwitchFreezesEverySinkKind) {
  metrics::set_enabled(true);
  metrics::Counter& c = metrics::counter("test_frozen_total", "t");
  metrics::Gauge& g = metrics::gauge("test_frozen_gauge", "t");
  Histogram& h = metrics::histogram("test_frozen_seconds", "t");
  // A pipeline counter, and the trace snapshot field that reads it.
  metrics::Counter& moved = metrics::pipeline().kernel_words;
  g.set(7.5);
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();
  const std::uint64_t m0 = moved.value();
  const std::uint64_t t0 = trace::snapshot().counters.kernel_words;

  metrics::set_enabled(false);
  EXPECT_FALSE(metrics::enabled());
  c.add(100);
  moved.add(100);
  g.set(99.0);
  h.record_ns(1234);
  { metrics::ScopedLatency lat(h); }
  metrics::set_enabled(true);

  EXPECT_EQ(c.value(), c0);
  EXPECT_EQ(moved.value(), m0);
  EXPECT_EQ(trace::snapshot().counters.kernel_words, t0);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  EXPECT_EQ(h.count(), h0);
}

TEST(Metrics, GaugeIsLastWriterWins) {
  metrics::set_enabled(true);
  metrics::Gauge& g = metrics::gauge("test_gauge", "t");
  g.set(std::uint64_t{42});
  EXPECT_DOUBLE_EQ(g.value(), 42.0);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramBucketLayoutMatchesTheAnalyticScheme) {
  // Sub-32 values map exactly.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(31), 31u);
  EXPECT_EQ(Histogram::bucket_lower(17), 17u);
  EXPECT_EQ(Histogram::bucket_upper(17), 18u);

  // First octave [32, 64): 16 sub-buckets of width 2.
  EXPECT_EQ(Histogram::bucket_index(32), 32u);
  EXPECT_EQ(Histogram::bucket_index(33), 32u);
  EXPECT_EQ(Histogram::bucket_index(34), 33u);
  EXPECT_EQ(Histogram::bucket_index(63), 47u);
  EXPECT_EQ(Histogram::bucket_lower(32), 32u);
  EXPECT_EQ(Histogram::bucket_upper(32), 34u);
  EXPECT_EQ(Histogram::bucket_lower(47), 62u);
  EXPECT_EQ(Histogram::bucket_upper(47), 64u);

  // Octave boundary: 64 starts the next 16-bucket group (width 4).
  EXPECT_EQ(Histogram::bucket_index(64), 48u);
  EXPECT_EQ(Histogram::bucket_index(67), 48u);
  EXPECT_EQ(Histogram::bucket_index(68), 49u);

  // Every bucket boundary round-trips through index/lower/upper, and the
  // quantization error bound (upper/lower <= 1 + 2^-4) holds.
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower(i);
    const std::uint64_t hi = Histogram::bucket_upper(i);
    ASSERT_LT(lo, hi);
    ASSERT_EQ(Histogram::bucket_index(lo), i);
    ASSERT_EQ(Histogram::bucket_index(hi - 1), i);
    if (lo >= Histogram::kFirstBuckets && i + 1 < Histogram::kBucketCount) {
      ASSERT_LE(static_cast<double>(hi) / static_cast<double>(lo), 1.0625);
    }
  }

  // Clamp: anything at/above the tracked range lands in the last bucket.
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMaxTracked),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBucketCount - 1);
}

TEST(Metrics, HistogramQuantilesTrackAUniformDistribution) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_uniform_seconds", "t");
  ASSERT_EQ(h.count(), 0u) << "test requires a fresh histogram name";

  // 1000 samples uniform on [1us, 1ms]: quantile(q) ~= q * 1ms.
  constexpr std::uint64_t kN = 1000;
  constexpr std::uint64_t kStep = 1000;  // ns
  for (std::uint64_t i = 1; i <= kN; ++i) h.record_ns(i * kStep);
  EXPECT_EQ(h.count(), kN);
  EXPECT_NEAR(h.sum_seconds(), 5.005e-4 * static_cast<double>(kN), 1e-6);

  for (const double q : {0.50, 0.90, 0.99}) {
    const double expected = q * static_cast<double>(kN * kStep) * 1e-9;
    // Bucket quantization is <= 6.25% relative; interpolation keeps the
    // realized error well inside 8%.
    EXPECT_NEAR(h.quantile(q), expected, 0.08 * expected) << "q=" << q;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
}

TEST(Metrics, HistogramConcurrentWritersLoseNoSamples) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_stress_seconds", "t");
  const std::uint64_t before = h.count();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 8;
  constexpr std::uint64_t kPerTask = 20000;
  pool.run_tasks(kTasks, [&](std::size_t t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      h.record_ns(t * 1000 + i % 257);
    }
  });
  EXPECT_EQ(h.count() - before, kTasks * kPerTask);
}

TEST(Metrics, RenderPrometheusHasTheExpositionShape) {
  metrics::set_enabled(true);
  metrics::counter("test_render_total", "render help text").inc();
  metrics::gauge("test_render_gauge", "g").set(3.5);
  metrics::histogram("test_render_seconds", "h").record_ns(1500);
  const std::string out = metrics::render_prometheus();

  EXPECT_NE(out.find("# HELP test_render_total render help text"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE test_render_total counter"), std::string::npos);
  EXPECT_NE(out.find("# TYPE test_render_gauge gauge"), std::string::npos);
  EXPECT_NE(out.find("test_render_gauge 3.5"), std::string::npos);
  EXPECT_NE(out.find("# TYPE test_render_seconds histogram"),
            std::string::npos);
  EXPECT_NE(out.find("test_render_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(out.find("test_render_seconds_sum"), std::string::npos);
  EXPECT_NE(out.find("test_render_seconds_count"), std::string::npos);
}

TEST(Metrics, RenderJsonHasTheSchemaEnvelope) {
  metrics::set_enabled(true);
  metrics::counter("test_json_total", "j").add(3);
  const std::string out = metrics::render_json();
  EXPECT_EQ(out.find('{'), 0u);
  EXPECT_EQ(out.rfind('}'), out.size() - 1);
  EXPECT_NE(out.find("\"schema\": \"ldla-metrics-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.find("\"test_json_total\""), std::string::npos);
}

TEST(Metrics, SamplerLifecycleStartsTicksStopsAndRestarts) {
  metrics::set_enabled(true);
  ASSERT_FALSE(metrics::Sampler::running());
  const std::uint64_t t0 = metrics::Sampler::ticks();

  metrics::Sampler::start(5);
  EXPECT_TRUE(metrics::Sampler::running());
  // Wait (bounded) for at least two periodic ticks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics::Sampler::ticks() < t0 + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(metrics::Sampler::ticks(), t0 + 2);

  metrics::Sampler::stop();
  EXPECT_FALSE(metrics::Sampler::running());
  const std::uint64_t t1 = metrics::Sampler::ticks();

  // Restart must work after a stop; stop is idempotent.
  metrics::Sampler::start(5);
  EXPECT_TRUE(metrics::Sampler::running());
  metrics::Sampler::stop();
  metrics::Sampler::stop();
  EXPECT_FALSE(metrics::Sampler::running());
  EXPECT_GE(metrics::Sampler::ticks(), t1);
}

TEST(Metrics, SampleNowSetsProcessHealthGaugesSynchronously) {
  metrics::set_enabled(true);
  ASSERT_FALSE(metrics::Sampler::running());
  metrics::Sampler::sample_now();
  // A live Linux process has a nonzero RSS and has minor-faulted.
  EXPECT_GT(metrics::gauge("ldla_process_rss_bytes", "").value(), 0.0);
  EXPECT_GT(metrics::gauge("ldla_process_minor_faults", "").value(), 0.0);
  EXPECT_GT(metrics::counter("ldla_sampler_ticks_total", "").value(), 0u);
}

TEST(Metrics, ProbesFeedTheirGaugeEachSample) {
  metrics::set_enabled(true);
  static std::uint64_t probe_value = 0;
  probe_value = 12345;
  const int id = metrics::Sampler::add_probe(
      "test_probe_gauge",
      [](void* ctx) { return *static_cast<std::uint64_t*>(ctx); },
      &probe_value);
  ASSERT_GE(id, 0);
  metrics::Sampler::sample_now();
  EXPECT_DOUBLE_EQ(metrics::gauge("test_probe_gauge", "").value(), 12345.0);
  probe_value = 54321;
  metrics::Sampler::sample_now();
  EXPECT_DOUBLE_EQ(metrics::gauge("test_probe_gauge", "").value(), 54321.0);
  metrics::Sampler::clear_probes();
  metrics::Sampler::sample_now();  // must not touch the cleared probe
  EXPECT_DOUBLE_EQ(metrics::gauge("test_probe_gauge", "").value(), 54321.0);
}

TEST(Metrics, ScopedLatencyRecordsOneSample) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_scoped_seconds", "t");
  const std::uint64_t before = h.count();
  {
    metrics::ScopedLatency lat(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(h.count(), before + 1);
  EXPECT_GE(h.sum_seconds(), 0.0005);
}

// One counter store: every PhaseCounters field of trace::snapshot() is the
// sum of the registry counters named here, those counters are exported by
// both renderers, and no ldla_trace_* mirror family exists.
struct PhaseField {
  std::uint64_t trace::PhaseCounters::*field;
  const char* name;
  std::vector<const char*> counters;
};

const std::vector<PhaseField>& phase_fields() {
  using PC = trace::PhaseCounters;
  static const std::vector<PhaseField> fields = {
      {&PC::bytes_packed, "bytes_packed", {"ldla_pack_bytes_total"}},
      {&PC::slivers_packed, "slivers_packed", {"ldla_pack_slivers_total"}},
      {&PC::slivers_reused, "slivers_reused",
       {"ldla_pack_slivers_reused_total"}},
      {&PC::kernel_calls, "kernel_calls", {"ldla_kernel_calls_total"}},
      {&PC::kernel_words, "kernel_words", {"ldla_kernel_words_total"}},
      {&PC::tiles_emitted, "tiles_emitted", {"ldla_count_tiles_total"}},
      {&PC::epilogue_rows, "epilogue_rows", {"ldla_epilogue_rows_total"}},
      {&PC::task_runs, "task_runs", {"ldla_pool_tasks_total"}},
      {&PC::steals, "steals",
       {"ldla_pool_steals_total", "ldla_nest_steals_total"}},
      {&PC::failed_steals, "failed_steals",
       {"ldla_pool_failed_steals_total", "ldla_nest_failed_steals_total"}},
      {&PC::parks, "parks", {"ldla_pool_parks_total"}},
      {&PC::barrier_waits, "barrier_waits",
       {"ldla_pool_barrier_waits_total"}},
      {&PC::sparse_ll_tiles, "sparse_ll_tiles",
       {"ldla_sparse_ll_tiles_total"}},
      {&PC::sparse_ld_tiles, "sparse_ld_tiles",
       {"ldla_sparse_ld_tiles_total"}},
      {&PC::list_intersections, "list_intersections",
       {"ldla_sparse_intersections_total"}},
      {&PC::dense_fallback_tiles, "dense_fallback_tiles",
       {"ldla_sparse_dense_fallback_tiles_total"}},
      {&PC::io_bytes_read, "io_bytes_read", {"ldla_shard_io_bytes_total"}},
      {&PC::prefetch_issued, "prefetch_issued",
       {"ldla_stream_prefetch_issued_total"}},
      {&PC::prefetch_hits, "prefetch_hits",
       {"ldla_stream_prefetch_hits_total"}},
      {&PC::prefetch_stalls, "prefetch_stalls",
       {"ldla_stream_prefetch_stalls_total"}},
  };
  return fields;
}

std::vector<std::uint64_t> registry_sums() {
  std::vector<std::uint64_t> sums;
  for (const PhaseField& f : phase_fields()) {
    std::uint64_t sum = 0;
    for (const char* name : f.counters) {
      sum += metrics::counter(name, "").value();
    }
    sums.push_back(sum);
  }
  return sums;
}

// Pool workers may still probe or park after a join, so sample the
// registry on both sides of the snapshot until it held still.
std::pair<std::vector<std::uint64_t>, trace::TraceSnapshot> quiet_sample() {
  for (int attempt = 0;; ++attempt) {
    const std::vector<std::uint64_t> r0 = registry_sums();
    const trace::TraceSnapshot s = trace::snapshot();
    if (registry_sums() == r0 || attempt == 1000) return {r0, s};
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Metrics, PhaseCountersAreRegistryCounters) {
  metrics::set_enabled(true);
  (void)metrics::pipeline();  // register first, so the help texts are its
  // Every mapped name is a pipeline() registration (they carry help text;
  // a misspelt name would be a fresh, help-less counter).
  for (const PhaseField& f : phase_fields()) {
    for (const char* name : f.counters) {
      EXPECT_STRNE(metrics::counter(name, "").help(), "") << name;
    }
  }

  // A packed LD scan over a mostly-rare panel (pack, dense and sparse
  // kernels, epilogue) plus a 4-thread count nest (pool and nest steals).
  MafSpectrumParams params;
  params.n_snps = 320;
  params.n_samples = 600;
  params.rare_fraction = 0.5;
  params.rare_max_maf = 0.01;
  params.seed = 41;
  const BitMatrix g = simulate_maf_spectrum(params);
  LdOptions opts;
  opts.gemm.mc = 64;
  opts.gemm.nc = 64;
  opts.gemm.sparse_threshold = kSparseThresholdAuto;

  const auto [before, t0] = quiet_sample();
  std::uint64_t tiles = 0;
  ld_scan(g, [&](const LdTile&) { ++tiles; }, opts);
  const PackedBitMatrix p(g.view(), resolve_plan(opts.gemm, g.view().n_words),
                          PackSides::kBoth);
  syrk_count_fused(p, 0, g.snps(), [](const CountTile&) {}, 4);
  const auto [after, t1] = quiet_sample();
  const trace::TraceSnapshot d = t1.since(t0);

  ASSERT_GT(tiles, 0u);
  EXPECT_GT(d.counters.bytes_packed, 0u);
  EXPECT_GT(d.counters.kernel_words, 0u);
  EXPECT_GT(d.counters.epilogue_rows, 0u);
  EXPECT_GT(d.counters.sparse_ll_tiles + d.counters.sparse_ld_tiles, 0u);
  EXPECT_EQ(d.counters.task_runs, 4u);
  for (std::size_t i = 0; i < phase_fields().size(); ++i) {
    const PhaseField& f = phase_fields()[i];
    EXPECT_EQ(d.counters.*f.field, after[i] - before[i]) << f.name;
  }

  const std::string prom = metrics::render_prometheus();
  const std::string json = metrics::render_json();
  for (const PhaseField& f : phase_fields()) {
    for (const char* name : f.counters) {
      EXPECT_NE(prom.find(std::string("# TYPE ") + name + " counter"),
                std::string::npos)
          << name;
      EXPECT_NE(json.find(std::string("\"") + name + "\": {"),
                std::string::npos)
          << name;
    }
  }
  EXPECT_EQ(prom.find("ldla_trace_"), std::string::npos);
  EXPECT_EQ(json.find("ldla_trace_"), std::string::npos);
}

}  // namespace
}  // namespace ldla

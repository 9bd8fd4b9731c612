#include "omega/sweep_scan.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/gemm/syrk.hpp"
#include "omega/omega_stat.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

void validate(const BitMatrix& g, const std::vector<double>& positions,
              const SweepScanParams& params) {
  LDLA_EXPECT(positions.size() == g.snps(), "need one position per SNP");
  LDLA_EXPECT(std::is_sorted(positions.begin(), positions.end()),
              "positions must be sorted");
  LDLA_EXPECT(params.grid_points > 0, "need at least one grid point");
  LDLA_EXPECT(params.window_snps >= 2, "window needs at least 2 SNPs a side");
}

// Shared per-scan state: the packed operand and the per-SNP derived-allele
// counts, which serve both the polymorphism filter and the r^2 ci inputs.
struct ScanContext {
  const PackedBitMatrix& packed;
  std::vector<std::uint64_t> counts;
  std::uint64_t samples = 0;
};

// Counts for the whole contiguous window come from slicing the persistent
// pack (no gather, no re-pack); monomorphic SNPs — undefined r^2, and
// degenerate zero-cross splits (omega = inf) at window edges — are dropped
// at the r^2 stage, as OmegaPlus does, and omega runs on the compacted
// window. r^2 entries are produced straight from hot count tiles, so the
// w×w window count matrix is never materialized.
std::optional<OmegaPoint> scan_window(const ScanContext& ctx, double x,
                                      std::size_t center, std::size_t half) {
  const std::size_t n = ctx.packed.snps();
  const std::size_t begin = center > half ? center - half : 0;
  const std::size_t end = std::min(n, center + half);
  if (end - begin < 4) return std::nullopt;

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> pos(end - begin, kNone);
  std::size_t wk = 0;
  for (std::size_t s = begin; s < end; ++s) {
    if (ctx.counts[s] > 0 && ctx.counts[s] < ctx.samples) {
      pos[s - begin] = wk++;
    }
  }
  if (wk < 4) return std::nullopt;

  LdMatrix r2(wk, wk);
  syrk_count_fused(ctx.packed, begin, end, [&](const CountTile& t) {
    LDLA_TRACE_SPAN(kEpilogue);
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      const std::size_t pi = pos[gi - begin];
      if (pi == kNone) continue;
      const std::size_t j_hi = std::min(t.col_begin + t.cols, gi + 1);
      for (std::size_t gj = t.col_begin; gj < j_hi; ++gj) {
        const std::size_t pj = pos[gj - begin];
        if (pj == kNone) continue;
        // r^2 is exactly symmetric in (ci, cj): one evaluation fills both.
        const double v = ld_r_squared(ctx.counts[gi], ctx.counts[gj],
                                      t.row(i)[gj - t.col_begin],
                                      ctx.samples);
        r2(pi, pj) = v;
        r2(pj, pi) = v;
      }
    }
    metrics::pipeline().epilogue_rows.add(t.rows);
  });
  const OmegaMax m = omega_max(r2);
  return OmegaPoint{x, m.omega, begin, end, m.split};
}

std::optional<OmegaPoint> scan_grid_point(const std::vector<double>& positions,
                                          const SweepScanParams& params,
                                          const ScanContext& ctx,
                                          std::size_t gp) {
  const double x = (static_cast<double>(gp) + 0.5) /
                   static_cast<double>(params.grid_points);
  const std::size_t center = static_cast<std::size_t>(
      std::lower_bound(positions.begin(), positions.end(), x) -
      positions.begin());

  std::optional<OmegaPoint> best =
      scan_window(ctx, x, center, params.window_snps);
  // OmegaPlus-style search over window extents: report the maximizing one.
  for (const std::size_t half : params.window_candidates) {
    if (half == params.window_snps || half < 2) continue;
    const auto candidate = scan_window(ctx, x, center, half);
    if (candidate && (!best || candidate->omega > best->omega)) {
      best = candidate;
    }
  }
  return best;
}

// Shared body of omega_scan (threads = 1) and omega_scan_parallel: one
// pack shared read-only by every worker, grid points split in `threads`
// contiguous chunks on the process-wide pool, each window a team-of-one
// count nest run inline on its worker (so it never re-enters the pool).
// Windows are too small for an in-nest team to pay off.
std::vector<OmegaPoint> scan_body(const BitMatrix& g,
                                  const std::vector<double>& positions,
                                  const SweepScanParams& params,
                                  unsigned threads) {
  if (g.snps() < 4) return {};
  std::optional<PackedBitMatrix> own;
  ScanContext ctx{resolve_packed(g.view(), params.gemm, params.packed,
                                 PackSides::kBoth, own, threads),
                  std::vector<std::uint64_t>(g.snps()), g.samples()};
  for (std::size_t s = 0; s < g.snps(); ++s) {
    ctx.counts[s] = g.derived_count(s);
  }

  std::vector<std::optional<OmegaPoint>> slots(params.grid_points);
  const auto scan_range = [&](const Range& r) {
    for (std::size_t gp = r.begin; gp < r.end; ++gp) {
      slots[gp] = scan_grid_point(positions, params, ctx, gp);
    }
  };
  if (threads <= 1) {
    scan_range(Range{0, params.grid_points});
  } else {
    const std::vector<Range> ranges =
        split_uniform(params.grid_points, threads);
    global_pool().run_tasks(ranges.size(),
                            [&](std::size_t t) { scan_range(ranges[t]); });
  }

  std::vector<OmegaPoint> out;
  out.reserve(params.grid_points);
  for (const auto& slot : slots) {
    if (slot) out.push_back(*slot);
  }
  return out;
}

}  // namespace

std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params) {
  validate(g, positions, params);
  return scan_body(g, positions, params, 1);
}

std::vector<OmegaPoint> omega_scan_parallel(
    const BitMatrix& g, const std::vector<double>& positions,
    const SweepScanParams& params, unsigned threads) {
  validate(g, positions, params);
  return scan_body(g, positions, params,
                   threads == 0 ? default_thread_count() : threads);
}

OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan) {
  LDLA_EXPECT(!scan.empty(), "scan produced no points");
  return *std::max_element(scan.begin(), scan.end(),
                           [](const OmegaPoint& a, const OmegaPoint& b) {
                             return a.omega < b.omega;
                           });
}

}  // namespace ldla

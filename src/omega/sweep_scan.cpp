#include "omega/sweep_scan.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "omega/omega_stat.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"

namespace ldla {

namespace {

constexpr std::size_t kSlab = 64;  ///< rows per band-pass count nest

// The r^2 rows of one streaming band pass from SNP `origin`, kept only
// while a window can read them: slab k (rows origin + k·kSlab on) runs
// ld_band_scan's slab step, lower triangle only, into slot k mod slots_.
// Windows are monotone and at most `band` rows tall, so none left reads
// slab k - slots_ once slab k is due: about kSlab + band rows live.
class BandRing {
 public:
  BandRing(const PackedBitMatrix& packed, const detail::StatTables& tables,
           std::size_t origin, std::size_t end, std::size_t band)
      : packed_(packed), tables_(tables), origin_(origin), end_(end),
        band_(band), next_(origin),
        width_(std::min(kSlab + band, end - origin)),
        slots_(std::min(band / kSlab + 2, (end - origin - 1) / kSlab + 1)),
        r2_(slots_ * kSlab * width_) {}

  /// Stream slabs until rows [row_begin, row_end) are resident. No later
  /// window reads below row_begin: when nothing resident is read again
  /// (windows that do not overlap), the pass restarts there.
  void fill_to(std::size_t row_begin, std::size_t row_end) {
    if (next_ <= row_begin) origin_ = next_ = row_begin;
    while (next_ < row_end) {
      const std::size_t k = (next_ - origin_) / kSlab;
      const std::size_t rows = std::min(kSlab, end_ - next_);
      detail::band_slab(packed_, LdStatistic::kRSquared, tables_,
                        /*lower_only=*/true, origin_, next_, rows, band_,
                        r2_.data() + k % slots_ * kSlab * width_, width_);
      next_ += rows;
    }
  }

  /// omega_max of the resident window [center - half, center + half): a
  /// read-only reduction over the ring, restricted to the window's
  /// polymorphic SNPs. Monomorphic SNPs (undefined r^2, and degenerate
  /// zero-cross splits at window edges) are dropped as OmegaPlus does.
  std::optional<OmegaPoint> window(double x, std::size_t center,
                                   std::size_t half) {
    const std::size_t begin = center > half ? center - half : 0;
    const std::size_t end = std::min(tables_.c.size(), center + half);
    keep_.clear();
    rows_.clear();
    for (std::size_t s = begin; s < end; ++s) {
      if (tables_.c[s] == 0 || tables_.c[s] == tables_.nseq) continue;
      // r^2(s, a) sits at r2_[row - col0 + a] for a in [col0, s].
      const std::size_t row = (s - origin_) % (slots_ * kSlab) * width_;
      keep_.push_back(static_cast<std::ptrdiff_t>(s));
      rows_.push_back(static_cast<std::ptrdiff_t>(row) -
                      static_cast<std::ptrdiff_t>(col0((s - origin_) / kSlab)));
    }
    if (keep_.size() < 4) return std::nullopt;
    const OmegaMax m = detail::omega_max_from_prefix(detail::omega_prefix(
        keep_.size(), [this](std::size_t i, std::size_t j) {
          return r2_.data()[rows_[j] + keep_[i]];
        }));
    return OmegaPoint{x, m.omega, begin, end, m.split};
  }

 private:
  std::size_t col0(std::size_t k) const {
    return detail::band_col_begin(origin_, origin_ + k * kSlab, band_);
  }

  const PackedBitMatrix& packed_;
  const detail::StatTables& tables_;
  std::size_t origin_, end_, band_, next_, width_, slots_;
  std::vector<std::ptrdiff_t> keep_, rows_;  ///< window scratch
  AlignedBuffer<double> r2_;
};

}  // namespace

std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params) {
  LDLA_EXPECT(positions.size() == g.snps(), "need one position per SNP");
  LDLA_EXPECT(std::is_sorted(positions.begin(), positions.end()),
              "positions must be sorted");
  LDLA_EXPECT(params.grid_points > 0, "need at least one grid point");
  LDLA_EXPECT(params.window_snps >= 2, "window needs at least 2 SNPs a side");
  const unsigned threads =
      params.threads == 0 ? default_thread_count() : params.threads;
  const std::size_t n = g.snps();
  if (n < 4) return {};
  // Half-window extents, clamped to n so center + half never wraps.
  std::vector<std::size_t> halves{std::min(params.window_snps, n)};
  for (const std::size_t half : params.window_candidates) {
    if (half != params.window_snps && half >= 2) {
      halves.push_back(std::min(half, n));
    }
  }
  const std::size_t hmax = *std::max_element(halves.begin(), halves.end());

  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), params.gemm, params.packed, PackSides::kBoth, own, threads);
  const detail::StatTables tables = detail::make_stat_tables(g);
  const auto x_at = [&](std::size_t gp) {
    return (static_cast<double>(gp) + 0.5) /
           static_cast<double>(params.grid_points);
  };
  const auto center_at = [&](std::size_t gp) {
    return static_cast<std::size_t>(
        std::lower_bound(positions.begin(), positions.end(), x_at(gp)) -
        positions.begin());
  };

  std::vector<std::optional<OmegaPoint>> slots(params.grid_points);
  const auto scan_range = [&](const Range& r) {
    const std::size_t first = center_at(r.begin);
    BandRing ring(packed, tables, first > hmax ? first - hmax : 0,
                  std::min(n, center_at(r.end - 1) + hmax),
                  std::min(2 * hmax, n));
    for (std::size_t gp = r.begin; gp < r.end; ++gp) {
      const std::size_t center = center_at(gp);
      ring.fill_to(center - std::min(center, hmax), std::min(n, center + hmax));
      // OmegaPlus's window search: the first maximizing extent wins.
      for (const std::size_t half : halves) {
        const auto w = ring.window(x_at(gp), center, half);
        if (w && (!slots[gp] || w->omega > slots[gp]->omega)) slots[gp] = w;
      }
    }
  };
  // Grid points split in `threads` contiguous ranges on the process-wide
  // pool, each streaming its own band pass over the one shared pack.
  if (threads <= 1) {
    scan_range(Range{0, params.grid_points});
  } else {
    const std::vector<Range> ranges =
        split_uniform(params.grid_points, threads);
    global_pool().run_tasks(ranges.size(),
                            [&](std::size_t t) { scan_range(ranges[t]); });
  }

  std::vector<OmegaPoint> out;
  for (const auto& slot : slots) {
    if (slot) out.push_back(*slot);
  }
  return out;
}

OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan) {
  LDLA_EXPECT(!scan.empty(), "scan produced no points");
  return *std::max_element(scan.begin(), scan.end(),
                           [](const OmegaPoint& a, const OmegaPoint& b) {
                             return a.omega < b.omega;
                           });
}

}  // namespace ldla

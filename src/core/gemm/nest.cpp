// The count nest: one BLIS-style loop nest per shape (rectangular,
// symmetric), shared by every team size.
//
// The operands are packed once (shared, immutable). One enumerator walks
// the (ic, jr) macro-tile grid of every jc panel as mc x (q·nr) chunks, and
// each chunk runs the shared per-tile body (core/gemm/fused_tile.hpp).
//  - A team of one takes q = min(nc, padded width): every chunk is a whole
//    mc x nc cache tile, run as soon as it is enumerated, so the tile
//    stream is the jc-major cache grid.
//  - A larger team collects the chunks and drains them through per-member
//    Chase–Lev deques: LIFO locally for cache locality, FIFO steals from the
//    far end of a victim's contiguous block when a member runs dry. Load
//    imbalance from ragged edges or the SYRK triangle is absorbed by
//    stealing instead of by a static split.
// Chunks only regroup register tiles, so counts and the kernel-call /
// kernel-word counter totals are identical for every team size.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/gemm/fused_tile.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/work_steal.hpp"

namespace ldla {

namespace {

/// One unit of work: an mc-aligned row block crossed with a q-column slice
/// of one jc panel. Boundaries are register-tile aligned (c0/c1 absolute
/// multiples of nr or the padded range end; ic/ic_end the same for mr/mc),
/// so any q composes the same register-tile grid. The MAF-adaptive sparse
/// dispatch lives inside the shared tile bodies and depends only on the
/// (sliver, sliver) pair — never on chunk geometry — so its counters are
/// chunking-invariant too.
struct TileChunk {
  std::size_t ic = 0;
  std::size_t ic_end = 0;
  std::size_t c0 = 0;
  std::size_t c1 = 0;
};

/// The cache-tile grid of one driver call, snapped to the packed sliver
/// grid: leading partial slivers are handled like trailing edge tiles
/// (compute the whole sliver, clamp to the range when emitting).
struct ChunkGrid {
  std::size_t ic0 = 0;        ///< first row block start (mr-aligned)
  std::size_t i_end = 0;      ///< row range end
  std::size_t i_pad_end = 0;  ///< row range end rounded up to mr
  std::size_t jc0 = 0;        ///< first column panel start (nr-aligned)
  std::size_t j_end = 0;
  std::size_t j_pad_end = 0;
  std::size_t mc = 0;
  std::size_t nc = 0;
  std::size_t nr = 0;
  bool lower = false;  ///< symmetric: enumerate only chunks touching j <= i
};

ChunkGrid make_grid(const GemmPlan& plan, std::size_t a_begin,
                    std::size_t a_end, std::size_t b_begin, std::size_t b_end,
                    bool lower) {
  ChunkGrid g;
  g.ic0 = a_begin / plan.mr * plan.mr;
  g.i_end = a_end;
  g.i_pad_end = (a_end + plan.mr - 1) / plan.mr * plan.mr;
  g.jc0 = b_begin / plan.nr * plan.nr;
  g.j_end = b_end;
  g.j_pad_end = (b_end + plan.nr - 1) / plan.nr * plan.nr;
  g.mc = plan.mc;
  g.nc = plan.nc;
  g.nr = plan.nr;
  g.lower = lower;
  return g;
}

/// The one chunk enumerator: jc (nc panels) -> ic (mc row blocks) -> q-wide
/// column slices. resolve_plan rounds mc/nc to register-tile multiples, so
/// every boundary stays sliver-aligned.
template <typename Fn>
void for_each_chunk(const ChunkGrid& g, std::size_t q, const Fn& fn) {
  for (std::size_t jc = g.jc0; jc < g.j_end; jc += g.nc) {
    const std::size_t jc_end = std::min(jc + g.nc, g.j_pad_end);
    // Symmetric: start at the row block holding row jc; the blocks above
    // it lie wholly above the diagonal.
    std::size_t ic = g.ic0;
    if (g.lower && jc > g.ic0) ic += (jc - g.ic0) / g.mc * g.mc;
    for (; ic < g.i_end; ic += g.mc) {
      const std::size_t ic_end = std::min(ic + g.mc, g.i_pad_end);
      for (std::size_t c0 = jc; c0 < jc_end; c0 += q) {
        // A chunk wholly above the diagonal holds only register tiles the
        // SYRK body would skip (ir + mr <= ic_end <= c0 <= jr), and so does
        // every later chunk of this row block.
        if (g.lower && ic_end <= c0) break;
        fn(TileChunk{ic, ic_end, c0, std::min(c0 + q, jc_end)});
      }
    }
  }
}

/// Column quantum for chunking a jc panel across a team: wide enough to
/// amortize the deque traffic and keep B slivers streaming, narrow enough
/// that every panel yields ~8 chunks per team member to steal from. Always
/// a multiple of nr so chunk boundaries stay on the packed sliver grid.
std::size_t chunk_quantum(std::size_t total_cols, std::size_t nr,
                          std::size_t nc, std::size_t team) {
  const std::size_t target = total_cols / (team * 8);
  std::size_t q = std::max(nr, (target + nr - 1) / nr * nr);
  q = std::min(q, std::min(nc, (total_cols + nr - 1) / nr * nr));
  return std::max<std::size_t>(q, nr);
}

/// Drain the team's chunk deques from member `t`'s seat: LIFO-pop the own
/// block (ascending chunk order — the seed pushed it reversed), then sweep
/// the other members FIFO-stealing from the far end of their blocks until a
/// full pass over every deque finds nothing left. Chunks are never
/// re-enqueued, so an all-empty sweep is a sound termination proof.
template <typename RunChunk>
void drain_chunks(std::deque<WorkStealDeque<std::int64_t>>& deques,
                  std::size_t t, const RunChunk& run) {
  std::int64_t idx = 0;
  while (deques[t].pop(idx)) {
    run(idx);
  }
  const std::size_t team = deques.size();
  for (;;) {
    for (std::size_t s = 1; s < team; ++s) {
      WorkStealDeque<std::int64_t>& victim = deques[(t + s) % team];
      while (!victim.empty_hint()) {
        if (victim.steal(idx)) {
          metrics::pipeline().nest_steals.inc();
          run(idx);
        } else {
          // Lost the CAS race (or the owner drained it under us): someone
          // else made progress, so spinning here cannot livelock.
          metrics::pipeline().nest_failed_steals.inc();
        }
      }
    }
    bool all_empty = true;
    for (std::size_t s = 1; s < team && all_empty; ++s) {
      all_empty = deques[(t + s) % team].empty_hint();
    }
    if (all_empty) break;
  }
}

/// Seed per-member deques with contiguous blocks of [0, chunks) and run the
/// team on global_pool(). Blocks are pushed in reverse so the owner pops in
/// ascending order (jc-major locality) while thieves bite off the far end.
/// Each member calls `member(drain)` once; `drain(run_chunk)` runs that
/// member's share of the chunks.
template <typename Member>
void run_chunk_team(std::size_t chunks, std::size_t team,
                    const Member& member) {
  const std::vector<Range> blocks = split_uniform(chunks, team);
  std::size_t max_block = 0;
  for (const Range& r : blocks) max_block = std::max(max_block, r.size());
  std::deque<WorkStealDeque<std::int64_t>> deques;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    deques.emplace_back(max_block);
    for (std::size_t i = blocks[t].end; i > blocks[t].begin; --i) {
      deques.back().push(static_cast<std::int64_t>(i - 1));
    }
  }
  // The pre-launch pushes happen-before every task body: run_tasks
  // publishes through the pool's own release/acquire deque+cv protocol.
  global_pool().run_tasks(blocks.size(), [&](std::size_t t) {
    member([&](const auto& run_chunk) { drain_chunks(deques, t, run_chunk); });
  });
}

/// Run the nest over `g`. `run_tile(chunk, scratch, scratch_ld)` is the
/// shape's tile body; each team member owns one scratch of mc x q counts.
template <typename RunTile>
void run_nest(const ChunkGrid& g, unsigned threads, const RunTile& run_tile) {
  if (threads == 0) threads = default_thread_count();
  const std::size_t width = g.j_pad_end - g.jc0;
  const std::size_t scratch_rows = std::min(g.mc, g.i_pad_end - g.ic0);
  if (threads > 1) {
    const std::size_t q = chunk_quantum(width, g.nr, g.nc, threads);
    std::vector<TileChunk> chunks;
    for_each_chunk(g, q, [&](const TileChunk& ch) { chunks.push_back(ch); });
    if (chunks.size() > 1) {
      run_chunk_team(
          chunks.size(), std::min<std::size_t>(threads, chunks.size()),
          [&](const auto& drain) {
            AlignedBuffer<std::uint32_t> scratch(scratch_rows * q);
            drain([&](std::int64_t idx) {
              run_tile(chunks[static_cast<std::size_t>(idx)], scratch.data(),
                       q);
            });
          });
      return;
    }
  }
  // Team of one: whole cache tiles, each run as soon as it is enumerated.
  const std::size_t q = std::min(g.nc, width);
  AlignedBuffer<std::uint32_t> scratch(scratch_rows * q);
  for_each_chunk(g, q, [&](const TileChunk& ch) {
    run_tile(ch, scratch.data(), q);
  });
}

}  // namespace

void gemm_count_fused(const PackedBitMatrix& a, std::size_t a_begin,
                      std::size_t a_end, const PackedBitMatrix& b,
                      std::size_t b_begin, std::size_t b_end,
                      const CountTileSink& sink, unsigned threads) {
  LDLA_EXPECT(a_begin <= a_end && a_end <= a.snps(),
              "A row range out of range");
  LDLA_EXPECT(b_begin <= b_end && b_end <= b.snps(),
              "B row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (a_begin == a_end || b_begin == b_end) return;
  LDLA_EXPECT(a.has_a_side(), "A operand was packed without an A side");
  LDLA_EXPECT(b.has_b_side(), "B operand was packed without a B side");
  const GemmPlan& plan = a.plan();
  const GemmPlan& bplan = b.plan();
  LDLA_EXPECT(plan.arch == bplan.arch && plan.mr == bplan.mr &&
                  plan.nr == bplan.nr && plan.ku == bplan.ku &&
                  a.kc_words() == b.kc_words() &&
                  a.words_per_snp() == b.words_per_snp(),
              "packed operands were built for incompatible plans");

  const KernelInfo& kern = kernel_for_plan(plan);
  run_nest(make_grid(plan, a_begin, a_end, b_begin, b_end, /*lower=*/false),
           threads,
           [&](const TileChunk& ch, std::uint32_t* scratch, std::size_t ld) {
             detail::fused_gemm_tile(a, b, kern, plan.mr, plan.nr, ch.ic,
                                     ch.ic_end, ch.c0, ch.c1, a_begin, a_end,
                                     b_begin, b_end, scratch, ld, sink);
           });
}

void syrk_count_fused(const PackedBitMatrix& a, std::size_t row_begin,
                      std::size_t row_end, const CountTileSink& sink,
                      unsigned threads) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (row_begin == row_end) return;
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");

  const GemmPlan& plan = a.plan();
  const KernelInfo& kern = kernel_for_plan(plan);
  run_nest(
      make_grid(plan, row_begin, row_end, row_begin, row_end, /*lower=*/true),
      threads,
      [&](const TileChunk& ch, std::uint32_t* scratch, std::size_t ld) {
        detail::fused_syrk_tile(a, kern, plan.mr, plan.nr, ch.ic, ch.ic_end,
                                ch.c0, ch.c1, row_begin, row_end, scratch, ld,
                                sink);
      });
}

}  // namespace ldla

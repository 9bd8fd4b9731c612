// ldla_perfbench — the in-process half of the repository benchmark.
//
// perfbench/run.py times the user-facing commands (ldla_cli compute,
// ldla_cli sweep, ldla_ingest) as separate processes. This helper does the
// parts that need the library in-process:
//
//   gen WORKLOAD SEED DIR
//       Write the seeded input DIR/input.ms and DIR/spec.json (sizes, op
//       parameters, host facts and the resolved GEMM plan).
//   stream STORE TILES THREADS
//       The ooc_stream_rare op, which has no command: ShardStore::open,
//       ld_matrix_stream, every tile into one TileStoreWriter, close().
//   check WORKLOAD SEED INPUT OUTPUT...
//       Oracle check of op answers. Prints one line per OUTPUT, "ok" or
//       "FAIL <reason>"; exits 0 only when every OUTPUT passed.
//   trace WORKLOAD SEED DIR
//       Traced run: the op's public calls under the benchmark's own spans,
//       then the per-layer diagnostics and ceilings. Spans go to
//       DIR/spans.json; the per-layer ledger is the last stdout line.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "ldla.hpp"
#include "util/cpu_info.hpp"
#include "util/peak.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace ldla;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

/// Sizes and op parameters of one workload at one seed. run.py reads these
/// back from spec.json, so this table is the single place they are set.
struct Spec {
  std::string name;
  std::uint64_t data_seed = 0;
  std::size_t snps = 0;
  std::size_t samples = 0;
  unsigned threads = 1;        ///< op thread count (ingest too)
  std::size_t top = 10;        ///< allpairs_topk: --top
  std::size_t rows_per_shard = 0;  ///< ooc_stream_rare: ingest shard rows
  double sweep_center = 0.5;   ///< sweep_omega: planted sweep
  double sweep_width = 0.1;    ///< half-width of the swept region
  std::size_t grid = 0;        ///< sweep_omega: --grid
  std::size_t window = 0;      ///< sweep_omega: --window
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_from(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

Spec spec_for(const std::string& workload, std::uint64_t seed) {
  Spec s;
  s.name = workload;
  std::uint64_t salt = 0;
  for (const char c : workload) salt = salt * 131 + static_cast<unsigned char>(c);
  s.data_seed = splitmix64(seed ^ salt);
  if (workload == "allpairs_topk") {
    s.snps = 8000;
    s.samples = 4000;
    s.threads = 4;
  } else if (workload == "ooc_stream_rare") {
    s.snps = 8000;
    s.samples = 2048;
    s.threads = 4;
    s.rows_per_shard = 250;  // 32 shards: store >= 4x the quarter budget
  } else if (workload == "sweep_omega") {
    s.snps = 20000;
    s.samples = 1000;
    s.threads = 1;
    s.sweep_center = 0.3 + 0.4 * unit_from(s.data_seed + 1);
    s.sweep_width = 0.1;
    s.grid = 3000;
    s.window = 100;
  } else {
    throw Error("unknown workload '" + workload + "'");
  }
  return s;
}

struct Dataset {
  BitMatrix g;
  std::vector<double> positions;
};

Dataset simulate(const Spec& s) {
  Dataset d;
  if (s.name == "allpairs_topk") {
    WrightFisherParams p;
    p.n_snps = s.snps;
    p.n_samples = s.samples;
    p.seed = s.data_seed;
    SimulatedDataset sim = simulate_wright_fisher(p);
    d.g = std::move(sim.genotypes);
    d.positions = std::move(sim.positions);
  } else if (s.name == "ooc_stream_rare") {
    MafSpectrumParams p;
    p.n_snps = s.snps;
    p.n_samples = s.samples;
    p.rare_fraction = 0.8;
    p.seed = s.data_seed;
    d.g = simulate_maf_spectrum(p);
    d.positions.resize(s.snps);
    for (std::size_t i = 0; i < s.snps; ++i) {
      d.positions[i] =
          (static_cast<double>(i) + 0.5) / static_cast<double>(s.snps);
    }
  } else {
    SweepParams p;
    p.base.n_snps = s.snps;
    p.base.n_samples = s.samples;
    p.base.seed = s.data_seed;
    p.sweep_center = s.sweep_center;
    p.sweep_width = s.sweep_width;
    SimulatedDataset sim = simulate_sweep(p);
    d.g = std::move(sim.genotypes);
    d.positions = std::move(sim.positions);
  }
  return d;
}

Dataset load(const std::string& path) {
  auto reps = parse_ms_file(path);
  Dataset d;
  d.g = std::move(reps.front().genotypes);
  d.positions = std::move(reps.front().positions);
  return d;
}

// ---------------------------------------------------------------------------
// Small utilities

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A "Name: value kB" field of a /proc file (VmRSS, VmHWM, MemTotal), in
/// KiB; 0 when absent.
std::uint64_t proc_kib(const char* path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t status_kib(const char* field) {
  return proc_kib("/proc/self/status", field);
}

/// Rise of the process's peak RSS (VmHWM) over its RSS at construction,
/// in MiB. Construction resets VmHWM to the current RSS
/// (/proc/self/clear_refs), so mib() is the peak of the calls in between.
class HwmRise {
 public:
  HwmRise() : rss_kib_(status_kib("VmRSS")) {
    std::ofstream("/proc/self/clear_refs") << "5";
  }
  [[nodiscard]] double mib() const {
    const std::uint64_t hwm = status_kib("VmHWM");
    return hwm > rss_kib_ ? static_cast<double>(hwm - rss_kib_) / 1024.0 : 0.0;
  }

 private:
  std::uint64_t rss_kib_;
};

/// Order-independent checksum of a stat tile (bench_stream's formula): each
/// value's bit pattern mixed with its global coordinates, XOR-folded, so
/// two drivers that emit the same values at the same (i, j) agree exactly
/// whatever their tile geometry.
std::uint64_t xor_tile(const LdTile& t) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    for (std::size_t j = 0; j < t.cols; ++j) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &t.values[i * t.ld + j], 8);
      acc ^= bits + 0x9e3779b97f4a7c15ULL * (t.row_begin + i) +
             0xc2b2ae3d27d4eb4fULL * (t.col_begin + j);
    }
  }
  return acc;
}

std::uint64_t cells_of(const LdTile& t) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    const std::size_t gi = t.row_begin + i;
    if (gi < t.col_begin) continue;
    c += std::min(t.cols, gi - t.col_begin + 1);
  }
  return c;
}

/// Same-value comparison with NaN equal to NaN and a relative tolerance.
bool close_to(double got, double want, double rel) {
  if (std::isnan(want)) return std::isnan(got);
  if (std::isinf(want)) return got == want;
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

std::size_t stream_budget(const ShardStore& store) {
  return std::max(4 * store.max_shard_bytes(),
                  store.total_payload_bytes() / 4);
}

// ---------------------------------------------------------------------------
// gen

void write_spec(const std::string& path, const Spec& s, const Dataset& d) {
  GemmConfig cfg;
  const GemmPlan plan = resolve_plan(cfg, d.g.words_per_snp());
  std::ostringstream o;
  o << "{\"workload\": " << quoted(s.name) << ", \"snps\": " << d.g.snps()
    << ", \"samples\": " << d.g.samples()
    << ", \"words_per_snp\": " << d.g.words_per_snp()
    << ", \"threads\": " << s.threads << ", \"top\": " << s.top
    << ", \"rows_per_shard\": " << s.rows_per_shard
    << ", \"sweep_center\": " << num(s.sweep_center)
    << ", \"sweep_width\": " << num(s.sweep_width) << ", \"grid\": " << s.grid
    << ", \"window\": " << s.window << ", \"host\": {\"cpu_summary\": "
    << quoted(cpu_summary())
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"llc_bytes\": " << cpu_info().cache.l3
    << ", \"ram_bytes\": " << proc_kib("/proc/meminfo", "MemTotal") * 1024
    << "}, \"plan\": {\"arch\": " << quoted(kernel_arch_name(plan.arch))
    << ", \"mr\": " << plan.mr << ", \"nr\": " << plan.nr
    << ", \"ku\": " << plan.ku << ", \"kc_words\": " << plan.kc_words
    << ", \"mc\": " << plan.mc << ", \"nc\": " << plan.nc
    << ", \"sparse_threshold\": " << plan.sparse_threshold << "}}\n";
  std::ofstream out(path);
  out << o.str();
  if (!out) throw Error("cannot write " + path);
}

int cmd_gen(const std::string& workload, std::uint64_t seed,
            const std::string& dir) {
  const Spec s = spec_for(workload, seed);
  Dataset d = simulate(s);
  MsReplicate rep;
  rep.positions = d.positions;
  rep.genotypes = d.g.clone();
  write_ms_file(dir + "/input.ms", rep);
  write_spec(dir + "/spec.json", s, d);
  return 0;
}

// ---------------------------------------------------------------------------
// The streaming op

/// Counters of one streamed write: time inside add()/close() and time the
/// visitors waited for the writer lock.
struct WriteStats {
  double write_s = 0.0;
  double lock_wait_s = 0.0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::size_t tiles = 0;
};

/// ld_matrix_stream into one TileStoreWriter. add() is not thread-safe and
/// the stream calls the visitor from every worker, so a lock serializes it.
WriteStats stream_to_tiles(ShardStore& store, const std::string& tiles_path,
                           unsigned threads) {
  WriteStats ws;
  StreamOptions opts;
  opts.threads = threads;
  opts.cache_bytes = stream_budget(store);
  TileStoreWriter writer(tiles_path, opts.stat, store.snps(), store.snps(),
                         TileCodec::kXor);
  std::mutex mu;
  ld_matrix_stream(
      store,
      [&](const LdTile& t) {
        const auto t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        const auto t1 = Clock::now();
        writer.add(t);
        ws.lock_wait_s += std::chrono::duration<double>(t1 - t0).count();
        ws.write_s += seconds_since(t1);
      },
      opts);
  const auto t0 = Clock::now();
  writer.close();
  ws.write_s += seconds_since(t0);
  ws.payload_bytes = writer.payload_bytes();
  ws.raw_bytes = writer.raw_bytes();
  ws.tiles = writer.tiles();
  return ws;
}

int cmd_stream(const std::string& store_path, const std::string& tiles_path,
               unsigned threads) {
  ShardStore store = ShardStore::open(store_path);
  const WriteStats ws = stream_to_tiles(store, tiles_path, threads);
  std::printf("streamed %zu tiles, %" PRIu64 " payload bytes of %" PRIu64
              " raw\n",
              ws.tiles, ws.payload_bytes, ws.raw_bytes);
  return 0;
}

// ---------------------------------------------------------------------------
// Oracles

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream o;
  o << in.rdbuf();
  return o.str();
}

std::string fmt6(double v) {
  std::ostringstream o;
  o << std::setprecision(6) << v;
  return o.str();
}

/// Reference top-k: a bounded heap over ld_stat_scan, ordered like
/// top_pairs (value descending, then i, then j), strict lower triangle.
std::vector<RankedPair> reference_top(const BitMatrix& g, std::size_t k) {
  const auto better = [](const RankedPair& a, const RankedPair& b) {
    if (a.value != b.value) return a.value > b.value;
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  };
  // The heap's top is the worst kept pair.
  std::priority_queue<RankedPair, std::vector<RankedPair>, decltype(better)>
      heap(better);
  ld_stat_scan(g, [&](const LdTile& t) {
    for (std::size_t r = 0; r < t.rows; ++r) {
      const std::size_t i = t.row_begin + r;
      for (std::size_t c = 0; c < t.cols; ++c) {
        const std::size_t j = t.col_begin + c;
        if (j >= i) break;
        const double v = t.at(r, c);
        if (!std::isfinite(v)) continue;
        const RankedPair p{i, j, v};
        if (heap.size() < k) {
          heap.push(p);
        } else if (better(p, heap.top())) {
          heap.pop();
          heap.push(p);
        }
      }
    }
  });
  std::vector<RankedPair> out;
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double naive_value(const BitMatrix& g, std::size_t i, std::size_t j) {
  return ld_value(LdStatistic::kRSquared, g.derived_count(i),
                  g.derived_count(j), naive_pair_count(g, i, g, j),
                  g.samples());
}

/// Checks one `ldla_cli compute --top k` stdout against the reference.
std::string check_topk_output(const std::string& text, const BitMatrix& g,
                              const std::vector<RankedPair>& want) {
  std::istringstream in(text);
  std::string line;
  bool in_table = false;
  std::size_t row = 0;
  while (std::getline(in, line)) {
    if (line.rfind("rank\t", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table || line.empty()) continue;
    std::istringstream ls(line);
    std::size_t rank = 0, i = 0, j = 0;
    std::string value;
    if (!(ls >> rank >> i >> j >> value)) return "unparsable row: " + line;
    if (row >= want.size()) return "more rows than the reference";
    if (rank != row + 1) return "rank out of order at row " + line;
    if (i != want[row].i || j != want[row].j) {
      return "row " + std::to_string(rank) + " is (" + std::to_string(i) +
             ", " + std::to_string(j) + "), reference (" +
             std::to_string(want[row].i) + ", " +
             std::to_string(want[row].j) + ")";
    }
    if (value != fmt6(want[row].value)) {
      return "row " + std::to_string(rank) + " value " + value +
             " != reference " + fmt6(want[row].value);
    }
    if (i >= g.snps() || value != fmt6(naive_value(g, i, j))) {
      return "row " + std::to_string(rank) + " value " + value +
             " != naive count value";
    }
    ++row;
  }
  if (row != want.size()) {
    return "printed " + std::to_string(row) + " rows, reference has " +
           std::to_string(want.size());
  }
  return "";
}

/// XOR checksum and cell count of an in-RAM ld_stat_scan.
std::pair<std::uint64_t, std::uint64_t> scan_checksum(const BitMatrix& g) {
  std::uint64_t sum = 0, cells = 0;
  ld_stat_scan(g, [&](const LdTile& t) {
    sum ^= xor_tile(t);
    cells += cells_of(t);
  });
  return {sum, cells};
}

std::string check_tile_store(const std::string& path, const BitMatrix& g,
                             std::pair<std::uint64_t, std::uint64_t> want,
                             std::uint64_t seed) {
  TileStoreReader reader(path);
  if (reader.matrix_rows() != g.snps() || reader.matrix_cols() != g.snps()) {
    return "tile store shape differs from the panel";
  }
  std::uint64_t sum = 0, cells = 0;
  for (std::size_t t = 0; t < reader.tiles(); ++t) {
    const TileData td = reader.read_tile(t);
    LdTile view;
    view.row_begin = td.rec.row_begin;
    view.col_begin = td.rec.col_begin;
    view.rows = td.rec.rows;
    view.cols = td.rec.cols;
    view.values = td.values.data();
    view.ld = td.rec.cols;
    sum ^= xor_tile(view);
    cells += td.rec.rows * td.rec.cols;
  }
  if (sum != want.first) return "tile checksum differs from ld_stat_scan";
  if (cells < want.second) return "tile store is missing cells";
  const std::size_t n = g.snps();
  for (std::uint64_t s = 0; s < 24; ++s) {
    std::size_t i = splitmix64(seed * 977 + s) % n;
    std::size_t j = splitmix64(seed * 991 + s) % n;
    if (i < j) std::swap(i, j);
    double got = 0.0;
    if (!reader.find(i, j, &got)) {
      return "no tile holds (" + std::to_string(i) + ", " +
             std::to_string(j) + ")";
    }
    if (!close_to(got, naive_value(g, i, j), 1e-12)) {
      return "(" + std::to_string(i) + ", " + std::to_string(j) +
             ") differs from the naive count value";
    }
  }
  return "";
}

/// omega_max from its definition (tests/test_omega.cpp), every split in
/// turn: moving SNP m from the right group to the left changes each group
/// sum by m's row of r^2, so all w splits cost O(w^2) rather than O(w^3).
double omega_max_reference(const LdMatrix& r2) {
  const std::size_t w = r2.rows();
  const auto val = [&](std::size_t i, std::size_t j) {
    const double v = r2(i, j);
    return std::isfinite(v) ? v : 0.0;
  };
  double sum_l = 0, sum_r = 0, cross = 0;
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) sum_r += val(i, j);
  }
  double best = 0.0;
  for (std::size_t l = 1; l < w; ++l) {
    const std::size_t m = l - 1;  // joins the left group
    double to_left = 0, to_right = 0;
    for (std::size_t i = 0; i < m; ++i) to_left += val(i, m);
    for (std::size_t j = m + 1; j < w; ++j) to_right += val(m, j);
    sum_l += to_left;
    cross += to_right - to_left;
    sum_r -= to_right;
    const double ld = static_cast<double>(l);
    const double rd = static_cast<double>(w - l);
    const double n_within = ld * (ld - 1) / 2 + rd * (rd - 1) / 2;
    const double n_cross = ld * rd;
    double omega = 0.0;
    if (n_within > 0 && cross > 0) {
      omega = ((sum_l + sum_r) / n_within) / (cross / n_cross);
    } else if (n_within > 0 && sum_l + sum_r > 0) {
      omega = std::numeric_limits<double>::infinity();
    }
    best = std::max(best, omega);
  }
  return best;
}

/// Reference omega_max at grid point `gp`: the window the scan documents
/// (window SNPs each side of the first SNP at or after the grid position,
/// monomorphic SNPs dropped), r^2 from the OmegaPlus-style baseline.
double reference_omega(const Dataset& d, const BitMatrix& valid,
                       const Spec& s, std::size_t gp) {
  const double x =
      (static_cast<double>(gp) + 0.5) / static_cast<double>(s.grid);
  const std::size_t n = d.g.snps();
  const auto center = static_cast<std::size_t>(
      std::lower_bound(d.positions.begin(), d.positions.end(), x) -
      d.positions.begin());
  const std::size_t begin = center > s.window ? center - s.window : 0;
  const std::size_t end = std::min(n, center + s.window);
  std::vector<std::size_t> keep;
  for (std::size_t i = begin; i < end; ++i) {
    if (d.g.is_polymorphic(i)) keep.push_back(i);
  }
  LdMatrix r2(keep.size(), keep.size());
  for (std::size_t a = 0; a < keep.size(); ++a) {
    for (std::size_t b = 0; b < keep.size(); ++b) {
      r2(a, b) = omegaplus_like_r2_pair(d.g, valid, keep[a], keep[b]);
    }
  }
  return omega_max_reference(r2);
}

double parse_number(const std::string& s) {
  if (s == "inf") return std::numeric_limits<double>::infinity();
  return std::stod(s);
}

std::string check_sweep_output(const std::string& text, const Dataset& d,
                               const Spec& s, std::uint64_t seed) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<std::string, std::string>> rows;
  std::string peak_omega, peak_pos;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string a, b, c, e, f;
    if (line.rfind("peak omega ", 0) == 0) {
      ls >> a >> b >> peak_omega >> c >> peak_pos;
      continue;
    }
    if (!(ls >> a >> b) || (ls >> c)) continue;
    if (a.empty() || (!std::isdigit(static_cast<unsigned char>(a[0])))) {
      continue;
    }
    rows.emplace_back(a, b);
  }
  if (rows.size() != s.grid) {
    return "printed " + std::to_string(rows.size()) + " grid points, want " +
           std::to_string(s.grid);
  }
  if (peak_omega.empty()) return "no peak line";
  double best = -1.0;
  std::string best_text;
  for (std::size_t gp = 0; gp < rows.size(); ++gp) {
    char want_pos[32];
    std::snprintf(want_pos, sizeof want_pos, "%.4f",
                  (static_cast<double>(gp) + 0.5) /
                      static_cast<double>(s.grid));
    if (rows[gp].first != want_pos) {
      return "grid point " + std::to_string(gp) + " at " + rows[gp].first +
             ", want " + want_pos;
    }
    const double v = parse_number(rows[gp].second);
    if (v > best) {
      best = v;
      best_text = rows[gp].second;
    }
  }
  if (peak_omega != best_text) return "peak line is not the highest row";
  const BitMatrix valid = all_valid_mask(d.g);
  // Printed omega carries 3 decimals; beyond that the match is 1e-9.
  for (std::uint64_t k = 0; k < 12; ++k) {
    const std::size_t gp = splitmix64(seed * 7919 + k) % s.grid;
    const double want = reference_omega(d, valid, s, gp);
    const double got = parse_number(rows[gp].second);
    const bool ok = std::isinf(want)
                        ? got == want
                        : std::fabs(got - want) <= 5e-4 + 1e-9 * std::fabs(want);
    if (!ok) {
      return "omega at grid point " + std::to_string(gp) + " is " +
             rows[gp].second + ", reference " + num(want);
    }
  }
  const double pos = std::stod(peak_pos);
  if (std::fabs(pos - s.sweep_center) > s.sweep_width) {
    return "peak at " + peak_pos + " is outside the planted sweep " +
           num(s.sweep_center) + " +/- " + num(s.sweep_width);
  }
  return "";
}

int cmd_check(const std::string& workload, std::uint64_t seed,
              const std::string& input,
              const std::vector<std::string>& outputs) {
  const Spec s = spec_for(workload, seed);
  const Dataset d = load(input);
  bool all_ok = true;
  const auto report = [&](const std::string& why) {
    if (why.empty()) {
      std::printf("ok\n");
    } else {
      std::printf("FAIL %s\n", why.c_str());
      all_ok = false;
    }
  };
  if (workload == "allpairs_topk") {
    const std::vector<RankedPair> want = reference_top(d.g, s.top);
    for (const auto& out : outputs) {
      report(check_topk_output(read_file(out), d.g, want));
    }
  } else if (workload == "ooc_stream_rare") {
    const auto want = scan_checksum(d.g);
    for (const auto& out : outputs) {
      std::string why;
      try {
        why = check_tile_store(out, d.g, want, seed);
      } catch (const std::exception& e) {
        why = std::string("unreadable tile store: ") + e.what();
      }
      report(why);
    }
  } else {
    for (const auto& out : outputs) {
      report(check_sweep_output(read_file(out), d, s, seed));
    }
  }
  std::fflush(stdout);
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run

/// The benchmark's own spans, kept in memory and written when the run
/// ends. A span's parent is the innermost open span on the recording
/// thread; op 0 is set-up, op 1 the traced op, op 2 the diagnostics.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = 0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int op) {
    std::lock_guard<std::mutex> lock(mu_);
    Record r;
    r.name = name;
    r.start = std::chrono::duration<double>(Clock::now() - origin_).count();
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.op = op;
    records_.push_back(r);
    stack_.push_back(static_cast<int>(records_.size() - 1));
    return stack_.back();
  }

  double close(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    Record& r = records_[static_cast<std::size_t>(id)];
    r.end = std::chrono::duration<double>(Clock::now() - origin_).count();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return r.end - r.start;
  }

  [[nodiscard]] double duration(int id) const {
    const Record& r = records_[static_cast<std::size_t>(id)];
    return r.end - r.start;
  }

  /// Share of span `id` covered by the union of its children.
  [[nodiscard]] double child_coverage(int id) const {
    std::vector<std::pair<double, double>> iv;
    for (const Record& r : records_) {
      if (r.parent == id) iv.emplace_back(r.start, r.end);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double d = duration(id);
    return d > 0 ? covered / d : 0.0;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t k = 0; k < records_.size(); ++k) {
      const Record& r = records_[k];
      const double self = r.end - r.start - child_coverage(static_cast<int>(k)) *
                                                 (r.end - r.start);
      out << "  {\"id\": " << k << ", \"name\": " << quoted(r.name)
          << ", \"start_s\": " << num(r.start) << ", \"end_s\": " << num(r.end)
          << ", \"self_s\": " << num(self) << ", \"parent\": " << r.parent
          << ", \"op\": " << r.op << "}" << (k + 1 < records_.size() ? "," : "")
          << "\n";
    }
    out << "]\n";
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// One span over a scope.
class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name, int op)
      : log_(log), id_(log.open(name, op)) {}
  ~Scoped() {
    if (!closed_) log_.close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  double close() {
    closed_ = true;
    return log_.close(id_);
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
  bool closed_ = false;
};

/// The per-layer ledger: metric name -> (value, unit), plus notes.
struct Ledger {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& text) { notes.push_back(text); }
};

constexpr int kSetupOp = 0;
constexpr int kTracedOp = 1;
constexpr int kDiagnostic = 2;
constexpr std::size_t kSliceSnps = 8000;

trace::PhaseCounters counters_since(const trace::TraceSnapshot& before) {
  return trace::snapshot().since(before).counters;
}

/// Sequential-read and memcpy ceilings.
void measure_ceilings(Ledger& led, const std::string& store_path) {
  const std::size_t llc = cpu_info().cache.l3;
  const std::size_t bytes =
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  {
    AlignedBuffer<std::uint8_t> src(bytes), dst(bytes);
    std::memset(src.data(), 1, bytes);
    std::memset(dst.data(), 2, bytes);
    std::vector<double> times;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      std::memcpy(dst.data(), src.data(), bytes);
      times.push_back(seconds_since(t0));
    }
    std::sort(times.begin(), times.end());
    led.set("ceiling.memcpy_gb_per_s",
            static_cast<double>(bytes) / times[times.size() / 2] / 1e9,
            "GB/s");
    led.note("memcpy ceiling: median of 5 copies of " +
             std::to_string(bytes >> 20) + " MiB arrays; reported LLC " +
             std::to_string(llc >> 20) + " MiB");
  }
  {
    const int fd = ::open(store_path.c_str(), O_RDONLY);
    if (fd < 0) throw Error("cannot open " + store_path);
    std::vector<char> buf(std::size_t{4} << 20);
    std::uint64_t total = 0;
    const auto t0 = Clock::now();
    do {
      ::lseek(fd, 0, SEEK_SET);
      ssize_t got = 0;
      while ((got = ::read(fd, buf.data(), buf.size())) > 0) {
        total += static_cast<std::uint64_t>(got);
      }
    } while (seconds_since(t0) < 0.2);
    const double s = seconds_since(t0);
    const off_t file_bytes = ::lseek(fd, 0, SEEK_END);
    ::close(fd);
    led.set("ceiling.pagecache_gb_per_s", static_cast<double>(total) / s / 1e9,
            "GB/s");
    led.note("page-cache ceiling: repeated read() of the " +
             std::to_string(file_bytes >> 10) + " KiB warm store file");
  }
  const PeakEstimate& pk = peak_estimate();
  led.set("ceiling.peak_scalar_gtriples_per_s",
          pk.scalar_triples_per_sec / 1e9, "Gtriples/s");
  led.set("ceiling.peak_vector_gtriples_per_s",
          pk.vector_triples_per_sec / 1e9, "Gtriples/s");
}

/// Layers every workload measures on its own panel (or its leading
/// kSliceSnps SNPs): pack, counts-only kernel, epilogue, n^2 assembly,
/// top_pairs, 1-vs-4-thread scaling of ld_matrix_parallel.
void measure_matrix_layers(Ledger& led, SpanLog& log, const BitMatrix& full,
                           unsigned threads, bool on_op_path,
                           double op_matrix_s, double op_matrix_hwm,
                           double op_topk_s, double op_topk_hwm) {
  std::vector<std::size_t> rows(std::min(full.snps(), kSliceSnps));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const BitMatrix slice =
      rows.size() == full.snps() ? full.clone() : full.gather_rows(rows);
  const std::size_t n = slice.snps();
  led.note("kernel/epilogue/parallel diagnostics on " + std::to_string(n) +
           " SNPs x " + std::to_string(slice.samples()) + " samples");

  {  // gemm.pack at the workload's thread count
    const auto before = trace::snapshot();
    Scoped sp(log, "gemm.pack", kDiagnostic);
    const PackedBitMatrix packed =
        PackedBitMatrix::pack(full.view(), {}, PackSides::kBoth, threads);
    const double s = sp.close();
    const auto c = counters_since(before);
    led.set("gemm.pack.s", s, "s");
    led.set("gemm.pack.gb_per_s", static_cast<double>(c.bytes_packed) / s / 1e9,
            "GB/s");
  }

  double kernel_s = 0.0;
  {  // gemm.kernel: counts only, one thread
    const PackedBitMatrix packed = PackedBitMatrix::pack(slice.view());
    CountMatrix counts(n, n);
    const auto before = trace::snapshot();
    Scoped sp(log, "gemm.kernel", kDiagnostic);
    syrk_count_packed(packed, 0, n, counts.ref(), /*triangular_only=*/true);
    kernel_s = sp.close();
    const auto c = counters_since(before);
    const GemmPlan plan = resolve_plan({}, slice.words_per_snp());
    const bool vector_family =
        plan.arch == KernelArch::kAvx512 || plan.arch == KernelArch::kAvx512Wide;
    const PeakEstimate& pk = peak_estimate();
    const double peak =
        vector_family ? pk.vector_triples_per_sec : pk.scalar_triples_per_sec;
    const double rate = static_cast<double>(c.kernel_words) / kernel_s;
    led.set("gemm.kernel.s", kernel_s, "s");
    led.set("gemm.kernel.words", static_cast<double>(c.kernel_words), "count");
    led.set("gemm.kernel.gtriples_per_s", rate / 1e9, "Gtriples/s");
    led.set("gemm.kernel.frac_of_peak", peak > 0 ? rate / peak : 0.0, "ratio");
    led.note("kernel family " + kernel_arch_name(plan.arch) + " against the " +
             (vector_family ? "vector" : "scalar") + " peak");
  }

  {  // core.ld epilogue: fused stat scan minus the counts-only kernel
    Scoped sp(log, "core.ld.stat_scan", kDiagnostic);
    ld_stat_scan(slice, [](const LdTile&) {});
    const double s = sp.close();
    const double pairs = static_cast<double>(ld_pair_count(n));
    led.set("core.ld.epilogue_ns_per_pair",
            std::max(0.0, s - kernel_s) / pairs * 1e9, "ns");
  }

  double t1 = 0.0;
  {  // core.parallel: ld_matrix_parallel at 1 thread
    Scoped sp(log, "core.parallel.one_thread", kDiagnostic);
    const LdMatrix m = ld_matrix_parallel(slice, {}, 1);
    t1 = sp.close();
  }
  const auto before = trace::snapshot();
  double t4 = 0.0, hwm_mib = 0.0, topk_s = 0.0, topk_hwm = 0.0;
  {
    const HwmRise matrix_rise;
    Scoped sp(log, "core.ld.matrix_parallel", kDiagnostic);
    LdMatrix m = ld_matrix_parallel(slice, {}, 4);
    t4 = sp.close();
    hwm_mib = matrix_rise.mib();
    const HwmRise topk_rise;
    Scoped tk(log, "io.matrix_writer.top_pairs", kDiagnostic);
    const auto top = top_pairs(m, 10);
    topk_s = tk.close();
    topk_hwm = topk_rise.mib();
  }
  const auto c = counters_since(before);
  led.set("core.parallel.speedup", t1 / t4, "ratio");
  led.set("core.parallel.efficiency", t1 / t4 / 4.0, "ratio");
  led.set("core.parallel.steals", static_cast<double>(c.steals), "count");
  led.set("core.parallel.barrier_waits", static_cast<double>(c.barrier_waits),
          "count");
  if (on_op_path) {
    led.set("core.ld.matrix_s", op_matrix_s, "s");
    led.set("core.ld.matrix_hwm_mib", op_matrix_hwm, "MiB");
    led.set("io.matrix_writer.topk_s", op_topk_s, "s");
    led.set("io.matrix_writer.topk_hwm_mib", op_topk_hwm, "MiB");
  } else {
    led.set("core.ld.matrix_s", t4, "s");
    led.set("core.ld.matrix_hwm_mib", hwm_mib, "MiB");
    led.set("io.matrix_writer.topk_s", topk_s, "s");
    led.set("io.matrix_writer.topk_hwm_mib", topk_hwm, "MiB");
    led.note("core.ld.matrix_* and io.matrix_writer.*: no n^2 matrix on this "
             "op's path; measured on the diagnostic slice");
  }
}

void set_sparse(Ledger& led, const trace::PhaseCounters& c) {
  const double tiles = static_cast<double>(c.sparse_ll_tiles + c.sparse_ld_tiles);
  const double hybrid = tiles + static_cast<double>(c.dense_fallback_tiles);
  led.set("gemm.sparse.tiles", tiles, "count");
  led.set("gemm.sparse.dense_fallback_ratio",
          hybrid > 0 ? static_cast<double>(c.dense_fallback_tiles) / hybrid : 0.0,
          "ratio");
}

/// Tile-store metrics of one streamed write, and the shard-store counters
/// of the stream that fed it.
void set_write_metrics(Ledger& led, const WriteStats& ws,
                       const trace::PhaseCounters& c) {
  led.set("io.tile_store.write_s", ws.write_s, "s");
  led.set("io.tile_store.lock_wait_s", ws.lock_wait_s, "s");
  led.set("io.tile_store.write_mb_per_s",
          static_cast<double>(ws.raw_bytes) / ws.write_s / 1e6, "MB/s");
  led.set("io.tile_store.ratio",
          static_cast<double>(ws.payload_bytes) /
              static_cast<double>(ws.raw_bytes),
          "ratio");
  led.set("io.shard_store.bytes_read", static_cast<double>(c.io_bytes_read),
          "count");
  const double acq = static_cast<double>(c.prefetch_hits + c.prefetch_stalls);
  led.set("io.shard_store.prefetch_hit_ratio",
          acq > 0 ? static_cast<double>(c.prefetch_hits) / acq : 0.0, "ratio");
}

/// Off-path shard/tile/stream layers: a store of the panel's first 4000
/// SNPs in 32 shards, ingested at `threads`.
void ingest_slice_store(Ledger& led, SpanLog& log, const BitMatrix& g,
                        const std::string& path, unsigned threads) {
  std::vector<std::size_t> rows(std::min(g.snps(), std::size_t{4000}));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const BitMatrix slice = g.gather_rows(rows);
  Scoped sp(log, "io.shard_store.ingest", kDiagnostic);
  write_shard_store(path, slice.view(), {}, rows.size() / 32, threads);
  led.set("io.shard_store.ingest_s", sp.close(), "s");
  led.note("shard/tile/stream layers: not on this op's path; measured on a "
           "store of the first " + std::to_string(rows.size()) + " SNPs");
}

/// Shard-store read speed and the no-writer stream on the store at `path`;
/// also the tile-store write unless the op already measured it.
void measure_store_layers(Ledger& led, SpanLog& log, const std::string& path,
                          const std::string& tiles_path, unsigned threads,
                          bool op_measured) {
  ShardStore store = ShardStore::open(path);
  {  // shard(i) + release(i) over every shard
    Scoped sp(log, "io.shard_store.read", kDiagnostic);
    for (std::size_t i = 0; i < store.shards(); ++i) {
      (void)store.shard(i);
      store.release(i);
    }
    const double s = sp.close();
    led.set("io.shard_store.read_gb_per_s",
            static_cast<double>(store.total_payload_bytes()) / s / 1e9, "GB/s");
  }
  // The visitor does a consumer's per-value work; the value itself is
  // checked on the op's answer, not here.
  std::uint64_t checksum = 0;
  {  // core.ld_stream: the op's options, checksum visitor, no writer
    StreamOptions opts;
    opts.threads = threads;
    opts.cache_bytes = stream_budget(store);
    std::mutex mu;
    Scoped sp(log, "core.ld_stream.no_writer", kDiagnostic);
    ld_matrix_stream(
        store,
        [&](const LdTile& t) {
          const std::uint64_t x = xor_tile(t);
          std::lock_guard<std::mutex> lock(mu);
          checksum ^= x;
        },
        opts);
    led.set("core.ld_stream.compute_s", sp.close(), "s");
  }
  if (!op_measured) {
    const auto before = trace::snapshot();
    Scoped sp(log, "io.tile_store.stream", kDiagnostic);
    const WriteStats ws = stream_to_tiles(store, tiles_path, threads);
    sp.close();
    set_write_metrics(led, ws, counters_since(before));
    std::remove(tiles_path.c_str());
  }
}

void measure_omega(Ledger& led, SpanLog& log, const Dataset& d,
                   std::size_t grid, std::size_t window, bool on_op_path,
                   double op_scan_s, const trace::TraceSnapshot* op_phases) {
  double scan_s = op_scan_s;
  trace::TraceSnapshot phases;
  if (on_op_path) {
    phases = *op_phases;
  } else {
    SweepScanParams p;
    p.grid_points = grid;
    p.window_snps = window;
    const auto before = trace::snapshot();
    Scoped sp(log, "omega.scan", kDiagnostic);
    const auto scan = omega_scan(d.g, d.positions, p);
    scan_s = sp.close();
    phases = trace::snapshot().since(before);
    led.note("omega: not on this op's path; omega_scan diagnostic with grid " +
             std::to_string(grid) + ", window " + std::to_string(window));
  }
  led.set("omega.scan_s", scan_s, "s");
  led.set("omega.windows_per_s", static_cast<double>(grid) / scan_s, "1/s");
  led.set("omega.kernel_share", phases.phase_seconds(trace::Phase::kKernel) /
                                    scan_s,
          "ratio");
}

int cmd_trace(const std::string& workload, std::uint64_t seed,
              const std::string& dir) {
  const Spec s = spec_for(workload, seed);
  const std::string input = dir + "/input.ms";
  const double input_mb =
      static_cast<double>(read_file(input).size()) / 1e6;  // warms the cache
  SpanLog log(Clock::now());
  Ledger led;
  const auto parse_metrics = [&](double parse_s) {
    led.set("io.ms_format.parse_s", parse_s, "s");
    led.set("io.ms_format.parse_mb_per_s", input_mb / parse_s, "MB/s");
  };
  const std::string store_path = dir + "/trace.ldshard";
  const std::string tiles_path = dir + "/trace.ldtile";
  double op_wall = 0.0, coverage = 0.0;
  // The traced op's answer, checked by run.py like any op's.
  std::ostringstream answer;
  const std::string answer_tiles = dir + "/trace_answer.ldtile";

  if (workload == "allpairs_topk") {
    // cmd_compute's calls: parse_ms_file -> ld_matrix_parallel -> top_pairs
    // -> write_top_pairs.
    Dataset d;
    double matrix_s = 0, matrix_hwm = 0, topk_s = 0, topk_hwm = 0;
    trace::PhaseCounters op_counters;
    {
      const auto before = trace::snapshot();
      Scoped op(log, "op", kTracedOp);
      {
        Scoped sp(log, "io.ms_format", kTracedOp);
        d = load(input);
        parse_metrics(sp.close());
      }
      LdMatrix ld;
      {
        const HwmRise rise;
        Scoped sp(log, "core.ld", kTracedOp);
        ld = ld_matrix_parallel(d.g, {}, s.threads);
        matrix_s = sp.close();
        matrix_hwm = rise.mib();
      }
      {
        const HwmRise rise;
        Scoped sp(log, "io.matrix_writer", kTracedOp);
        const auto top = top_pairs(ld, s.top);
        write_top_pairs(answer, top, ld_statistic_name(LdStatistic::kRSquared));
        topk_s = sp.close();
        topk_hwm = rise.mib();
      }
      {
        Scoped sp(log, "core.ld.free", kTracedOp);
        ld = LdMatrix();
      }
      op_wall = op.close();
      coverage = log.child_coverage(op.id());
      op_counters = counters_since(before);
    }
    set_sparse(led, op_counters);
    measure_matrix_layers(led, log, d.g, s.threads, true, matrix_s, matrix_hwm,
                          topk_s, topk_hwm);
    ingest_slice_store(led, log, d.g, store_path, s.threads);
    measure_store_layers(led, log, store_path, tiles_path, s.threads, false);
    measure_omega(led, log, d, 500, 100, false, 0.0, nullptr);
  } else if (workload == "ooc_stream_rare") {
    Dataset d;
    {  // set-up, as ldla_ingest runs it
      Scoped setup(log, "setup", kSetupOp);
      {
        Scoped sp(log, "io.ms_format", kSetupOp);
        d = load(input);
        parse_metrics(sp.close());
      }
      Scoped sp(log, "io.shard_store.ingest", kSetupOp);
      write_shard_store(store_path, d.g.view(), {}, s.rows_per_shard,
                        s.threads);
      led.set("io.shard_store.ingest_s", sp.close(), "s");
    }
    trace::PhaseCounters op_counters;
    WriteStats ws;
    {
      const auto before = trace::snapshot();
      Scoped op(log, "op", kTracedOp);
      ShardStore store;
      {
        Scoped sp(log, "io.shard_store.open", kTracedOp);
        store = ShardStore::open(store_path);
      }
      {
        // Stream and writer share the span: add() runs inside the
        // stream's visitor; its own time is reported as io.tile_store.
        Scoped sp(log, "core.ld_stream+io.tile_store", kTracedOp);
        ws = stream_to_tiles(store, answer_tiles, s.threads);
      }
      op_wall = op.close();
      coverage = log.child_coverage(op.id());
      op_counters = counters_since(before);
      led.note("store " + std::to_string(store.total_payload_bytes() >> 10) +
               " KiB payload in " + std::to_string(store.shards()) +
               " shards, budget " + std::to_string(stream_budget(store) >> 10) +
               " KiB, reported LLC " +
               std::to_string(cpu_info().cache.l3 >> 20) + " MiB");
    }
    set_sparse(led, op_counters);
    set_write_metrics(led, ws, op_counters);
    measure_store_layers(led, log, store_path, tiles_path, s.threads, true);
    measure_matrix_layers(led, log, d.g, s.threads, false, 0, 0, 0, 0);
    measure_omega(led, log, d, 500, 100, false, 0.0, nullptr);
  } else {
    Dataset d;
    double scan_s = 0.0;
    trace::TraceSnapshot phases;
    trace::PhaseCounters op_counters;
    {
      const auto before = trace::snapshot();
      Scoped op(log, "op", kTracedOp);
      {
        Scoped sp(log, "io.ms_format", kTracedOp);
        d = load(input);
        parse_metrics(sp.close());
      }
      std::vector<OmegaPoint> scan;
      {
        SweepScanParams p;
        p.grid_points = s.grid;
        p.window_snps = s.window;
        const auto b = trace::snapshot();
        Scoped sp(log, "omega", kTracedOp);
        scan = omega_scan(d.g, d.positions, p);
        scan_s = sp.close();
        phases = trace::snapshot().since(b);
      }
      {
        Scoped sp(log, "omega.print", kTracedOp);
        Table table({"position", "omega"});
        for (const auto& p : scan) {
          table.add_row({fmt_fixed(p.position, 4), fmt_fixed(p.omega, 3)});
        }
        answer << table.str();
        const OmegaPoint peak = omega_scan_peak(scan);
        answer << "\npeak omega " << fmt_fixed(peak.omega, 3) << " at "
               << fmt_fixed(peak.position, 4) << "\n";
      }
      op_wall = op.close();
      coverage = log.child_coverage(op.id());
      op_counters = counters_since(before);
    }
    set_sparse(led, op_counters);
    measure_omega(led, log, d, s.grid, s.window, true, scan_s, &phases);
    measure_matrix_layers(led, log, d.g, 4, false, 0, 0, 0, 0);
    ingest_slice_store(led, log, d.g, store_path, 4);
    measure_store_layers(led, log, store_path, tiles_path, 4, false);
  }

  measure_ceilings(led, store_path);
  const double memcpy = led.metrics["ceiling.memcpy_gb_per_s"].first;
  led.set("gemm.pack.frac_of_memcpy",
          led.metrics["gemm.pack.gb_per_s"].first / memcpy, "ratio");
  led.set("io.shard_store.frac_of_pagecache",
          led.metrics["io.shard_store.read_gb_per_s"].first /
              led.metrics["ceiling.pagecache_gb_per_s"].first,
          "ratio");
  led.set("trace.op_wall_s", op_wall, "s");
  led.set("trace.span_coverage", coverage, "ratio");
  std::remove(store_path.c_str());
  log.write(dir + "/spans.json");
  if (workload != "ooc_stream_rare") {
    std::ofstream out(dir + "/trace_answer.txt");
    out << answer.str();
  }

  for (const auto& n : led.notes) std::printf("note: %s\n", n.c_str());
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : led.metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           num(vu.first) + ", \"unit\": " + quoted(vu.second) + "}";
    first = false;
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

std::uint64_t parse_seed(const char* s) {
  return std::strtoull(s, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen" && argc == 5) {
    return cmd_gen(argv[2], parse_seed(argv[3]), argv[4]);
  }
  if (cmd == "stream" && argc == 5) {
    return cmd_stream(argv[2], argv[3],
                      static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)));
  }
  if (cmd == "check" && argc >= 6) {
    return cmd_check(argv[2], parse_seed(argv[3]), argv[4],
                     std::vector<std::string>(argv + 5, argv + argc));
  }
  if (cmd == "trace" && argc == 5) {
    return cmd_trace(argv[2], parse_seed(argv[3]), argv[4]);
  }
  std::fprintf(stderr,
               "usage: ldla_perfbench gen WORKLOAD SEED DIR\n"
               "       ldla_perfbench stream STORE TILES THREADS\n"
               "       ldla_perfbench check WORKLOAD SEED INPUT OUTPUT...\n"
               "       ldla_perfbench trace WORKLOAD SEED DIR\n");
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

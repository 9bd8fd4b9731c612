#include "io/ms_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <string_view>

#include "core/bit_transpose.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

// The haplotype block is parsed as fixed-stride records: every valid line
// is exactly segsites '0'/'1' bytes plus '\n', so row r starts at
// start + r * (segsites + 1). Rows are cut into 64-haplotype blocks; each
// block is checked and packed 8 bytes at a time (SWAR), then transposed
// 64x64 straight into the SNP-major matrix. The first row that is not such
// a record ends the fast path; the line-by-line rules decide what it is
// (a blank terminator, EOF, or which ParseError).

static_assert(std::endian::native == std::endian::little,
              "the SWAR gather reads haplotype bytes little-endian");

constexpr std::size_t kBlockRows = 64;  ///< haplotypes per transpose block
/// Blocks per parallel stripe: 8 words = one cache line of every output
/// row, so two stripes never write the same line.
constexpr std::size_t kStripeBlocks = 8;
constexpr std::size_t kReadAhead = std::size_t{256} << 10;
/// Conversion rounds smaller than this run on the caller, with no pool call.
constexpr std::size_t kParallelBytes = std::size_t{256} << 10;
/// Bytes per file read of a converting thread: small enough to stay in its
/// cache and out of fresh mmap'd pages, large enough to amortize the call.
constexpr std::size_t kReadBytes = std::size_t{64} << 10;

constexpr std::uint64_t kAsciiZeros = 0x3030303030303030ull;
constexpr std::uint64_t kHighBits = 0xFEFEFEFEFEFEFEFEull;
constexpr std::uint64_t kGather = 0x0102040810204080ull;

/// The bytes of an ms document: all in memory, or a regular file read at
/// offsets (every reader opens its own stream).
class Source {
 public:
  explicit Source(std::string_view mem) : mem_(mem), size_(mem.size()) {}
  Source(std::string path, std::uint64_t size)
      : path_(std::move(path)), size_(size), file_(true) {}

  [[nodiscard]] bool is_file() const noexcept { return file_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::string_view mem() const noexcept { return mem_; }

  void open(std::ifstream& f) const {
    f.open(path_, std::ios::binary);
    if (!f) throw Error("cannot open ms file: " + path_);
  }

  /// Reads exactly n bytes at `off` (a short read means the file changed
  /// under the parser).
  void read(std::ifstream& f, std::uint64_t off, char* dst,
            std::size_t n) const {
    if (!f.is_open()) open(f);
    f.clear();
    f.seekg(static_cast<std::streamoff>(off));
    f.read(dst, static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(f.gcount()) != n) {
      throw Error("ms: short read from " + path_);
    }
  }

 private:
  std::string_view mem_;
  std::string path_;
  std::uint64_t size_ = 0;
  bool file_ = false;
};

/// Serial reader over a Source: getline-compatible lines from a read-ahead
/// window (the whole document when it is in memory).
class Cursor {
 public:
  explicit Cursor(const Source& src) : src_(src) {
    if (src_.is_file()) {
      src_.open(file_);
    } else {
      win_ = src_.mem();
    }
  }

  [[nodiscard]] std::uint64_t offset() const noexcept { return base_ + pos_; }

  /// std::getline semantics: false only when no byte is left; a last line
  /// without '\n' is still a line.
  bool next_line(std::string_view& line) {
    std::size_t scan = pos_;
    for (;;) {
      const std::size_t nl = win_.find('\n', scan);
      if (nl != std::string_view::npos) {
        line = win_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (window_end() >= src_.size()) break;
      scan = win_.size() - pos_;  // relative: fill_to moves pos_ to 0
      fill_to(window_end() + kReadAhead);
    }
    if (pos_ == win_.size()) return false;
    line = win_.substr(pos_);
    pos_ = win_.size();
    return true;
  }

  void seek(std::uint64_t off) {
    off = std::min(off, src_.size());
    if (off >= base_ && off <= window_end()) {
      pos_ = static_cast<std::size_t>(off - base_);
      return;
    }
    buf_.clear();
    win_ = buf_;
    base_ = off;
    pos_ = 0;
  }

 private:
  [[nodiscard]] std::uint64_t window_end() const noexcept {
    return base_ + win_.size();
  }

  // Grows the window to cover [offset(), end), dropping what lies before
  // the cursor. Only called for a file source.
  void fill_to(std::uint64_t end) {
    end = std::min(end, src_.size());
    const std::uint64_t have = window_end();
    if (end <= have) return;
    const std::size_t keep = win_.size() - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, keep);
    buf_.resize(keep + static_cast<std::size_t>(end - have));
    src_.read(file_, have, buf_.data() + keep,
              static_cast<std::size_t>(end - have));
    base_ = offset();
    pos_ = 0;
    win_ = buf_;
  }

  const Source& src_;
  std::ifstream file_;
  std::string buf_;        ///< window storage for a file source
  std::string_view win_;   ///< window bytes, starting at source offset base_
  std::uint64_t base_ = 0;
  std::size_t pos_ = 0;    ///< cursor, relative to base_
};

// --- header fields ---------------------------------------------------------
// Numbers are read exactly as `std::istream >>` reads them (libstdc++, "C"
// locale), so the accepted set is the one the format has always had.

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::size_t skip_space(std::string_view s, std::size_t i) {
  while (i < s.size() && is_space(s[i])) ++i;
  return i;
}

/// `is >> std::size_t`: optional sign (a '-' wraps, as strtoull does),
/// digits, overflow fails; what follows the digits is ignored.
bool read_count(std::string_view s, std::size_t& out) {
  std::size_t i = skip_space(s, 0);
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) negative = s[i++] == '-';
  const std::size_t first = i;
  std::uint64_t v = 0;
  for (; i < s.size() && is_digit(s[i]); ++i) {
    const auto d = static_cast<std::uint64_t>(s[i] - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i == first) return false;
  out = static_cast<std::size_t>(negative ? 0 - v : v);
  return true;
}

/// `is >> double`: the longest prefix of [+-]digits[.digits][(e|E)[+-]
/// digits] from `i`, which must then convert whole and finite. Advances
/// `i` past the prefix.
bool read_double(std::string_view s, std::size_t& i, double& out) {
  i = skip_space(s, i);
  const std::size_t begin = i;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  bool mantissa = false;
  bool dot = false;
  bool exponent = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (is_digit(c)) {
      mantissa = true;
    } else if (c == '.' && !dot && !exponent) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && !exponent && mantissa) {
      exponent = true;
      if (i + 1 < s.size() && (s[i + 1] == '+' || s[i + 1] == '-')) ++i;
    } else {
      break;
    }
  }
  const std::string_view token = s.substr(begin, i - begin);
  const char* b = token.data();
  const char* const e = b + token.size();
  const bool negative = b != e && *b == '-';
  if (b != e && (*b == '+' || *b == '-')) ++b;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(b, e, v);
  if (ec == std::errc{} && end == e && b != e) {
    out = negative ? -v : v;
    return true;
  }
  // Prefixes from_chars does not settle (out of range, "1e", "."): strtod
  // decides, as the stream does — whole-token, finite results only.
  const std::string copy(token);
  char* stop = nullptr;
  const double d = std::strtod(copy.c_str(), &stop);
  if (stop == copy.c_str() || *stop != '\0' || std::abs(d) == HUGE_VAL) {
    return false;
  }
  out = d;
  return true;
}

// --- haplotype block -------------------------------------------------------

struct HapLayout {
  std::uint64_t start = 0;   ///< source offset of row 0
  std::size_t segsites = 0;  ///< bytes of '0'/'1' per row
  std::size_t stride = 0;    ///< segsites + 1
  std::uint64_t eof = 0;     ///< source size, relative to start

  /// Rows whose segsites bytes lie inside the source.
  [[nodiscard]] std::size_t full_rows() const {
    return eof < segsites ? 0 : static_cast<std::size_t>(
                                    (eof - segsites) / stride + 1);
  }
  /// Row r's terminator is '\n', or EOF right after its last byte.
  [[nodiscard]] bool terminated(std::size_t r, const char* row) const {
    return static_cast<std::uint64_t>(r) * stride + segsites == eof ||
           row[segsites] == '\n';
  }
};

/// Packs n '0'/'1' bytes into ⌈n/64⌉ words (bit j of word w = byte 64w+j),
/// writing word w at out[w * out_stride]. False when any byte is not
/// '0'/'1' (the words are then garbage).
bool pack_row(const char* p, std::size_t n, std::uint64_t* out,
              std::size_t out_stride) {
  std::uint64_t bad = 0;
  for (std::size_t w = 0; w * 64 < n; ++w) {
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    const char* q = p + w * 64;
    std::uint64_t word = 0;
    std::size_t k = 0;
    for (; k + 8 <= len; k += 8) {
      std::uint64_t x;
      std::memcpy(&x, q + k, 8);
      x ^= kAsciiZeros;
      bad |= x;
      word |= ((x * kGather) >> 56) << k;
    }
    for (; k < len; ++k) {
      const auto x = static_cast<std::uint64_t>(
          static_cast<unsigned char>(q[k]) ^ 0x30u);
      bad |= x;
      word |= (x & 1u) << k;
    }
    out[w * out_stride] = word;
  }
  return (bad & kHighBits) == 0;
}

/// Converts rows [0, rows) into `out` (segsites x rows, SNP-major), one
/// (block range x word range) piece at a time.
class BlockConverter {
 public:
  BlockConverter(const Source& src, const HapLayout& lay, std::size_t rows,
                 BitMatrix& out)
      : src_(src),
        lay_(lay),
        rows_(rows),
        rows_per_read_(src.is_file()
                           ? std::max<std::size_t>(1, kReadBytes / lay.stride)
                           : kBlockRows),
        out_(out) {}

  /// Blocks [b0, b1), SNP words [w0, w1). Returns the first row in range
  /// that is not a haplotype record (rows_ when all are); rows before it
  /// are in `out`, later ones may hold garbage.
  std::size_t run(std::size_t b0, std::size_t b1, std::size_t w0,
                  std::size_t w1) const {
    const std::size_t words = w1 - w0;
    const std::size_t chars = std::min(w1 * 64, lay_.segsites) - w0 * 64;
    const bool last_words = w1 * 64 >= lay_.segsites;
    // tile[w * 64 + h]: word w of row h, i.e. one 64x64 block per word.
    std::vector<std::uint64_t> tile(words * kBlockRows);
    std::array<std::uint64_t, kBlockRows> block;
    std::string buf;
    std::ifstream file;
    std::uint64_t* const dst = out_.row_data(0);
    const std::size_t dst_stride = out_.stride_words();
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t r0 = b * kBlockRows;
      std::size_t n = std::min(kBlockRows, rows_ - r0);
      std::size_t bad = rows_;
      const char* base = nullptr;  // row `first` of the block
      for (std::size_t h = 0, first = 0, have = 0; h < n; ++h) {
        if (h == have) {
          first = h;
          have = std::min(n, h + rows_per_read_);
          base = rows_at(r0 + h, have - h, buf, file);
        }
        const char* row = base + (h - first) * lay_.stride;
        if (!pack_row(row + w0 * 64, chars, &tile[h], kBlockRows) ||
            (last_words && !lay_.terminated(r0 + h, row))) {
          bad = r0 + h;
          n = h;
          break;
        }
      }
      for (std::size_t w = 0; w < words; ++w) {
        std::copy_n(&tile[w * kBlockRows], n, block.begin());
        std::fill(block.begin() + static_cast<std::ptrdiff_t>(n), block.end(),
                  0);
        transpose_64x64(block);
        const std::size_t snp0 = (w0 + w) * 64;
        const std::size_t snps =
            std::min<std::size_t>(64, lay_.segsites - snp0);
        std::uint64_t* col = dst + snp0 * dst_stride + b;
        for (std::size_t j = 0; j < snps; ++j) col[j * dst_stride] = block[j];
      }
      if (bad != rows_) return bad;
    }
    return rows_;
  }

 private:
  // Rows [r0, r0 + n): in place for an in-memory source, else read into
  // `buf` (the last row may end at EOF without its '\n').
  const char* rows_at(std::size_t r0, std::size_t n, std::string& buf,
                      std::ifstream& file) const {
    const std::uint64_t off = static_cast<std::uint64_t>(r0) * lay_.stride;
    if (!src_.is_file()) return src_.mem().data() + lay_.start + off;
    const auto bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(n * lay_.stride, lay_.eof - off));
    buf.resize(bytes);
    src_.read(file, lay_.start + off, buf.data(), bytes);
    return buf.data();
  }

  const Source& src_;
  const HapLayout& lay_;
  std::size_t rows_;
  std::size_t rows_per_read_;  ///< rows per file read of a block
  BitMatrix& out_;
};

/// Runs the converter over rows [begin, end) with a team of `threads`:
/// stripes of kStripeBlocks blocks, counted from block 0 so that each
/// stripe owns whole cache lines of the output rows, split further by SNP
/// words when there are fewer stripes than threads. Returns the first
/// non-record row.
std::size_t convert_rows(const BlockConverter& conv, std::size_t begin,
                         std::size_t end, std::size_t words,
                         unsigned threads) {
  const std::size_t b0 = begin / kBlockRows;
  const std::size_t b1 = (end + kBlockRows - 1) / kBlockRows;
  if (threads <= 1) return conv.run(b0, b1, 0, words);
  const std::size_t s0 = b0 / kStripeBlocks;
  const std::size_t stripes = (b1 + kStripeBlocks - 1) / kStripeBlocks - s0;
  const std::vector<Range> stripe_ranges =
      split_uniform(stripes, std::min<std::size_t>(stripes, threads));
  const std::vector<Range> word_ranges =
      split_uniform(words, stripes >= threads ? 1 : threads / stripes);
  const std::size_t tasks = stripe_ranges.size() * word_ranges.size();
  std::vector<std::size_t> first(tasks, end);
  global_pool().run_tasks(tasks, [&](std::size_t t) {
    const Range& s = stripe_ranges[t / word_ranges.size()];
    const Range& w = word_ranges[t % word_ranges.size()];
    first[t] = conv.run(std::max(b0, (s0 + s.begin) * kStripeBlocks),
                        std::min(b1, (s0 + s.end) * kStripeBlocks), w.begin,
                        w.end);
  });
  return *std::min_element(first.begin(), first.end());
}

/// A snps x n matrix holding `g`'s first min(n, g.samples()) samples.
BitMatrix with_samples(const BitMatrix& g, std::size_t snps, std::size_t n) {
  BitMatrix out(snps, n);
  const std::size_t words = std::min(g.words_per_snp(), out.words_per_snp());
  const std::uint64_t tail =
      n % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n % 64)) - 1;
  for (std::size_t s = 0; s < g.snps(); ++s) {
    std::copy_n(g.row_data(s), words, out.row_data(s));
    out.row_data(s)[out.words_per_snp() - 1] &= tail;
  }
  return out;
}

/// Converts the haplotype records at the start of `lay` into `g`
/// (segsites x rows) and returns their count. Rounds double the matrix, so
/// it grows with the records actually found: the rows left in the source
/// are no bound on the block, since the rows of later replicates can fall
/// on the same stride. The first round is one stripe, or one per thread
/// when it is large enough to run on the pool.
std::size_t convert_block(const Source& src, const HapLayout& lay,
                          unsigned threads, BitMatrix& g) {
  static metrics::Counter& c_rows = metrics::counter(
      "ldla_ms_rows_allocated_total",
      "haplotype rows the ms parser sized its output matrices for");
  constexpr std::size_t kStripeRows = kStripeBlocks * kBlockRows;
  const std::size_t limit = lay.full_rows();
  const std::size_t first =
      kStripeRows * lay.stride < kParallelBytes ? kStripeRows
                                                : kStripeRows * threads;
  std::size_t rows = 0;
  for (std::size_t cap = std::min(limit, first);
       rows == g.samples() && rows < limit; cap = std::min(limit, 2 * cap)) {
    g = with_samples(g, lay.segsites, cap);
    c_rows.add(cap);
    const BlockConverter conv(src, lay, cap, g);
    const bool small = (cap - rows) * lay.stride < kParallelBytes;
    rows = convert_rows(conv, rows, cap, words_for_bits(lay.segsites),
                        small ? 1 : threads);
  }
  return rows;
}

/// The line rules, from row `row` (its line already read) to the end of
/// the block: the ParseError the block earns, in the order the format has
/// always checked (separator and length over every line first, then the
/// first bad character). Rows before `row` are known records.
[[noreturn]] void reject_block(Cursor& cur, std::string_view line,
                               std::size_t row, std::size_t segsites) {
  std::size_t bad_row = 0;
  char bad_char = 0;
  bool seen_bad = false;
  do {
    if (line.empty()) break;
    if (line == "//") {
      throw ParseError("ms: replicate separator inside haplotype block");
    }
    if (line.size() != segsites) {
      throw ParseError("ms: haplotype length " + std::to_string(line.size()) +
                       " != segsites " + std::to_string(segsites));
    }
    const auto c = std::find_if(line.begin(), line.end(),
                                [](char ch) { return ch != '0' && ch != '1'; });
    if (!seen_bad && c != line.end()) {
      seen_bad = true;
      bad_row = row;
      bad_char = *c;
    }
    ++row;
  } while (cur.next_line(line));
  if (seen_bad) {
    throw ParseError(std::string("ms: invalid character '") + bad_char +
                     "' in haplotype " + std::to_string(bad_row));
  }
  throw Error("ms: haplotype block changed while it was parsed");
}

MsReplicate parse_one(Cursor& cur, const Source& src, unsigned threads) {
  MsReplicate rep;
  std::string_view line;

  // segsites:
  std::size_t segsites = 0;
  while (cur.next_line(line)) {
    if (line.starts_with("segsites:")) {
      if (!read_count(line.substr(9), segsites)) {
        throw ParseError("ms: bad segsites line");
      }
      break;
    }
    if (!line.empty() && line != "//") {
      throw ParseError("ms: expected 'segsites:', got '" + std::string(line) +
                       "'");
    }
  }
  if (segsites == 0) return rep;  // empty replicate is legal

  // positions:
  if (!cur.next_line(line) || !line.starts_with("positions:")) {
    throw ParseError("ms: expected 'positions:' line");
  }
  {
    const std::string_view text = line.substr(10);
    rep.positions.reserve(std::min(segsites, text.size() / 2 + 1));
    std::size_t count = 0;
    double p = 0.0;
    for (std::size_t i = 0; read_double(text, i, p); ++count) {
      if (count < segsites) rep.positions.push_back(p);
    }
    if (count != segsites) {
      throw ParseError("ms: positions count (" + std::to_string(count) +
                       ") != segsites (" + std::to_string(segsites) + ")");
    }
  }

  // Haplotype rows until a blank line / EOF / something else.
  HapLayout lay;
  lay.start = cur.offset();
  lay.segsites = segsites;
  lay.stride = segsites + 1;
  lay.eof = src.size() - lay.start;
  BitMatrix g;
  const std::size_t rows = convert_block(src, lay, threads, g);
  cur.seek(lay.start + static_cast<std::uint64_t>(rows) * lay.stride);
  if (cur.next_line(line) && !line.empty()) {
    reject_block(cur, line, rows, segsites);
  }
  if (rows == 0) throw ParseError("ms: replicate has no haplotypes");
  rep.genotypes = rows == g.samples() ? std::move(g)
                                      : with_samples(g, segsites, rows);
  return rep;
}

std::vector<MsReplicate> parse_source(const Source& src, unsigned threads) {
  LDLA_TRACE_SPAN(kIo);
  if (threads == 0) threads = default_thread_count();
  Cursor cur(src);
  std::vector<MsReplicate> reps;
  std::string_view line;
  // Skip the command/seed header up to the first "//".
  while (cur.next_line(line)) {
    if (line == "//") reps.push_back(parse_one(cur, src, threads));
  }
  if (reps.empty()) throw ParseError("ms: no replicates ('//' blocks) found");
  return reps;
}

std::string read_all(std::istream& in) {
  std::string data;
  std::array<char, std::size_t{64} << 10> chunk;
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    data.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  return data;
}

}  // namespace

std::vector<MsReplicate> parse_ms(std::istream& in) {
  const std::string data = read_all(in);
  return parse_source(Source(data), 1);
}

std::vector<MsReplicate> parse_ms_file(const std::string& path,
                                       unsigned threads) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    // Pipes and devices have no offsets to read at: take them whole.
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open ms file: " + path);
    const std::string data = read_all(in);
    return parse_source(Source(data), threads);
  }
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) throw Error("cannot open ms file: " + path);
  return parse_source(Source(path, size), threads);
}

void write_ms(std::ostream& out, const MsReplicate& rep) {
  LDLA_TRACE_SPAN(kIo);
  LDLA_EXPECT(rep.positions.size() == rep.genotypes.snps(),
              "positions/SNP count mismatch");
  out << "ldla " << rep.genotypes.samples() << " 1\n0 0 0\n\n//\n";
  out << "segsites: " << rep.genotypes.snps() << "\n";
  // max_digits10 so positions survive a write/parse round trip exactly.
  out << std::setprecision(17);
  out << "positions:";
  for (const double p : rep.positions) out << ' ' << p;
  out << "\n";
  const BitMatrix sample_major = transpose_bits(rep.genotypes);
  for (std::size_t h = 0; h < sample_major.snps(); ++h) {
    out << sample_major.snp_string(h) << "\n";
  }
  out << "\n";
}

void write_ms_file(const std::string& path, const MsReplicate& rep) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open ms file for writing: " + path);
  write_ms(out, rep);
}

}  // namespace ldla

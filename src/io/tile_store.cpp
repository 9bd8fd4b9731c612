#include "io/tile_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "util/contract.hpp"
#include "util/metrics.hpp"

namespace ldla {
namespace {

// "LDLATIL1" opens the file, "LDLATIX1" seals the footer: a reader that
// finds the head magic but not the tail knows the writer died mid-stream.
constexpr unsigned char kMagic[8] = {'L', 'D', 'L', 'A', 'T', 'I', 'L', '1'};
constexpr unsigned char kFootMagic[8] = {'L', 'D', 'L', 'A',
                                         'T', 'I', 'X', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 * 8;
constexpr std::size_t kRecordU64s = 7;
constexpr std::size_t kRecordBytes = kRecordU64s * 8;
constexpr std::size_t kFooterBytes = 2 * 8 + sizeof(kFootMagic);

[[noreturn]] void bad(const std::string& what) {
  throw ParseError("tile store: " + what);
}

std::uint64_t get_u64(std::istream& in) {
  char buf[8];
  in.read(buf, sizeof(buf));
  std::uint64_t v;
  std::memcpy(&v, buf, sizeof(v));
  return v;
}

void put_u64(std::uint8_t*& p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
  p += sizeof(v);
}

// The index is the in-memory record array verbatim: seven host-order u64s
// per tile, in field order.
static_assert(sizeof(TileRecord) == kRecordBytes &&
                  std::is_standard_layout_v<TileRecord> &&
                  std::is_trivially_copyable_v<TileRecord>,
              "TileRecord must be the on-disk index record");

// Payload goes to the file in writes of up to this many bytes; a tile at
// least this large skips the buffer.
constexpr std::size_t kStageBytes = std::size_t{1} << 20;

/// Bytes the XOR encoder may touch for `n` values: it stores all eight
/// residual bytes after each control byte and advances past the
/// significant ones only, so the last value needs 9 bytes of room.
constexpr std::size_t xor_bound(std::size_t n) { return 9 * n; }

/// XOR-encode the tile row-major into `enc` (at least xor_bound(cells)
/// bytes) and return the encoded size: per value, one control byte holding
/// the count of significant low-order bytes of (bits ^ prev), then exactly
/// those bytes, little-endian. prev starts at 0 so the tile decodes alone.
std::size_t xor_encode(const LdTile& t, std::uint8_t* enc) {
  static_assert(std::endian::native == std::endian::little,
                "the word store writes residual bytes in memory order");
  std::uint8_t* p = enc;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    const double* row = t.values + i * t.ld;
    for (std::size_t j = 0; j < t.cols; ++j) {
      std::uint64_t bits;
      std::memcpy(&bits, &row[j], sizeof(bits));
      const std::uint64_t delta = bits ^ prev;
      prev = bits;
      // Bytes up to the highest non-zero one: 0 for delta == 0, 8 when the
      // top byte is set.
      const unsigned sig = (71u - static_cast<unsigned>(
                                      std::countl_zero(delta))) >> 3;
      p[0] = static_cast<std::uint8_t>(sig);
      std::memcpy(p + 1, &delta, sizeof(delta));
      p += 1 + sig;
    }
  }
  return static_cast<std::size_t>(p - enc);
}

void xor_decode(const std::uint8_t* enc, std::size_t bytes, double* v,
                std::size_t n) {
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (pos >= bytes) bad("XOR payload truncated");
    const std::uint8_t sig = enc[pos++];
    if (sig > 8 || pos + sig > bytes) bad("corrupt XOR control byte");
    std::uint64_t delta = 0;
    for (std::uint8_t b = 0; b < sig; ++b) {
      delta |= static_cast<std::uint64_t>(enc[pos++]) << (b * 8);
    }
    prev ^= delta;
    std::memcpy(&v[k], &prev, sizeof(prev));
  }
  if (pos != bytes) bad("XOR payload has trailing bytes");
}

}  // namespace

TileStoreWriter::TileStoreWriter(const std::string& path, LdStatistic stat,
                                 std::size_t matrix_rows,
                                 std::size_t matrix_cols, TileCodec codec)
    : path_(path), tmp_path_(path + ".tmp"), codec_(codec) {
  MutexLock lock(mu_);
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw Error("tile store: cannot create " + tmp_path_);
  stage_.reserve(kStageBytes);
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  std::uint8_t* p = header + sizeof(kMagic);
  put_u64(p, static_cast<std::uint64_t>(stat));
  put_u64(p, matrix_rows);
  put_u64(p, matrix_cols);
  put_u64(p, static_cast<std::uint64_t>(codec));
  append(header, sizeof(header));
}

TileStoreWriter::~TileStoreWriter() {
  MutexLock lock(mu_);
  if (published_) return;
  // Abandoned (no successful close()): the partial store never reaches
  // path_, so a reader can only find a complete store there.
  out_.close();
  std::remove(tmp_path_.c_str());
}

void TileStoreWriter::add(const LdTile& t) {
  const std::size_t cells = t.rows * t.cols;
  // Encode outside the lock, into this thread's scratch: grown to the
  // largest tile the thread has written and reused, except that a tile
  // too large for the staging buffer gets a buffer of its own, so a pool
  // thread never keeps more than kStageBytes of it.
  const std::size_t bound =
      codec_ == TileCodec::kRaw ? cells * sizeof(double) : xor_bound(cells);
  thread_local std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t> own;
  std::vector<std::uint8_t>& enc = bound <= kStageBytes ? scratch : own;
  if (enc.size() < bound) enc.resize(bound);
  std::size_t bytes = 0;
  if (codec_ == TileCodec::kRaw) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      std::memcpy(enc.data() + i * t.cols * sizeof(double),
                  t.values + i * t.ld, t.cols * sizeof(double));
    }
    bytes = cells * sizeof(double);
  } else {
    bytes = xor_encode(t, enc.data());
  }

  TileRecord rec;
  rec.row_begin = t.row_begin;
  rec.col_begin = t.col_begin;
  rec.rows = t.rows;
  rec.cols = t.cols;
  rec.bytes = bytes;
  rec.raw_bytes = static_cast<std::uint64_t>(cells) * sizeof(double);
  {
    MutexLock lock(mu_);
    LDLA_EXPECT(!closing_, "tile store already closed");
    rec.offset = file_bytes_;
    append(enc.data(), bytes);
    payload_bytes_ += rec.bytes;
    raw_bytes_ += rec.raw_bytes;
    index_.push_back(rec);
  }
  static metrics::Counter& c_tiles = metrics::counter(
      "ldla_tiles_written_total", "stat tiles written to tile stores");
  static metrics::Counter& c_payload = metrics::counter(
      "ldla_tile_payload_bytes_total",
      "encoded tile payload bytes written");
  static metrics::Counter& c_raw = metrics::counter(
      "ldla_tile_raw_bytes_total",
      "pre-codec tile bytes (rows * cols * 8)");
  c_tiles.inc();
  c_payload.add(rec.bytes);
  c_raw.add(rec.raw_bytes);
}

void TileStoreWriter::write_out(const void* bytes, std::size_t n) {
  out_.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
  if (!out_) throw Error("tile store: write failed for " + tmp_path_);
}

void TileStoreWriter::flush_stage() {
  if (stage_.empty()) return;
  write_out(stage_.data(), stage_.size());
  stage_.clear();
}

void TileStoreWriter::append(const std::uint8_t* bytes, std::size_t n) {
  if (stage_.size() + n > kStageBytes) flush_stage();
  if (n >= kStageBytes) {
    write_out(bytes, n);
  } else {
    stage_.insert(stage_.end(), bytes, bytes + n);
  }
  file_bytes_ += n;
}

void TileStoreWriter::close() {
  MutexLock lock(mu_);
  if (published_) return;
  LDLA_EXPECT(!closing_, "tile store close() already failed");
  closing_ = true;
  const std::uint64_t index_off = file_bytes_;
  flush_stage();
  write_out(index_.data(), index_.size() * kRecordBytes);
  std::uint8_t footer[kFooterBytes];
  std::uint8_t* p = footer;
  put_u64(p, index_off);
  put_u64(p, index_.size());
  std::memcpy(p, kFootMagic, sizeof(kFootMagic));
  write_out(footer, sizeof(footer));
  out_.close();
  if (!out_) throw Error("tile store: write failed for " + tmp_path_);
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw Error("tile store: cannot rename " + tmp_path_ + " to " + path_);
  }
  published_ = true;
}

std::size_t TileStoreWriter::tiles() const {
  MutexLock lock(mu_);
  return index_.size();
}

std::uint64_t TileStoreWriter::payload_bytes() const {
  MutexLock lock(mu_);
  return payload_bytes_;
}

std::uint64_t TileStoreWriter::raw_bytes() const {
  MutexLock lock(mu_);
  return raw_bytes_;
}

TileStoreReader::TileStoreReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_) throw Error("tile store: cannot open " + path);
  in_.seekg(0, std::ios::end);
  const std::uint64_t size = static_cast<std::uint64_t>(in_.tellg());
  if (size < kHeaderBytes + kFooterBytes) bad("truncated file");

  in_.seekg(0);
  unsigned char magic[8];
  in_.read(reinterpret_cast<char*>(magic), sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(magic)) != 0) bad("bad magic");
  const std::uint64_t stat = get_u64(in_);
  if (stat > static_cast<std::uint64_t>(LdStatistic::kRSquared)) {
    bad("unknown statistic");
  }
  stat_ = static_cast<LdStatistic>(stat);
  rows_ = get_u64(in_);
  cols_ = get_u64(in_);
  const std::uint64_t codec = get_u64(in_);
  if (codec > static_cast<std::uint64_t>(TileCodec::kXor)) {
    bad("unknown codec");
  }
  codec_ = static_cast<TileCodec>(codec);

  in_.seekg(static_cast<std::streamoff>(size - kFooterBytes));
  const std::uint64_t index_off = get_u64(in_);
  const std::uint64_t count = get_u64(in_);
  unsigned char foot[8];
  in_.read(reinterpret_cast<char*>(foot), sizeof(foot));
  if (std::memcmp(foot, kFootMagic, sizeof(foot)) != 0) {
    bad("missing footer (writer did not close the store)");
  }
  if (index_off < kHeaderBytes || index_off > size - kFooterBytes ||
      count != (size - kFooterBytes - index_off) / kRecordBytes ||
      index_off + count * kRecordBytes != size - kFooterBytes) {
    bad("index extent inconsistent with the file size");
  }

  in_.seekg(static_cast<std::streamoff>(index_off));
  index_.resize(count);
  in_.read(reinterpret_cast<char*>(index_.data()),
           static_cast<std::streamsize>(count * kRecordBytes));
  if (!in_) bad("index read failed");
  for (const TileRecord& rec : index_) {
    if (rec.rows == 0 || rec.cols == 0) bad("empty tile record");
    if (rec.rows > rows_ || rec.row_begin > rows_ - rec.rows ||
        rec.cols > cols_ || rec.col_begin > cols_ - rec.cols) {
      bad("tile outside the matrix");
    }
    if (rec.raw_bytes != rec.rows * rec.cols * 8) {
      bad("raw size inconsistent with the tile shape");
    }
    if (rec.offset < kHeaderBytes || rec.offset > index_off ||
        rec.bytes > index_off - rec.offset) {
      bad("tile payload outside the payload region");
    }
    if (codec_ == TileCodec::kRaw && rec.bytes != rec.raw_bytes) {
      bad("raw tile with mismatched payload size");
    }
    max_tile_rows_ = std::max(max_tile_rows_, rec.rows);
  }
  by_row_.resize(index_.size());
  std::iota(by_row_.begin(), by_row_.end(), std::size_t{0});
  std::sort(by_row_.begin(), by_row_.end(), [&](std::size_t a, std::size_t b) {
    return index_[a].row_begin < index_[b].row_begin;
  });
}

const TileRecord& TileStoreReader::record(std::size_t t) const {
  LDLA_EXPECT(t < index_.size(), "tile index out of range");
  return index_[t];
}

TileData TileStoreReader::read_tile(std::size_t t) {
  const TileRecord& rec = record(t);
  TileData out;
  out.rec = rec;
  out.values.resize(static_cast<std::size_t>(rec.rows) * rec.cols);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(rec.offset));
  if (codec_ == TileCodec::kRaw) {
    in_.read(reinterpret_cast<char*>(out.values.data()),
             static_cast<std::streamsize>(rec.bytes));
  } else {
    std::vector<std::uint8_t> enc(rec.bytes);
    in_.read(reinterpret_cast<char*>(enc.data()),
             static_cast<std::streamsize>(enc.size()));
    if (!in_) bad("payload read failed");
    xor_decode(enc.data(), enc.size(), out.values.data(),
               out.values.size());
  }
  if (!in_) bad("payload read failed");
  return out;
}

bool TileStoreReader::find(std::size_t i, std::size_t j, double* out) {
  LDLA_EXPECT(out != nullptr, "find needs an output location");
  // Only tiles starting in (i - max_tile_rows_, i] can hold row i.
  const std::uint64_t lowest =
      i + 1 > max_tile_rows_ ? i + 1 - max_tile_rows_ : 0;
  auto it = std::partition_point(
      by_row_.begin(), by_row_.end(),
      [&](std::size_t t) { return index_[t].row_begin < lowest; });
  for (; it != by_row_.end() && index_[*it].row_begin <= i; ++it) {
    const std::size_t t = *it;
    const TileRecord& rec = index_[t];
    if (i < rec.row_begin + rec.rows && j >= rec.col_begin &&
        j < rec.col_begin + rec.cols) {
      const TileData data = read_tile(t);
      *out = data.at(i - rec.row_begin, j - rec.col_begin);
      return true;
    }
  }
  return false;
}

}  // namespace ldla

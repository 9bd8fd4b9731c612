// Indexed on-disk store of streamed LD stat tiles.
//
// The streaming drivers (core/ld_stream.hpp) emit statistic tiles straight
// out of the fused epilogue; for chromosome-scale panels the full matrix
// never fits in RAM, so the tiles go to disk as they are produced:
// append-only payload, then a fixed-record index and a footer. The file is
// written under a temp name and renamed onto the store path only once the
// footer is down, so a store at that path is always complete; a reader
// seeks any tile in one index lookup — random (i, j) -> value access
// without decoding anything but the owning tile.
//
// Codec (flag-selectable, no external dependencies): kRaw stores the
// doubles verbatim; kXor XORs each value with its predecessor within the
// tile (prev = 0 at tile start, so tiles decode independently) and stores
// one control byte (the count of significant low-order bytes) plus only
// those bytes. Neighboring LD values share sign/exponent/high-mantissa
// bits, so the XOR residual's high bytes are zero and long runs of equal
// values (monomorphic NaN blocks, saturated r² = 1 regions) collapse to
// one byte per value — the classic Gorilla-style float-XOR scheme at byte
// granularity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/ld.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ldla {

/// Tile payload encoding (persisted in the header).
enum class TileCodec : std::uint8_t {
  kRaw = 0,  ///< doubles verbatim (8 bytes/value)
  kXor = 1,  ///< per-tile XOR-with-previous, zero high bytes stripped
};

/// Index record of one stored tile. `offset`/`bytes` locate the encoded
/// payload; `raw_bytes` is rows*cols*8 (kept explicit so compression
/// ratios are computable from the index alone).
struct TileRecord {
  std::uint64_t row_begin = 0;
  std::uint64_t col_begin = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
};

/// A decoded tile: the record plus its row-major values.
struct TileData {
  TileRecord rec;
  std::vector<double> values;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return values[i * rec.cols + j];
  }
};

/// Append-only tile writer. Feed it the streaming driver's tiles (it is
/// a valid LdStatTileVisitor body, also for a team-mode stream: add() may
/// be called concurrently). Each add() encodes on the calling thread, then
/// reserves the tile's payload offset and index slot and appends the bytes
/// to one bounded staging buffer under the writer's lock; the buffer goes
/// to the file in large writes. The store is built under `<path>.tmp` and
/// published at `path` (rename) only by close(): a writer destroyed
/// without close() — a stream that threw halfway — removes its temp file
/// and leaves whatever was at `path` untouched.
class TileStoreWriter {
 public:
  TileStoreWriter(const std::string& path, LdStatistic stat,
                  std::size_t matrix_rows, std::size_t matrix_cols,
                  TileCodec codec = TileCodec::kXor);
  ~TileStoreWriter();
  TileStoreWriter(const TileStoreWriter&) = delete;
  TileStoreWriter& operator=(const TileStoreWriter&) = delete;

  /// Encode and append one tile (values read through the tile's `ld`).
  /// Safe to call concurrently; the file order of tiles is the order in
  /// which callers took the lock.
  void add(const LdTile& t);

  /// Write the index and footer, close the file and rename it onto the
  /// store path. Idempotent once it has succeeded; throws Error when a
  /// write or the rename fails (the temp file is removed on destruction).
  void close();

  [[nodiscard]] std::size_t tiles() const;
  [[nodiscard]] std::uint64_t payload_bytes() const;
  [[nodiscard]] std::uint64_t raw_bytes() const;

 private:
  void append(const std::uint8_t* bytes, std::size_t n) LDLA_REQUIRES(mu_);
  void flush_stage() LDLA_REQUIRES(mu_);
  void write_out(const void* bytes, std::size_t n) LDLA_REQUIRES(mu_);

  std::string path_;
  std::string tmp_path_;
  TileCodec codec_;
  mutable Mutex mu_;
  std::ofstream out_ LDLA_GUARDED_BY(mu_);
  std::vector<std::uint8_t> stage_ LDLA_GUARDED_BY(mu_);
  std::vector<TileRecord> index_ LDLA_GUARDED_BY(mu_);
  std::uint64_t file_bytes_ LDLA_GUARDED_BY(mu_) = 0;  ///< flushed + staged
  std::uint64_t payload_bytes_ LDLA_GUARDED_BY(mu_) = 0;
  std::uint64_t raw_bytes_ LDLA_GUARDED_BY(mu_) = 0;
  bool closing_ LDLA_GUARDED_BY(mu_) = false;    ///< close() was entered
  bool published_ LDLA_GUARDED_BY(mu_) = false;  ///< renamed onto path_
};

/// Random-access tile reader. The whole index is loaded at open (56 bytes
/// per tile, one read); payloads are read and decoded per request.
class TileStoreReader {
 public:
  explicit TileStoreReader(const std::string& path);

  [[nodiscard]] LdStatistic stat() const noexcept { return stat_; }
  [[nodiscard]] TileCodec codec() const noexcept { return codec_; }
  [[nodiscard]] std::size_t matrix_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t matrix_cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t tiles() const noexcept { return index_.size(); }
  [[nodiscard]] const TileRecord& record(std::size_t t) const;

  /// Decode tile `t` (throws ParseError on a corrupt payload).
  [[nodiscard]] TileData read_tile(std::size_t t);

  /// Random lookup of element (i, j): a binary search of the row-sorted
  /// index for the tiles whose rows can hold i (no tile is taller than
  /// the tallest in the store), then a single tile decode. Returns false
  /// when no stored tile covers (i, j) — e.g. the strictly-upper triangle
  /// of a same-matrix stream.
  bool find(std::size_t i, std::size_t j, double* out);

 private:
  std::ifstream in_;
  LdStatistic stat_ = LdStatistic::kRSquared;
  TileCodec codec_ = TileCodec::kRaw;
  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<TileRecord> index_;
  std::vector<std::size_t> by_row_;  ///< tile numbers sorted by row_begin
  std::uint64_t max_tile_rows_ = 0;
};

}  // namespace ldla

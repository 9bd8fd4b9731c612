// Hudson `ms` coalescent-simulator output format — the lingua franca of
// population-genetics tooling (OmegaPlus consumes it directly).
//
// Layout of one replicate:
//
//   //
//   segsites: <n>
//   positions: <p1> <p2> ... <pn>      (fractions of the region, sorted)
//   <haplotype line 1: n chars of 0/1>   (one line per sample)
//   ...
//
// ms stores samples as rows and SNPs as columns; parsing transposes into
// this library's SNP-major BitMatrix. Every haplotype line is exactly
// segsites + 1 bytes, so the parser treats the haplotype block as
// fixed-stride records: 64-haplotype blocks are checked and packed 8 bytes
// at a time and transposed 64x64 straight into the SNP-major matrix, in
// parallel across blocks. The output grows in rounds that double it, each
// ending at the first row that is not a record; rounds below a few hundred
// KiB run inline.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"

namespace ldla {

struct MsReplicate {
  BitMatrix genotypes;            ///< SNP-major
  std::vector<double> positions;  ///< one per SNP, in [0, 1]
};

/// Parse every replicate in a stream (read whole into memory first, then
/// converted on the calling thread); throws ParseError on malformed input.
std::vector<MsReplicate> parse_ms(std::istream& in);

/// Parse a file, each converting thread reading its own blocks at their
/// offsets. Same verdicts and output as parse_ms; throws Error on I/O
/// failure too. `threads` follows LdOptions::threads: 0 =
/// default_thread_count(), 1 = inline on the caller. Larger teams run on
/// global_pool(), so, as for the LD drivers, do not call it from inside a
/// task running on that pool.
std::vector<MsReplicate> parse_ms_file(const std::string& path,
                                       unsigned threads = 0);

/// Serialize one replicate in ms format (with a leading "ldla" command
/// line and "//" separator so standard tools accept it).
void write_ms(std::ostream& out, const MsReplicate& rep);
void write_ms_file(const std::string& path, const MsReplicate& rep);

}  // namespace ldla

// Writers for LD results: CSV/TSV matrices and ranked pair reports.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/ld.hpp"

namespace ldla {

/// Write an LdMatrix as delimited text; NaN renders as "nan".
void write_matrix_csv(std::ostream& out, const LdMatrix& m,
                      char delimiter = ',', int precision = 6);
void write_matrix_csv_file(const std::string& path, const LdMatrix& m,
                           char delimiter = ',', int precision = 6);

/// The `count` highest finite off-diagonal values of a symmetric LD matrix
/// (each unordered pair reported once, i > j) in ranks_before order. Holds
/// O(count) pairs; ld_top_pairs gives the same list without the matrix.
std::vector<RankedPair> top_pairs(const LdMatrix& m, std::size_t count);

/// Human-readable report of ranked pairs.
void write_top_pairs(std::ostream& out, const std::vector<RankedPair>& pairs,
                     const std::string& value_name);

}  // namespace ldla

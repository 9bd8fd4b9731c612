#include "io/matrix_writer.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <utility>

#include "core/detail/top_pairs.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

void write_matrix_csv(std::ostream& out, const LdMatrix& m, char delimiter,
                      int precision) {
  LDLA_TRACE_SPAN(kIo);
  out << std::setprecision(precision);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j != 0) out << delimiter;
      const double v = m(i, j);
      if (std::isnan(v)) {
        out << "nan";
      } else {
        out << v;
      }
    }
    out << '\n';
  }
}

void write_matrix_csv_file(const std::string& path, const LdMatrix& m,
                           char delimiter, int precision) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open output file: " + path);
  write_matrix_csv(out, m, delimiter, precision);
}

std::vector<RankedPair> top_pairs(const LdMatrix& m, std::size_t count) {
  LDLA_EXPECT(m.rows() == m.cols(), "top_pairs expects a symmetric matrix");
  detail::TopPairSelector top(count);
  for (std::size_t i = 1; i < m.rows(); ++i) {
    top.offer_row(i, 0, m.data() + i * m.cols(), i);
  }
  return std::move(top).sorted();
}

void write_top_pairs(std::ostream& out, const std::vector<RankedPair>& pairs,
                     const std::string& value_name) {
  out << "rank\tsnp_i\tsnp_j\t" << value_name << "\n";
  std::size_t rank = 1;
  for (const auto& p : pairs) {
    out << rank++ << '\t' << p.i << '\t' << p.j << '\t' << std::setprecision(6)
        << p.value << "\n";
  }
}

}  // namespace ldla

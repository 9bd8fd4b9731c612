#include "io/ldm_binary.hpp"
#include "io/matrix_writer.hpp"
#include "io/ms_format.hpp"
#include "io/vcf_lite.hpp"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"

namespace ldla {
namespace {

// --- ms format -------------------------------------------------------------

constexpr const char* kMsSample =
    "ms 4 1 -t 5\n"
    "12345 23456 34567\n"
    "\n"
    "//\n"
    "segsites: 5\n"
    "positions: 0.1 0.2 0.5 0.7 0.9\n"
    "10110\n"
    "01010\n"
    "11111\n"
    "00000\n"
    "\n";

TEST(MsFormat, ParsesSampleInput) {
  std::istringstream in(kMsSample);
  const auto reps = parse_ms(in);
  ASSERT_EQ(reps.size(), 1u);
  const MsReplicate& r = reps[0];
  EXPECT_EQ(r.genotypes.snps(), 5u);
  EXPECT_EQ(r.genotypes.samples(), 4u);
  ASSERT_EQ(r.positions.size(), 5u);
  EXPECT_DOUBLE_EQ(r.positions[2], 0.5);
  // Transposition check: SNP 0 across samples is 1,0,1,0.
  EXPECT_EQ(r.genotypes.snp_string(0), "1010");
  EXPECT_EQ(r.genotypes.snp_string(4), "0010");
}

TEST(MsFormat, RoundTripsThroughWriter) {
  WrightFisherParams p;
  p.n_snps = 37;
  p.n_samples = 21;
  p.seed = 5;
  const SimulatedDataset d = simulate_wright_fisher(p);
  MsReplicate rep;
  rep.genotypes = d.genotypes.clone();
  rep.positions = d.positions;

  std::stringstream io;
  write_ms(io, rep);
  const auto reps = parse_ms(io);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].genotypes.snps(), 37u);
  EXPECT_EQ(reps[0].genotypes.samples(), 21u);
  for (std::size_t s = 0; s < 37; ++s) {
    EXPECT_EQ(reps[0].genotypes.snp_string(s), d.genotypes.snp_string(s));
    EXPECT_DOUBLE_EQ(reps[0].positions[s], d.positions[s]);
  }
}

TEST(MsFormat, ParsesMultipleReplicates) {
  std::string two = std::string(kMsSample) +
                    "//\n"
                    "segsites: 2\n"
                    "positions: 0.3 0.6\n"
                    "10\n"
                    "01\n"
                    "\n";
  std::istringstream in(two);
  const auto reps = parse_ms(in);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[1].genotypes.snps(), 2u);
  EXPECT_EQ(reps[1].genotypes.samples(), 2u);
}

TEST(MsFormat, RejectsMalformedInput) {
  {
    std::istringstream in("no replicates here\n");
    EXPECT_THROW(parse_ms(in), ParseError);
  }
  {
    std::istringstream in("//\nsegsites: 2\npositions: 0.5\n10\n01\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "positions != segsites";
  }
  {
    std::istringstream in("//\nsegsites: 3\npositions: 0.1 0.2 0.3\n10\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "haplotype too short";
  }
  {
    std::istringstream in(
        "//\nsegsites: 2\npositions: 0.1 0.2\n1x\n00\n");
    EXPECT_THROW(parse_ms(in), ParseError) << "bad character";
  }
}

// The acceptance set of the ms reader, pinned verdict by verdict: a faster
// parser must accept and reject exactly these.

std::vector<MsReplicate> parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse_ms(in);
}

std::string two_site_replicate(const std::string& positions,
                               const std::string& haplotypes = "10\n01\n") {
  return "//\nsegsites: 2\npositions:" + positions + "\n" + haplotypes;
}

TEST(MsFormat, AcceptsSignedBareAndExponentPositions) {
  const struct {
    const char* text;
    double first;
  } cases[] = {{" +0.1 0.2", 0.1},
               {" -0.1 0.2", -0.1},
               {" .5 0.7", 0.5},
               {" 1e-1 0.2", 0.1},
               {"\t0.1\t0.2", 0.1}};
  for (const auto& c : cases) {
    const auto reps = parse_text(two_site_replicate(c.text));
    ASSERT_EQ(reps.size(), 1u) << c.text;
    ASSERT_EQ(reps[0].positions.size(), 2u) << c.text;
    EXPECT_EQ(reps[0].positions[0], c.first) << c.text;
    EXPECT_EQ(reps[0].genotypes.samples(), 2u) << c.text;
  }
}

TEST(MsFormat, AcceptsJunkAfterTheLastPosition) {
  const auto reps = parse_text(two_site_replicate(" 0.1 0.2 junk"));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].positions, (std::vector<double>{0.1, 0.2}));
}

TEST(MsFormat, AcceptsLastHaplotypeWithoutNewline) {
  const auto reps = parse_text(two_site_replicate(" 0.1 0.2", "10\n01"));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].genotypes.samples(), 2u);
  EXPECT_EQ(reps[0].genotypes.snp_string(0), "10");
  EXPECT_EQ(reps[0].genotypes.snp_string(1), "01");
}

TEST(MsFormat, RejectsNonFinitePositionsAndCountMismatch) {
  for (const char* positions :
       {" nan 0.2", " inf 0.2", " 1e400 0.2", " 0x1p-3 0.2", " 0.1",
        " 0.1 0.2 0.3", " 0.1 junk 0.2", ""}) {
    EXPECT_THROW(parse_text(two_site_replicate(positions)), ParseError)
        << "positions:" << positions;
  }
}

TEST(MsFormat, RejectsCrlfLines) {
  EXPECT_THROW(parse_text(two_site_replicate(" 0.1 0.2", "10\r\n01\r\n")),
               ParseError);
}

TEST(MsFormat, RejectsSeparatorDirectlyAfterHaplotypes) {
  EXPECT_THROW(parse_text(two_site_replicate(" 0.1 0.2", "10\n01\n") +
                          two_site_replicate(" 0.3 0.4")),
               ParseError);
}

// --- ms parser vs a naive reference ----------------------------------------
// The reference reads the format line by line and character by character,
// the plainest way there is; the block parser must agree with it on every
// output bit, every position and every error message, for the file and the
// stream path at any team size.

struct RefReplicate {
  std::vector<double> positions;
  std::vector<std::string> haplotypes;
};

std::vector<RefReplicate> reference_parse(const std::string& text) {
  std::istringstream in(text);
  std::vector<RefReplicate> reps;
  std::string line;
  while (std::getline(in, line)) {
    if (line != "//") continue;
    RefReplicate& rep = reps.emplace_back();
    std::size_t segsites = 0;
    while (std::getline(in, line)) {
      if (line.rfind("segsites:", 0) == 0) {
        std::istringstream ss(line.substr(9));
        if (!(ss >> segsites)) throw ParseError("ms: bad segsites line");
        break;
      }
      if (!line.empty() && line != "//") {
        throw ParseError("ms: expected 'segsites:', got '" + line + "'");
      }
    }
    if (segsites == 0) continue;
    if (!std::getline(in, line) || line.rfind("positions:", 0) != 0) {
      throw ParseError("ms: expected 'positions:' line");
    }
    std::istringstream ss(line.substr(10));
    for (double p; ss >> p;) rep.positions.push_back(p);
    if (rep.positions.size() != segsites) {
      throw ParseError("ms: positions count (" +
                       std::to_string(rep.positions.size()) +
                       ") != segsites (" + std::to_string(segsites) + ")");
    }
    while (std::getline(in, line) && !line.empty()) {
      if (line == "//") {
        throw ParseError("ms: replicate separator inside haplotype block");
      }
      if (line.size() != segsites) {
        throw ParseError("ms: haplotype length " +
                         std::to_string(line.size()) + " != segsites " +
                         std::to_string(segsites));
      }
      rep.haplotypes.push_back(line);
    }
    if (rep.haplotypes.empty()) {
      throw ParseError("ms: replicate has no haplotypes");
    }
    for (std::size_t h = 0; h < rep.haplotypes.size(); ++h) {
      for (const char c : rep.haplotypes[h]) {
        if (c != '0' && c != '1') {
          throw ParseError(std::string("ms: invalid character '") + c +
                           "' in haplotype " + std::to_string(h));
        }
      }
    }
  }
  if (reps.empty()) throw ParseError("ms: no replicates ('//' blocks) found");
  return reps;
}

/// One replicate of random haplotypes, with a blank line after it.
std::string random_replicate(std::size_t segsites, std::size_t samples,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << std::setprecision(17) << "//\nsegsites: " << segsites
      << "\npositions:";
  for (std::size_t s = 0; s < segsites; ++s) {
    out << ' ' << (static_cast<double>(s) + rng.next_double()) /
                      static_cast<double>(segsites);
  }
  out << '\n';
  for (std::size_t h = 0; h < samples; ++h) {
    std::string row(segsites, '0');
    for (char& c : row) c = rng.next_bool(0.3) ? '1' : '0';
    out << row << '\n';
  }
  out << '\n';
  return out.str();
}

std::string ms_temp_path(const std::string& name) {
  return ::testing::TempDir() + "ldla_ms_" + name + ".ms";
}

/// Parses `text` with the reference, then with parse_ms and with
/// parse_ms_file at 1, 2 and 4 threads, and requires identical results or
/// identical ParseError messages.
void expect_matches_reference(const std::string& text,
                              const std::string& label) {
  std::vector<RefReplicate> want;
  std::string want_error;
  try {
    want = reference_parse(text);
  } catch (const ParseError& e) {
    want_error = e.what();
  }
  const std::string path = ms_temp_path("property");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  // Threads 0 stands for the stream path, which converts on the caller.
  for (const unsigned threads : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(label + (threads == 0 ? std::string(" stream")
                                       : " file threads " +
                                             std::to_string(threads)));
    std::vector<MsReplicate> got;
    try {
      if (threads == 0) {
        std::istringstream in(text);
        got = parse_ms(in);
      } else {
        got = parse_ms_file(path, threads);
      }
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), want_error);
      continue;
    }
    ASSERT_EQ(want_error, "") << "accepted what the reference rejects";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      const BitMatrix& g = got[r].genotypes;
      EXPECT_EQ(got[r].positions, want[r].positions);
      ASSERT_EQ(g.samples(), want[r].haplotypes.size());
      ASSERT_EQ(g.snps(), want[r].positions.size());
      EXPECT_TRUE(g.padding_is_clean());
      for (std::size_t h = 0; h < g.samples(); ++h) {
        for (std::size_t s = 0; s < g.snps(); ++s) {
          ASSERT_EQ(g.get(s, h), want[r].haplotypes[h][s] == '1')
              << "SNP " << s << " haplotype " << h;
        }
      }
    }
  }
  std::remove(path.c_str());
}

constexpr std::size_t kBoundaryShapes[] = {1, 63, 64, 65, 127, 129, 200};

TEST(MsFormatProperty, BlockBoundaryShapesMatchReference) {
  std::uint64_t seed = 1;
  for (const std::size_t segsites : kBoundaryShapes) {
    for (const std::size_t samples : kBoundaryShapes) {
      expect_matches_reference(
          "ms " + std::to_string(samples) + " 1\n\n" +
              random_replicate(segsites, samples, seed++),
          std::to_string(segsites) + "x" + std::to_string(samples));
    }
  }
}

// Shapes whose conversion runs on the pool (rounds of 256 KiB or more):
// split by stripes of blocks (200 x 4000, in its last round) and by SNP
// words within one stripe (4000 x 300).
TEST(MsFormatProperty, ParallelShapesMatchReference) {
  expect_matches_reference(random_replicate(200, 4000, 11), "200x4000");
  expect_matches_reference(random_replicate(4000, 300, 12), "4000x300");
}

TEST(MsFormatProperty, MultiReplicateStreamsMatchReference) {
  std::string text = "ms 65 3 -t 5\n1 2 3\n\n";
  text += random_replicate(129, 65, 21);
  text += random_replicate(64, 65, 22);
  text += "//\nsegsites: 0\n\n";
  text += random_replicate(1000, 300, 23);
  expect_matches_reference(text, "four replicates");
  // The last haplotype line without its newline, and no blank line.
  text += random_replicate(63, 127, 24);
  text.resize(text.size() - 2);
  expect_matches_reference(text, "unterminated tail");
  // A blank line the block-end probes step over: the junk lines after it
  // fall on the row stride and read as haplotypes, but the block ends at
  // the blank line and the rest is skipped.
  std::string strided = "//\nsegsites: 2\npositions: 0.1 0.2\n10\n01\n\n0\n";
  for (int i = 0; i < 8; ++i) strided += "11\n00\n";
  expect_matches_reference(strided, "blank line between strided rows");
}

TEST(MsFormatProperty, OneBadByteAnywhereThrows) {
  struct Shape {
    std::size_t segsites;
    std::size_t samples;
  };
  for (const Shape shape : {Shape{129, 200}, Shape{200, 4000},
                            Shape{4000, 300}, Shape{65, 127}}) {
    const std::string good = random_replicate(shape.segsites, shape.samples,
                                              shape.segsites * shape.samples);
    const std::size_t header = good.find('\n', good.find("positions:")) + 1;
    const std::size_t stride = shape.segsites + 1;
    const std::size_t last_word = shape.segsites / 64 * 64;
    struct Spot {
      const char* where;
      std::size_t row;
      std::size_t col;
    };
    const Spot spots[] = {
        {"row 0", 0, shape.segsites / 2},
        {"middle block", shape.samples / 2 / 64 * 64 + 5, 1},
        {"last partial block", shape.samples - 1, shape.segsites - 1},
        {"last partial word", shape.samples / 3,
         std::min(last_word, shape.segsites - 1)},
    };
    for (const Spot& spot : spots) {
      for (const char bad : {'2', '\n', '/'}) {
        std::string text = good;
        text[header + spot.row * stride + spot.col] = bad;
        const std::string label = std::to_string(shape.segsites) + "x" +
                                  std::to_string(shape.samples) + " " +
                                  spot.where + " byte " +
                                  std::to_string(static_cast<int>(bad));
        EXPECT_THROW(reference_parse(text), ParseError) << label;
        expect_matches_reference(text, label);
      }
    }
  }
}

TEST(MsFormat, MissingFileThrows) {
  EXPECT_THROW(parse_ms_file("/nonexistent/path.ms"), Error);
}

// A file is read 64 KiB at a time per converting thread: at 4000 SNPs that
// is 16 rows, so each 64-row block takes four reads and the last, partial
// block ends in a read cut short by EOF.
TEST(MsFormatProperty, FileReadsSplitAtRowBoundaries) {
  constexpr std::size_t kSegsites = 4000;
  constexpr std::size_t kStride = kSegsites + 1;
  constexpr std::size_t kReadRows = (std::size_t{64} << 10) / kStride;
  const std::string good = random_replicate(kSegsites, 300, 51);
  const std::size_t header = good.find('\n', good.find("positions:")) + 1;
  expect_matches_reference(good, "good");
  std::string unterminated = good;
  unterminated.resize(unterminated.size() - 2);
  expect_matches_reference(unterminated, "last line without newline");
  for (const std::size_t row : {kReadRows - 1, kReadRows, 64 + kReadRows,
                                std::size_t{299}}) {
    for (const std::size_t col : {std::size_t{0}, kSegsites}) {
      std::string text = good;
      text[header + row * kStride + col] = '2';
      expect_matches_reference(text, "bad byte in row " + std::to_string(row) +
                                         " column " + std::to_string(col));
    }
  }
}

/// `reps` replicates of `samples` random haplotypes over `segsites` sites,
/// the positions lines padded so that the bytes between two haplotype
/// blocks are a whole number of rows. The rows of every later replicate
/// then fall on the first one's stride, as they can in `ms N R -s S`
/// output, where every header has the same length.
std::string strided_replicates(std::size_t segsites, std::size_t samples,
                               std::size_t reps, std::uint64_t seed) {
  Rng rng(seed);
  std::string text = "ms " + std::to_string(samples) + " " +
                     std::to_string(reps) + " -s " + std::to_string(segsites) +
                     "\n1 2 3\n";
  for (std::size_t r = 0; r < reps; ++r) {
    std::string gap =
        "\n//\nsegsites: " + std::to_string(segsites) + "\npositions:";
    for (std::size_t s = 0; s < segsites; ++s) {
      gap += " 0." + std::to_string(100000 + s);
    }
    while ((gap.size() + 1) % (segsites + 1) != 0) gap += '0';
    text += gap + '\n';
    for (std::size_t h = 0; h < samples; ++h) {
      for (std::size_t s = 0; s < segsites; ++s) {
        text += rng.next_bool(0.3) ? '1' : '0';
      }
      text += '\n';
    }
  }
  return text + '\n';
}

/// Haplotype rows the ms parser allocated output for while parsing `path`.
std::uint64_t rows_allocated(const std::string& path, unsigned threads) {
  const metrics::Counter& c = metrics::counter(
      "ldla_ms_rows_allocated_total",
      "haplotype rows the ms parser sized its output matrices for");
  const std::uint64_t before = c.value();
  (void)parse_ms_file(path, threads);
  return c.value() - before;
}

// Every replicate's output is sized by its own rows, not by the rows of
// the later replicates that line up behind it on the same stride.
TEST(MsFormatProperty, StridedReplicatesAllocateTheirOwnRows) {
  const struct {
    std::size_t segsites;
    std::size_t samples;
    std::size_t reps;
  } cases[] = {{10, 2, 2000}, {10, 100, 100}, {100, 5000, 3}};
  for (const auto& c : cases) {
    const std::string label = "ms " + std::to_string(c.samples) + " " +
                              std::to_string(c.reps) + " -s " +
                              std::to_string(c.segsites);
    const std::string text =
        strided_replicates(c.segsites, c.samples, c.reps, c.samples);
    expect_matches_reference(text, label);
    const std::string path = ms_temp_path("strided");
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_LE(rows_allocated(path, threads),
                4 * c.reps * std::max<std::size_t>(c.samples, 512))
          << label << " threads " << threads;
    }
    std::remove(path.c_str());
  }
}

// A pipe has no offsets to read at: it is taken whole and converted from
// memory, by the same team as a file.
TEST(MsFormat, PipeMatchesFile) {
  const std::string text = strided_replicates(100, 5000, 3, 61);
  const std::string path = ms_temp_path("pipe_ref");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const std::string fifo = ms_temp_path("fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << text;
  });
  const std::vector<MsReplicate> got = parse_ms_file(fifo, 4);
  writer.join();
  const std::vector<MsReplicate> want = parse_ms_file(path, 4);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    const BitMatrix& a = got[r].genotypes;
    const BitMatrix& b = want[r].genotypes;
    EXPECT_EQ(got[r].positions, want[r].positions);
    ASSERT_EQ(a.snps(), b.snps());
    ASSERT_EQ(a.samples(), b.samples());
    for (std::size_t s = 0; s < a.snps(); ++s) {
      ASSERT_EQ(std::memcmp(a.row_data(s), b.row_data(s),
                            a.words_per_snp() * sizeof(std::uint64_t)),
                0)
          << "replicate " << r << " SNP " << s;
    }
  }
  std::remove(fifo.c_str());
  std::remove(path.c_str());
}

// --- VCF -------------------------------------------------------------------

constexpr const char* kVcfSample =
    "##fileformat=VCFv4.2\n"
    "##source=test\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\n"
    "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
    "1\t250\trs2\tC\tT\t.\tPASS\t.\tGT:DP\t1|0:12\t0|0:9\t0|1:30\n";

TEST(VcfLite, ParsesPhasedDiploidRecords) {
  std::istringstream in(kVcfSample);
  const VcfData d = parse_vcf(in);
  EXPECT_EQ(d.genotypes.snps(), 2u);
  EXPECT_EQ(d.genotypes.samples(), 6u);  // 3 individuals x 2 haplotypes
  ASSERT_EQ(d.positions.size(), 2u);
  EXPECT_EQ(d.positions[0], 100u);
  EXPECT_EQ(d.positions[1], 250u);
  EXPECT_EQ(d.ids[0], "rs1");
  EXPECT_EQ(d.genotypes.snp_string(0), "011100");
  EXPECT_EQ(d.genotypes.snp_string(1), "100001");
}

TEST(VcfLite, MultiAllelicSiteThrowsOrSkips) {
  const std::string vcf =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\tG,T\t.\t.\t.\tGT\t1|2\n"
      "1\t20\t.\tA\tG\t.\t.\t.\tGT\t1|0\n";
  {
    std::istringstream in(vcf);
    EXPECT_THROW(parse_vcf(in), ParseError);
  }
  {
    std::istringstream in(vcf);
    const VcfData d = parse_vcf(in, /*skip_invalid=*/true);
    EXPECT_EQ(d.genotypes.snps(), 1u);
    EXPECT_EQ(d.skipped, 1u);
    EXPECT_EQ(d.positions[0], 20u);
  }
}

TEST(VcfLite, MissingGenotypeThrowsOrSkips) {
  const std::string vcf =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\tG\t.\t.\t.\tGT\t.|.\n";
  std::istringstream in(vcf);
  EXPECT_THROW(parse_vcf(in), ParseError);
  std::istringstream in2(vcf);
  const VcfData d = parse_vcf(in2, true);
  EXPECT_EQ(d.genotypes.snps(), 0u);
  EXPECT_EQ(d.skipped, 1u);
}

TEST(VcfLite, RecordBeforeHeaderThrows) {
  std::istringstream in("1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0\n");
  EXPECT_THROW(parse_vcf(in), ParseError);
}

TEST(VcfLite, TruncatedRecordThrows) {
  std::istringstream in(
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t10\t.\tA\n");
  EXPECT_THROW(parse_vcf(in), ParseError);
}

// --- ldm binary --------------------------------------------------------------

TEST(LdmBinary, RoundTrips) {
  WrightFisherParams p;
  p.n_snps = 29;
  p.n_samples = 133;
  p.seed = 6;
  const BitMatrix m = simulate_genotypes(p);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(io, m);
  const BitMatrix back = read_ldm(io);
  ASSERT_EQ(back.snps(), m.snps());
  ASSERT_EQ(back.samples(), m.samples());
  for (std::size_t s = 0; s < m.snps(); ++s) {
    EXPECT_EQ(back.snp_string(s), m.snp_string(s));
  }
}

TEST(LdmBinary, RejectsBadMagic) {
  std::stringstream io;
  io << "NOTLDM00" << std::string(64, '\0');
  EXPECT_THROW(read_ldm(io), ParseError);
}

TEST(LdmBinary, RejectsTruncatedPayload) {
  const BitMatrix m(4, 100);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(io, m);
  std::string bytes = io.str();
  bytes.resize(bytes.size() - 8);  // chop one word
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(read_ldm(in), ParseError);
}

// --- matrix writer -----------------------------------------------------------

TEST(MatrixWriter, CsvHasExpectedShapeAndNan) {
  LdMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 1) = 0.25;
  m(0, 2) = std::numeric_limits<double>::quiet_NaN();
  m(1, 2) = -0.5;
  std::ostringstream out;
  write_matrix_csv(out, m);
  EXPECT_EQ(out.str(), "1,0.25,nan\n0,0,-0.5\n");
}

TEST(MatrixWriter, TopPairsRanksDescendingLowerTriangle) {
  LdMatrix m(4, 4);
  m(1, 0) = m(0, 1) = 0.3;
  m(2, 0) = m(0, 2) = 0.9;
  m(2, 1) = m(1, 2) = std::numeric_limits<double>::quiet_NaN();
  m(3, 2) = m(2, 3) = 0.5;
  const auto pairs = top_pairs(m, 10);
  ASSERT_EQ(pairs.size(), 5u);  // 6 lower pairs minus 1 NaN
  EXPECT_EQ(pairs[0].i, 2u);
  EXPECT_EQ(pairs[0].j, 0u);
  EXPECT_DOUBLE_EQ(pairs[0].value, 0.9);
  EXPECT_DOUBLE_EQ(pairs[1].value, 0.5);
  EXPECT_DOUBLE_EQ(pairs[2].value, 0.3);
}

TEST(MatrixWriter, TopPairsTruncatesToCount) {
  LdMatrix m(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      m(i, j) = static_cast<double>(i + j) / 10.0;
    }
  }
  EXPECT_EQ(top_pairs(m, 3).size(), 3u);
}

TEST(MatrixWriter, TopPairsRejectsRectangular) {
  LdMatrix m(2, 3);
  EXPECT_THROW((void)top_pairs(m, 1), ContractViolation);
}

TEST(MatrixWriter, ReportRendersRows) {
  std::ostringstream out;
  write_top_pairs(out, {{3, 1, 0.75}}, "r^2");
  const std::string s = out.str();
  EXPECT_NE(s.find("r^2"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

}  // namespace
}  // namespace ldla

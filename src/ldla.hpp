// Umbrella header: the full public API of ldla.
//
// ldla — Linkage Disequilibrium as dense Linear Algebra. A from-scratch
// reproduction of Alachiotis, Popovici & Low, "Efficient Computation of
// Linkage Disequilibria as Dense Linear Algebra Operations" (IPPS 2016).
//
// Typical use:
//
//   #include "ldla.hpp"
//   ldla::BitMatrix g = ldla::parse_ms_file("data.ms")[0].genotypes;
//   ldla::LdOptions opts;
//   opts.threads = 0;                                  // all cores
//   ldla::LdMatrix r2 = ldla::ld_matrix(g, opts);      // all-pairs r^2
//
// See README.md for a tour and DESIGN.md for the architecture.
#pragma once

#include "core/bit_matrix.hpp"      // packed genomic matrix (Fig. 2 layout)
#include "core/popcount.hpp"        // popcount backend suite (Sections IV/V)
#include "core/gemm/config.hpp"     // blocking / kernel configuration
#include "core/gemm/count_matrix.hpp"
#include "core/gemm/macro.hpp"      // rectangular popcount-GEMM
#include "core/gemm/packed_bit_matrix.hpp"  // persistent packed operand
#include "core/gemm/syrk.hpp"       // symmetric count driver
#include "core/ld.hpp"              // D / D' / r^2 statistics and drivers
#include "core/ld_stream.hpp"       // out-of-core streaming drivers
#include "core/band.hpp"            // banded scans and LD-decay profiles
#include "core/ld_blocks.hpp"       // haplotype-block partitioning
#include "core/genotype_ld.hpp"     // genotype-dosage LD at GEMM speed
#include "core/higher_order.hpp"    // three-locus disequilibrium
#include "core/missing.hpp"         // alignment-gap extension (Section VII)
#include "core/fsm.hpp"             // finite-sites extension (Section VII)
#include "core/tanimoto.hpp"        // fingerprint similarity (Section VII)
#include "baselines/naive.hpp"      // oracles
#include "baselines/plink_like.hpp" // PLINK-1.9-style comparator
#include "baselines/omegaplus_like.hpp"  // OmegaPlus-style comparator
#include "omega/omega_stat.hpp"     // Kim-Nielsen omega statistic
#include "omega/sweep_scan.hpp"     // selective-sweep scan
#include "io/ms_format.hpp"         // Hudson ms I/O
#include "io/vcf_lite.hpp"          // minimal VCF reader
#include "io/ldm_binary.hpp"        // binary matrix snapshots
#include "io/matrix_writer.hpp"     // CSV / report writers
#include "io/shard_store.hpp"       // mmap'd out-of-core shard store
#include "io/tile_store.hpp"        // indexed compressed stat-tile store
#include "sim/wright_fisher.hpp"    // dataset simulator
#include "sim/maf_spectrum.hpp"     // SFS-controlled rare-variant panels
#include "sim/sweep_sim.hpp"        // sweep simulator
#include "sim/fingerprint_sim.hpp"  // fingerprint simulator

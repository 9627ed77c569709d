// Shared declarations of the end-to-end benchmark program.
//
// The program has two subcommands. `gen` writes a workload's inputs
// (.mtx files plus a manifest of digests) from a seed with the
// benchmark's own generators and writer. `run` ingests them through the
// library, builds every plan, measures for a fixed time and checks every
// output against the benchmark's own double-precision computation; with
// --trace 1 it measures the library layer by layer instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace perfbench {

using rrspmm::index_t;
using rrspmm::offset_t;
using rrspmm::value_t;
using Clock = std::chrono::steady_clock;

/// Time point taken during static initialisation, i.e. as close to the
/// process start as portable code gets. setup_s counts from here.
extern const Clock::time_point kProcessStart;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's own generator, independent of the
/// library's synth module so inputs stay fixed across library changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9E3779B97F4A7C15ULL + b);
  return r.next();
}

/// The benchmark's own CSR: what a generator produces.
struct Csr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<offset_t> rowptr{0};
  std::vector<index_t> colidx;
  std::vector<value_t> values;
  offset_t nnz() const { return static_cast<offset_t>(colidx.size()); }
};

/// One matrix of a workload. `family` names the generator; `clustered`
/// marks families whose rows come in communities, on which reordering
/// must raise the consecutive-row Jaccard.
struct MatrixSpec {
  std::string name;
  std::string family;
  bool clustered = false;
  index_t rows = 0;
  index_t cols = 0;
  index_t a = 0;  ///< family parameter (see gen.cpp)
  index_t b = 0;  ///< family parameter
  index_t c = 0;  ///< family parameter
};

struct WorkloadSpec {
  std::string name;
  std::vector<MatrixSpec> matrices;
  index_t k = 0;          ///< dense operand width
  bool served = false;    ///< runtime::Server path instead of core::run_*
};

/// Throws std::invalid_argument for an unknown workload name.
WorkloadSpec workload(const std::string& name);

Csr generate(const MatrixSpec& spec, std::uint64_t seed);
void write_mtx(const Csr& m, const std::string& path);

/// FNV-1a over shape, rowptr, colidx and value bits.
std::uint64_t digest(index_t rows, index_t cols, const std::vector<offset_t>& rowptr,
                     const std::vector<index_t>& colidx, const std::vector<value_t>& values);

/// What the generator recorded per matrix, read back by `run`.
struct ManifestEntry {
  std::string name;
  index_t rows = 0;
  index_t cols = 0;
  offset_t nnz = 0;
  std::uint64_t digest = 0;
  std::uintmax_t bytes = 0;
};
std::vector<ManifestEntry> read_manifest(const std::string& dir);
void write_manifest(const std::string& dir, const std::vector<ManifestEntry>& entries);

// ---- independent checks (reference.cpp) -------------------------------

/// Dense operand filled from (seed, salt) with small dyadic values, so
/// every element is exact in float and the reference is reproducible.
rrspmm::sparse::DenseMatrix make_operand(index_t rows, index_t cols, std::uint64_t seed,
                                         std::uint64_t salt);

/// The operands of one matrix: X for SpMM and SDDMM, Y for SDDMM.
struct Operands {
  rrspmm::sparse::DenseMatrix x;
  rrspmm::sparse::DenseMatrix y;
};
std::vector<Operands> make_operands(const std::vector<rrspmm::sparse::CsrMatrix>& mats,
                                    index_t k, std::uint64_t seed);

/// Rows (SpMM) or rows whose nonzeros (SDDMM) one operation's check
/// samples; a deterministic function of the operation's ordinal.
std::vector<index_t> sample_rows(index_t rows, std::uint64_t op);

/// Poisons what a check will read, so a result that was never written
/// cannot pass as a stale correct one.
void poison_rows(value_t* y, index_t ld, index_t k, const std::vector<index_t>& rows);
void poison_nnz(const rrspmm::sparse::CsrMatrix& m, value_t* out,
                const std::vector<index_t>& rows);

/// Forward-error checks in double precision against the CSR and the
/// operands. True when every sampled element is within tolerance.
bool check_spmm(const rrspmm::sparse::CsrMatrix& m, const rrspmm::sparse::DenseMatrix& x,
                const value_t* y, index_t ld, const std::vector<index_t>& rows);
bool check_sddmm(const rrspmm::sparse::CsrMatrix& m, const rrspmm::sparse::DenseMatrix& x,
                 const rrspmm::sparse::DenseMatrix& y, const value_t* out,
                 const std::vector<index_t>& rows);

/// Mean Jaccard of consecutive non-empty rows visited in `order`.
double consecutive_jaccard(const rrspmm::sparse::CsrMatrix& m, const std::vector<index_t>& order);

/// ASpT dense-tile nonzero ratio, recomputed from the definition.
double tile_dense_ratio(const rrspmm::sparse::CsrMatrix& m, const rrspmm::aspt::AsptConfig& cfg);

/// Method properties of one plan (see README): permutations, nnz kept
/// by tiling, the §4 round-1 rule and, for clustered families, a plan
/// order more similar than the input order. Appends a line per
/// violation to `errors`.
void check_plan(const MatrixSpec& spec, const rrspmm::sparse::CsrMatrix& m,
                const rrspmm::core::ExecutionPlan& plan, std::vector<std::string>& errors);

// ---- modes -------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
};

/// End-to-end run. Prints the result line; returns the exit code.
int run_end_to_end(const RunArgs& args);
/// Per-layer traced run. Prints the result line; returns the exit code.
int run_traced(const RunArgs& args);

/// Ingests every manifest entry through io and checks each against its
/// digest (errors appended). Returns the matrices in manifest order.
std::vector<rrspmm::sparse::CsrMatrix> ingest_all(const std::string& dir,
                                                  const std::vector<ManifestEntry>& manifest,
                                                  std::vector<std::string>& errors);

double percentile(std::vector<double> v, double q);
/// percentile() of a vector already sorted ascending; no copy.
double sorted_percentile(const std::vector<double>& v, double q);
double median(std::vector<double> v);
double peak_rss_mib();

/// Prints the final JSON result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench

// The benchmark's independent checks: double-precision SpMM/SDDMM
// references with forward-error tolerances, and the method properties
// of every plan, each recomputed here from definitions rather than read
// from the library's own statistics.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

using rrspmm::sparse::CsrMatrix;
using rrspmm::sparse::DenseMatrix;

namespace {

/// Unit roundoff of float, and the γ_n forward-error factor of an
/// n-term float dot product against an exact reference (doubled for
/// margin: the kernels may sum in any order).
constexpr double kUnit = 0x1.0p-24;
double gamma_n(std::int64_t n) { return 2.0 * static_cast<double>(n + 2) * kUnit; }

bool is_permutation(const std::vector<index_t>& p, index_t n) {
  if (static_cast<index_t>(p.size()) != n) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (index_t v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

double jaccard(std::span<const index_t> a, std::span<const index_t> b) {
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const std::size_t uni = a.size() + b.size() - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
}

}  // namespace

DenseMatrix make_operand(index_t rows, index_t cols, std::uint64_t seed, std::uint64_t salt) {
  DenseMatrix d = DenseMatrix::aligned(rows, cols);
  Rng rng(mix(seed, salt));
  for (index_t i = 0; i < rows; ++i) {
    auto row = d.row(i);
    for (index_t j = 0; j < cols; ++j) {
      row[static_cast<std::size_t>(j)] =
          static_cast<value_t>(static_cast<int>(rng.below(33)) - 16) / 16.0f;
    }
  }
  return d;
}

std::vector<Operands> make_operands(const std::vector<CsrMatrix>& mats, index_t k,
                                    std::uint64_t seed) {
  std::vector<Operands> out;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    out.push_back({make_operand(mats[i].cols(), k, seed, 2 * i + 1),
                   make_operand(mats[i].rows(), k, seed, 2 * i + 2)});
  }
  return out;
}

std::vector<index_t> sample_rows(index_t rows, std::uint64_t op) {
  constexpr int kSamples = 8;
  std::vector<index_t> out;
  Rng rng(mix(op, 0x5a11));
  for (int s = 0; s < kSamples; ++s) {
    out.push_back(static_cast<index_t>(rng.below(static_cast<std::uint64_t>(rows))));
  }
  return out;
}

void poison_rows(value_t* y, index_t ld, index_t k, const std::vector<index_t>& rows) {
  for (index_t i : rows) {
    std::fill_n(y + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld), k,
                std::numeric_limits<value_t>::quiet_NaN());
  }
}

void poison_nnz(const CsrMatrix& m, value_t* out, const std::vector<index_t>& rows) {
  for (index_t i : rows) {
    const offset_t b = m.rowptr()[static_cast<std::size_t>(i)];
    std::fill_n(out + b, m.row_nnz(i), std::numeric_limits<value_t>::quiet_NaN());
  }
}

bool check_spmm(const CsrMatrix& m, const DenseMatrix& x, const value_t* y, index_t ld,
                const std::vector<index_t>& rows) {
  const index_t k = x.cols();
  std::vector<double> ref(static_cast<std::size_t>(k)), mag(static_cast<std::size_t>(k));
  for (index_t i : rows) {
    std::fill(ref.begin(), ref.end(), 0.0);
    std::fill(mag.begin(), mag.end(), 0.0);
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const auto xr = x.row(cols[p]);
      for (index_t c = 0; c < k; ++c) {
        const double t = static_cast<double>(vals[p]) * xr[static_cast<std::size_t>(c)];
        ref[static_cast<std::size_t>(c)] += t;
        mag[static_cast<std::size_t>(c)] += std::fabs(t);
      }
    }
    const value_t* yr = y + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
    const double g = gamma_n(static_cast<std::int64_t>(cols.size()));
    for (index_t c = 0; c < k; ++c) {
      const double err = std::fabs(static_cast<double>(yr[c]) - ref[static_cast<std::size_t>(c)]);
      if (!(err <= g * mag[static_cast<std::size_t>(c)])) return false;
    }
  }
  return true;
}

bool check_sddmm(const CsrMatrix& m, const DenseMatrix& x, const DenseMatrix& y,
                 const value_t* out, const std::vector<index_t>& rows) {
  const index_t k = x.cols();
  const double g = gamma_n(k);
  for (index_t i : rows) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    const offset_t base = m.rowptr()[static_cast<std::size_t>(i)];
    const auto yr = y.row(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const auto xr = x.row(cols[p]);
      double dot = 0.0, mag = 0.0;
      for (index_t c = 0; c < k; ++c) {
        const double t = static_cast<double>(yr[static_cast<std::size_t>(c)]) *
                         xr[static_cast<std::size_t>(c)];
        dot += t;
        mag += std::fabs(t);
      }
      const double ref = static_cast<double>(vals[p]) * dot;
      const double bound = g * std::fabs(static_cast<double>(vals[p])) * mag;
      const double err = std::fabs(static_cast<double>(out[base + static_cast<offset_t>(p)]) - ref);
      if (!(err <= bound)) return false;
    }
  }
  return true;
}

double consecutive_jaccard(const CsrMatrix& m, const std::vector<index_t>& order) {
  index_t prev = -1;
  double sum = 0.0;
  std::int64_t pairs = 0;
  for (index_t i : order) {
    if (m.row_nnz(i) == 0) continue;
    if (prev >= 0) {
      sum += jaccard(m.row_cols(prev), m.row_cols(i));
      ++pairs;
    }
    prev = i;
  }
  return pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
}

double tile_dense_ratio(const CsrMatrix& m, const rrspmm::aspt::AsptConfig& cfg) {
  if (m.nnz() == 0) return 0.0;
  std::vector<index_t> count(static_cast<std::size_t>(m.cols()), 0);
  std::vector<index_t> touched, dense;
  offset_t nnz_dense = 0;
  for (index_t rb = 0; rb < m.rows(); rb += cfg.panel_rows) {
    const index_t re = std::min(m.rows(), rb + cfg.panel_rows);
    touched.clear();
    for (index_t i = rb; i < re; ++i) {
      for (index_t c : m.row_cols(i)) {
        if (count[static_cast<std::size_t>(c)]++ == 0) touched.push_back(c);
      }
    }
    dense.clear();
    for (index_t c : touched) {
      const index_t n = count[static_cast<std::size_t>(c)];
      if (n >= cfg.dense_col_threshold) dense.push_back(n);
      count[static_cast<std::size_t>(c)] = 0;
    }
    // The tile keeps the max_dense_cols most occupied columns.
    std::sort(dense.begin(), dense.end(), std::greater<>());
    if (static_cast<index_t>(dense.size()) > cfg.max_dense_cols) {
      dense.resize(static_cast<std::size_t>(cfg.max_dense_cols));
    }
    nnz_dense += std::accumulate(dense.begin(), dense.end(), offset_t{0});
  }
  return static_cast<double>(nnz_dense) / static_cast<double>(m.nnz());
}

void check_plan(const MatrixSpec& spec, const CsrMatrix& m,
                const rrspmm::core::ExecutionPlan& plan, std::vector<std::string>& errors) {
  const rrspmm::core::PipelineConfig defaults;
  auto fail = [&](const std::string& what) { errors.push_back(spec.name + ": " + what); };

  if (!is_permutation(plan.row_perm, m.rows())) fail("row_perm is not a permutation");
  if (!is_permutation(plan.sparse_order, m.rows())) fail("sparse_order is not a permutation");

  offset_t kept = plan.tiled.sparse_part().nnz();
  for (const auto& p : plan.tiled.panels()) kept += p.nnz();
  if (kept != m.nnz() || plan.tiled.stats().nnz_total != m.nnz()) fail("tiling lost nonzeros");

  // §4: round 1 runs exactly when the input does not already tile
  // densely (dense ratio at or below the skip threshold).
  const double before = tile_dense_ratio(m, defaults.aspt);
  if (std::fabs(before - plan.stats.dense_ratio_before) > 1e-9) {
    fail("plan's dense_ratio_before " + std::to_string(plan.stats.dense_ratio_before) +
         " differs from the definition's " + std::to_string(before));
  }
  const bool skip = before > defaults.dense_ratio_skip;
  if (skip && plan.stats.round1_applied) fail("round 1 ran on an input that tiles densely");
  if (!skip && !plan.stats.round1_applied) fail("round 1 skipped on a sparse-tiling input");

  // Where round 1 ran on a clustered family, its order must bring
  // similar rows together.
  if (spec.clustered && plan.stats.round1_applied && is_permutation(plan.row_perm, m.rows())) {
    std::vector<index_t> ident(static_cast<std::size_t>(m.rows()));
    std::iota(ident.begin(), ident.end(), 0);
    const double in = consecutive_jaccard(m, ident);
    const double out = consecutive_jaccard(m, plan.row_perm);
    if (!(out > in)) {
      fail("plan order Jaccard " + std::to_string(out) + " not above input order " +
           std::to_string(in));
    }
  }
}

}  // namespace perfbench

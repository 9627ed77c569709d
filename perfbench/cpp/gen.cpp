// Workload definitions, the benchmark's own matrix generators, its own
// Matrix Market writer and the manifest that carries each matrix's
// digest from the generation step to the measured run.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

namespace {

MatrixSpec clustered(std::string name, index_t rows, index_t cols, index_t groups,
                     index_t group_cols, index_t row_nnz) {
  return {std::move(name), "clustered", true, rows, cols, groups, group_cols, row_nnz};
}
MatrixSpec banded(std::string name, index_t rows, index_t half_band) {
  return {std::move(name), "banded", false, rows, rows, half_band, 0, 0};
}
MatrixSpec uniform(std::string name, index_t rows, index_t cols, index_t row_nnz) {
  return {std::move(name), "uniform", false, rows, cols, row_nnz, 0, 0};
}
MatrixSpec power_law(std::string name, index_t rows, index_t cols, index_t min_len,
                     index_t cap) {
  return {std::move(name), "power_law", false, rows, cols, min_len, cap, 0};
}
MatrixSpec scrna(std::string name, index_t cells, index_t genes, index_t types,
                 index_t program, index_t row_nnz) {
  return {std::move(name), "scrna", true, cells, genes, types, program, row_nnz};
}
MatrixSpec dlmc(std::string name, index_t rows, index_t cols, index_t per_mille) {
  return {std::move(name), "dlmc", false, rows, cols, per_mille, 0, 0};
}

/// Small dyadic values: exact in float and in a shortest decimal, so a
/// Matrix Market round trip is exact.
value_t draw_value(Rng& rng) {
  const std::uint64_t r = rng.next();
  const value_t mag = static_cast<value_t>((r % 64) + 1) / 64.0f;
  return (r & 64) ? -mag : mag;
}

/// Appends row `cols` (any order, no duplicates) to `m`, sorted.
void push_row(Csr& m, std::vector<index_t>& cols, Rng& rng) {
  std::sort(cols.begin(), cols.end());
  for (index_t c : cols) {
    m.colidx.push_back(c);
    m.values.push_back(draw_value(rng));
  }
  m.rowptr.push_back(static_cast<offset_t>(m.colidx.size()));
}

std::vector<index_t> sample_distinct(Rng& rng, index_t n, index_t k) {
  std::unordered_set<index_t> seen;
  std::vector<index_t> out;
  k = std::min(k, n);
  while (static_cast<index_t>(out.size()) < k) {
    const auto c = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    if (seen.insert(c).second) out.push_back(c);
  }
  return out;
}

/// Rows belong to `a` communities of equal size, assigned in scattered
/// order; each draws `c` columns from its community's pool of `b`
/// columns plus one uniform noise column.
Csr gen_clustered(const MatrixSpec& s, Rng& rng) {
  std::vector<std::vector<index_t>> pools;
  for (index_t g = 0; g < s.a; ++g) pools.push_back(sample_distinct(rng, s.cols, s.b));
  std::vector<index_t> group(static_cast<std::size_t>(s.rows));
  for (index_t i = 0; i < s.rows; ++i) {
    group[static_cast<std::size_t>(i)] =
        static_cast<index_t>(static_cast<std::int64_t>(i) * s.a / s.rows);
  }
  for (std::size_t i = group.size(); i > 1; --i) std::swap(group[i - 1], group[rng.below(i)]);

  Csr m{s.rows, s.cols, {0}, {}, {}};
  std::vector<index_t> cols;
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < s.rows; ++i) {
    const auto& pool = pools[static_cast<std::size_t>(group[static_cast<std::size_t>(i)])];
    cols.clear();
    used.clear();
    while (static_cast<index_t>(cols.size()) < std::min(s.c, s.b)) {
      const index_t c = pool[rng.below(pool.size())];
      if (used.insert(c).second) cols.push_back(c);
    }
    const auto noise = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(s.cols)));
    if (used.insert(noise).second) cols.push_back(noise);
    push_row(m, cols, rng);
  }
  return m;
}

/// FEM-like band: each column within `a` of the diagonal with
/// probability 3/4 (the diagonal always).
Csr gen_banded(const MatrixSpec& s, Rng& rng) {
  Csr m{s.rows, s.cols, {0}, {}, {}};
  std::vector<index_t> cols;
  for (index_t i = 0; i < s.rows; ++i) {
    cols.clear();
    for (index_t j = std::max<index_t>(0, i - s.a); j <= std::min<index_t>(s.cols - 1, i + s.a);
         ++j) {
      if (j == i || rng.below(4) != 0) cols.push_back(j);
    }
    push_row(m, cols, rng);
  }
  return m;
}

/// Erdős–Rényi-like: `a` uniform distinct columns per row.
Csr gen_uniform(const MatrixSpec& s, Rng& rng) {
  Csr m{s.rows, s.cols, {0}, {}, {}};
  for (index_t i = 0; i < s.rows; ++i) {
    auto cols = sample_distinct(rng, s.cols, s.a);
    push_row(m, cols, rng);
  }
  return m;
}

/// Pareto(2) row lengths from `a` (capped at `b`), columns skewed
/// towards a scattered set of popular columns.
Csr gen_power_law(const MatrixSpec& s, Rng& rng) {
  std::vector<index_t> rank(static_cast<std::size_t>(s.cols));
  for (index_t j = 0; j < s.cols; ++j) rank[static_cast<std::size_t>(j)] = j;
  for (std::size_t j = rank.size(); j > 1; --j) std::swap(rank[j - 1], rank[rng.below(j)]);

  Csr m{s.rows, s.cols, {0}, {}, {}};
  std::vector<index_t> cols;
  std::unordered_set<index_t> used;
  for (index_t i = 0; i < s.rows; ++i) {
    const double u = rng.uniform();
    const auto len = static_cast<index_t>(
        std::min<double>(s.b, std::floor(s.a / std::sqrt(1.0 - u))));
    cols.clear();
    used.clear();
    while (static_cast<index_t>(cols.size()) < std::min(len, s.cols)) {
      const double v = rng.uniform();
      const auto r = static_cast<std::size_t>(v * v * v * s.cols);
      const index_t c = rank[std::min(r, rank.size() - 1)];
      if (used.insert(c).second) cols.push_back(c);
    }
    push_row(m, cols, rng);
  }
  return m;
}

/// Tall-skinny cells x genes: `a` cell types in scattered order, each
/// with a program of `b` genes; a cell draws 3/4 of its `c` genes from
/// its program and the rest uniformly.
Csr gen_scrna(const MatrixSpec& s, Rng& rng) {
  std::vector<std::vector<index_t>> programs;
  for (index_t t = 0; t < s.a; ++t) programs.push_back(sample_distinct(rng, s.cols, s.b));
  Csr m{s.rows, s.cols, {0}, {}, {}};
  std::vector<index_t> cols;
  std::unordered_set<index_t> used;
  const index_t from_program = std::min(s.b, s.c * 3 / 4);
  for (index_t i = 0; i < s.rows; ++i) {
    const auto& prog = programs[rng.below(programs.size())];
    cols.clear();
    used.clear();
    while (static_cast<index_t>(cols.size()) < from_program) {
      const index_t c = prog[rng.below(prog.size())];
      if (used.insert(c).second) cols.push_back(c);
    }
    while (static_cast<index_t>(cols.size()) < std::min(s.c, s.cols)) {
      const auto c = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(s.cols)));
      if (used.insert(c).second) cols.push_back(c);
    }
    push_row(m, cols, rng);
  }
  return m;
}

/// Magnitude-pruned DNN weight (DLMC-like): every entry kept with
/// probability `a`/1000, independently.
Csr gen_dlmc(const MatrixSpec& s, Rng& rng) {
  Csr m{s.rows, s.cols, {0}, {}, {}};
  std::vector<index_t> cols;
  for (index_t i = 0; i < s.rows; ++i) {
    cols.clear();
    for (index_t j = 0; j < s.cols; ++j) {
      if (rng.below(1000) < static_cast<std::uint64_t>(s.a)) cols.push_back(j);
    }
    if (cols.empty()) cols.push_back(static_cast<index_t>(rng.below(s.cols)));
    push_row(m, cols, rng);
  }
  return m;
}

}  // namespace

WorkloadSpec workload(const std::string& name) {
  if (name == "gnn_clustered") {
    return {name,
            {clustered("community_a", 32768, 32768, 512, 48, 16),
             clustered("community_b", 24576, 16384, 192, 96, 24)},
            64,
            false};
  }
  if (name == "serve_mixed") {
    return {name,
            {clustered("clustered", 16384, 16384, 256, 48, 16), banded("banded", 16384, 8),
             uniform("uniform", 16384, 16384, 12)},
            64,
            true};
  }
  if (name == "ingest_corpus") {
    return {name,
            {power_law("power_law_a", 8192, 8192, 6, 512),
             power_law("power_law_b", 6144, 12288, 4, 256),
             scrna("scrna_a", 12288, 2048, 24, 96, 40), scrna("scrna_b", 8192, 1536, 16, 64, 32),
             dlmc("dlmc_a", 2048, 2048, 80), dlmc("dlmc_b", 1024, 4096, 120),
             banded("banded_a", 8192, 6), banded("banded_b", 6144, 12),
             clustered("clustered_a", 8192, 8192, 128, 48, 16),
             clustered("clustered_b", 6144, 6144, 96, 64, 20)},
            32,
            false};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Csr generate(const MatrixSpec& s, std::uint64_t seed) {
  std::uint64_t salt = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s.name) salt = (salt ^ ch) * 0x100000001b3ULL;
  Rng rng(mix(seed, salt));
  if (s.family == "clustered") return gen_clustered(s, rng);
  if (s.family == "banded") return gen_banded(s, rng);
  if (s.family == "uniform") return gen_uniform(s, rng);
  if (s.family == "power_law") return gen_power_law(s, rng);
  if (s.family == "scrna") return gen_scrna(s, rng);
  if (s.family == "dlmc") return gen_dlmc(s, rng);
  throw std::invalid_argument("unknown family: " + s.family);
}

void write_mtx(const Csr& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows << ' ' << m.cols << ' ' << m.nnz() << '\n';
  std::string buf;
  char num[64];
  for (index_t i = 0; i < m.rows; ++i) {
    for (offset_t p = m.rowptr[static_cast<std::size_t>(i)];
         p < m.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      buf += std::to_string(i + 1);
      buf += ' ';
      buf += std::to_string(m.colidx[static_cast<std::size_t>(p)] + 1);
      buf += ' ';
      const auto r = std::to_chars(num, num + sizeof num, m.values[static_cast<std::size_t>(p)]);
      buf.append(num, r.ptr);
      buf += '\n';
    }
    if (buf.size() > (1u << 20)) {
      out << buf;
      buf.clear();
    }
  }
  out << buf;
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

std::uint64_t digest(index_t rows, index_t cols, const std::vector<offset_t>& rowptr,
                     const std::vector<index_t>& colidx, const std::vector<value_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  };
  feed(&rows, sizeof rows);
  feed(&cols, sizeof cols);
  feed(rowptr.data(), rowptr.size() * sizeof(offset_t));
  feed(colidx.data(), colidx.size() * sizeof(index_t));
  feed(values.data(), values.size() * sizeof(value_t));
  return h;
}

void write_manifest(const std::string& dir, const std::vector<ManifestEntry>& entries) {
  std::ofstream out(dir + "/manifest.txt");
  for (const auto& e : entries) {
    out << e.name << ' ' << e.rows << ' ' << e.cols << ' ' << e.nnz << ' ' << e.digest << ' '
        << e.bytes << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write manifest in " + dir);
}

std::vector<ManifestEntry> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  if (!in) throw std::runtime_error("no manifest in " + dir + " (run `gen` first)");
  std::vector<ManifestEntry> out;
  ManifestEntry e;
  while (in >> e.name >> e.rows >> e.cols >> e.nnz >> e.digest >> e.bytes) out.push_back(e);
  return out;
}

}  // namespace perfbench

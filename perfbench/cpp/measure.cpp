// End-to-end measurement: ingest, plan, then whole rounds of SpMM and
// SDDMM operations until the run time is spent, every output checked.
//
// Library workloads call core::run_spmm / core::run_sddmm from one
// thread, one operation after another. The served workload drives a
// runtime::Server from one client thread that keeps kOutstanding zero-copy
// requests outstanding (a closed loop), alternating an SpMM block and an
// SDDMM block so both phases see the same host conditions.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <stdexcept>

#include "bench.hpp"
#include "io/mm_stream.hpp"
#include "runtime/server.hpp"

namespace perfbench {

using rrspmm::sparse::CsrMatrix;
using rrspmm::sparse::DenseMatrix;
using rrspmm::sparse::DenseMutView;

namespace {

constexpr double kWindowMs = 1000.0;  ///< a window closes at the first round end past this
constexpr std::size_t kMaxWindowOps = std::size_t{1} << 16;  ///< reserved latencies per window
constexpr std::size_t kMaxWindows = 1024;                    ///< reserved windows per run

/// Latency and work of one operation kind, kept per window of the run.
/// Each window yields its own throughput and percentiles; the metrics
/// are the medians over the windows, so a burst of load from outside
/// the process that covers a few windows of a run does not move them.
///
/// Storage is reserved up front and windows are summarised in place:
/// the timed loop makes no allocation at a time-dependent moment, which
/// would interleave with the library's per-call allocations differently
/// from run to run and change the heap layout that peak_rss_mib reads.
struct OpStats {
  std::vector<double> ms;  ///< latencies of the open window
  double flops = 0.0;      ///< work of the open window
  double busy_ms = 0.0;    ///< open-window time the operations occupied
  std::vector<double> gflops, p50, p90;  ///< one entry per closed window
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;

  OpStats() {
    ms.reserve(kMaxWindowOps);
    for (auto* v : {&gflops, &p50, &p90}) v->reserve(kMaxWindows);
  }

  void close_window() {
    if (!ms.empty()) {
      std::sort(ms.begin(), ms.end());
      gflops.push_back(flops / (busy_ms * 1e-3) * 1e-9);
      p50.push_back(sorted_percentile(ms, 0.50));
      p90.push_back(sorted_percentile(ms, 0.90));
    }
    ms.clear();
    flops = busy_ms = 0.0;
  }

  void add_metrics(const std::string& op, std::vector<Metric>& out) const {
    out.push_back({op + "_gflops", median(gflops), "GFLOP/s"});
    out.push_back({op + "_p50_ms", median(p50), "ms"});
    out.push_back({op + "_p90_ms", median(p90), "ms"});
  }
};

/// Runs whole rounds until `seconds` have passed, round 0 untimed (it
/// warms caches and lazy state, and is checked), and closes a window of
/// both stats at the first round end after each kWindowMs. The run ends
/// at a window end, so every window covers at least kWindowMs.
template <typename Round>
void run_rounds(double seconds, OpStats& a, OpStats& b, Round&& round) {
  round(false);
  const auto t0 = Clock::now();
  auto w0 = t0;
  for (;;) {
    round(true);
    if (ms_since(w0) < kWindowMs) continue;
    a.close_window();
    b.close_window();
    if (ms_since(t0) >= seconds * 1e3) break;
    w0 = Clock::now();
  }
}

double op_flops(const CsrMatrix& m, index_t k) {
  return 2.0 * static_cast<double>(m.nnz()) * static_cast<double>(k);
}

void finish(const std::vector<std::string>& errors, double setup_s, const OpStats& spmm,
            const OpStats& sddmm) {
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::vector<Metric> metrics{{"setup_s", setup_s, "s"}};
  spmm.add_metrics("spmm", metrics);
  sddmm.add_metrics("sddmm", metrics);
  metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  print_result(errors.empty(), spmm.attempted + sddmm.attempted, spmm.failed + sddmm.failed,
               metrics);
}

int run_library(const WorkloadSpec& w, const RunArgs& args, std::vector<CsrMatrix>& mats,
                std::vector<std::string>& errors) {
  std::vector<rrspmm::core::ExecutionPlan> plans;
  for (const auto& m : mats) plans.push_back(rrspmm::core::build_plan(m));
  const double setup_s = ms_since(kProcessStart) * 1e-3;

  for (std::size_t i = 0; i < mats.size(); ++i) check_plan(w.matrices[i], mats[i], plans[i], errors);
  const auto ops = make_operands(mats, w.k, args.seed);
  std::vector<DenseMatrix> ys;
  std::vector<std::vector<value_t>> outs;
  for (const auto& m : mats) {
    ys.emplace_back(m.rows(), w.k);
    outs.emplace_back(static_cast<std::size_t>(m.nnz()));
  }

  OpStats spmm, sddmm;
  std::uint64_t ordinal = 0;
  run_rounds(args.seconds, spmm, sddmm, [&](bool timed) {
    for (std::size_t i = 0; i < mats.size(); ++i) {
      const CsrMatrix& m = mats[i];
      const auto rows = sample_rows(m.rows(), ordinal++);
      ++spmm.attempted;
      try {
        poison_rows(ys[i].data(), ys[i].ld(), w.k, rows);
        const auto c0 = Clock::now();
        rrspmm::core::run_spmm(plans[i], ops[i].x, ys[i]);
        const double ms = ms_since(c0);
        if (!check_spmm(m, ops[i].x, ys[i].data(), ys[i].ld(), rows)) {
          ++spmm.failed;
        } else if (timed) {
          spmm.ms.push_back(ms);
          spmm.busy_ms += ms;
          spmm.flops += op_flops(m, w.k);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run_spmm(%s) threw: %s\n", w.matrices[i].name.c_str(),
                     e.what());
        ++spmm.failed;
      }

      const auto srows = sample_rows(m.rows(), ordinal++);
      ++sddmm.attempted;
      try {
        poison_nnz(m, outs[i].data(), srows);
        const auto c0 = Clock::now();
        rrspmm::core::run_sddmm(plans[i], m, ops[i].x, ops[i].y, outs[i]);
        const double ms = ms_since(c0);
        if (!check_sddmm(m, ops[i].x, ops[i].y, outs[i].data(), srows)) {
          ++sddmm.failed;
        } else if (timed) {
          sddmm.ms.push_back(ms);
          sddmm.busy_ms += ms;
          sddmm.flops += op_flops(m, w.k);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run_sddmm(%s) threw: %s\n", w.matrices[i].name.c_str(),
                     e.what());
        ++sddmm.failed;
      }
    }
  });
  finish(errors, setup_s, spmm, sddmm);
  return 0;
}

/// Requests one closed-loop window slot can hold: its own output
/// storage, sized for the largest matrix, viewed per request.
struct Slot {
  DenseMatrix y;
  std::vector<value_t> out;
};

struct Pending {
  std::future<void> done;
  std::size_t slot = 0;
  std::size_t matrix = 0;
  bool sddmm = false;
  std::vector<index_t> rows;
  Clock::time_point t0;
};

constexpr std::size_t kOutstanding = 4;        ///< requests the client keeps outstanding
constexpr std::size_t kBlockRepeats = 8;  ///< requests per matrix per block

int run_served(const WorkloadSpec& w, const RunArgs& args, std::vector<CsrMatrix>& mats,
               std::vector<std::string>& errors) {
  OpStats spmm, sddmm;
  // Declared before the server so that they outlive it: its destructor
  // waits for requests still reading the operands or writing the slots.
  std::vector<Operands> ops;
  std::vector<Slot> slots;
  {
    rrspmm::runtime::Server server;
    for (std::size_t i = 0; i < mats.size(); ++i) {
      server.register_matrix(w.matrices[i].name, mats[i]);
    }
    std::vector<rrspmm::runtime::PlanPtr> plans;
    for (const auto& spec : w.matrices) plans.push_back(server.warm(spec.name));
    const double setup_s = ms_since(kProcessStart) * 1e-3;

    for (std::size_t i = 0; i < mats.size(); ++i) check_plan(w.matrices[i], mats[i], *plans[i], errors);
    ops = make_operands(mats, w.k, args.seed);
    index_t max_rows = 0;
    offset_t max_nnz = 0;
    for (const auto& m : mats) {
      max_rows = std::max(max_rows, m.rows());
      max_nnz = std::max(max_nnz, m.nnz());
    }
    for (std::size_t s = 0; s < kOutstanding; ++s) {
      slots.push_back({DenseMatrix::aligned(max_rows, w.k),
                       std::vector<value_t>(static_cast<std::size_t>(max_nnz))});
    }

    std::uint64_t ordinal = 0;
    // One block: kBlockRepeats requests per matrix of one kind, at most
    // kOutstanding outstanding, timed from the first submit to the last
    // completion. A refused or failed request counts as failed.
    auto block = [&](bool is_sddmm, bool timed) {
      OpStats& st = is_sddmm ? sddmm : spmm;
      std::deque<Pending> inflight;
      std::vector<std::size_t> free_slots;
      for (std::size_t s = 0; s < kOutstanding; ++s) free_slots.push_back(kOutstanding - 1 - s);
      const std::size_t total = kBlockRepeats * mats.size();
      std::size_t next = 0;
      const auto b0 = Clock::now();
      while (next < total || !inflight.empty()) {
        while (next < total && !free_slots.empty()) {
          Pending p;
          p.slot = free_slots.back();
          free_slots.pop_back();
          p.matrix = next++ % mats.size();
          p.sddmm = is_sddmm;
          const CsrMatrix& m = mats[p.matrix];
          p.rows = sample_rows(m.rows(), ordinal++);
          Slot& s = slots[p.slot];
          ++st.attempted;
          const std::string& name = w.matrices[p.matrix].name;
          try {
            if (is_sddmm) {
              poison_nnz(m, s.out.data(), p.rows);
              p.t0 = Clock::now();
              p.done = server.submit_sddmm(name, ops[p.matrix].x, ops[p.matrix].y, s.out.data(),
                                           static_cast<std::size_t>(m.nnz()));
            } else {
              poison_rows(s.y.data(), s.y.ld(), w.k, p.rows);
              p.t0 = Clock::now();
              p.done = server.submit(name, ops[p.matrix].x,
                                     DenseMutView(s.y.data(), m.rows(), w.k, s.y.ld()));
            }
            inflight.push_back(std::move(p));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: submit(%s) threw: %s\n", name.c_str(), e.what());
            ++st.failed;
            free_slots.push_back(p.slot);
          }
        }
        if (inflight.empty()) continue;
        Pending p = std::move(inflight.front());
        inflight.pop_front();
        const CsrMatrix& m = mats[p.matrix];
        Slot& s = slots[p.slot];
        try {
          p.done.get();
          const double ms = ms_since(p.t0);
          const bool ok = p.sddmm
                              ? check_sddmm(m, ops[p.matrix].x, ops[p.matrix].y, s.out.data(), p.rows)
                              : check_spmm(m, ops[p.matrix].x, s.y.data(), s.y.ld(), p.rows);
          if (!ok) {
            ++st.failed;
          } else if (timed) {
            st.ms.push_back(ms);
            st.flops += op_flops(m, w.k);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: request on %s failed: %s\n",
                       w.matrices[p.matrix].name.c_str(), e.what());
          ++st.failed;
        }
        free_slots.push_back(p.slot);
      }
      if (timed) st.busy_ms += ms_since(b0);
    };

    run_rounds(args.seconds, spmm, sddmm, [&](bool timed) {
      block(false, timed);
      block(true, timed);
    });
    server.stop();
    finish(errors, setup_s, spmm, sddmm);
  }
  return 0;
}

}  // namespace

std::vector<CsrMatrix> ingest_all(const std::string& dir, const std::vector<ManifestEntry>& manifest,
                                  std::vector<std::string>& errors) {
  std::vector<CsrMatrix> out;
  for (const auto& e : manifest) {
    out.push_back(rrspmm::io::read_matrix_market_streamed(dir + "/" + e.name + ".mtx"));
    const CsrMatrix& m = out.back();
    if (digest(m.rows(), m.cols(), m.rowptr(), m.colidx(), m.values()) != e.digest) {
      errors.push_back(e.name + ": ingested CSR differs from the generator's");
    }
  }
  return out;
}

int run_end_to_end(const RunArgs& args) {
  const WorkloadSpec w = workload(args.workload);
  const auto manifest = read_manifest(args.dir);
  if (manifest.size() != w.matrices.size()) {
    throw std::runtime_error("manifest does not match workload " + w.name);
  }
  std::vector<std::string> errors;
  auto mats = ingest_all(args.dir, manifest, errors);
  return w.served ? run_served(w, args, mats, errors) : run_library(w, args, mats, errors);
}

}  // namespace perfbench

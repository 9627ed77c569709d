// Per-layer traced run: times calls into each layer's public functions
// from outside the library, on the workload's own inputs, and checks the
// figures against the phase timings and counters the library reports
// itself (PipelineStats, the Server's metrics_json).
//
// Every *_ms metric is the median, over passes, of the time one pass
// over the workload's matrices spends in that layer (one call per
// matrix, or per applied reordering round for the lsh/cluster phases).
// Two loops share the run time: a preprocessing loop (ingest, plan
// build and its phases) and an execution loop (kernels, wrappers,
// runtime); each makes at least one pass. Every result the execution
// loop hands back in caller row order is checked on sampled rows;
// attempted and failed count those checked operations.
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>

#include "bench.hpp"
#include "cluster/hierarchy.hpp"
#include "gpusim/traffic.hpp"
#include "io/mm_stream.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "lsh/candidates.hpp"
#include "runtime/execute.hpp"
#include "runtime/server.hpp"
#include "sparse/permute.hpp"

namespace perfbench {

using rrspmm::sparse::CsrMatrix;
using rrspmm::sparse::DenseMatrix;
using rrspmm::sparse::DenseMutView;
namespace core = rrspmm::core;
namespace kernels = rrspmm::kernels;
namespace lsh = rrspmm::lsh;
namespace runtime = rrspmm::runtime;

namespace {

/// Share of the run time given to the preprocessing loop; the execution
/// loop gets the rest, counted from its own start, so the plan builds
/// and server warm-up between the loops do not eat into it.
constexpr double kPreprocessShare = 0.4;

/// Cross-check margin: a traced figure and the program's own figure for
/// the same phase agree when they differ by at most half the larger one
/// plus 2 ms. Both are wall times of the same work taken by different
/// clocks around different call boundaries, so they agree only roughly.
bool agrees(double traced, double program) {
  return std::fabs(traced - program) <= 0.5 * std::max(traced, program) + 2.0;
}

/// Reads an unsigned counter from the Server's metrics_json.
double json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) throw std::runtime_error("metrics_json lacks " + key);
  return std::stod(json.substr(pos + needle.size()));
}

bool is_identity(const std::vector<index_t>& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

/// Per-pass sums, one vector entry per pass.
struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, double> pass;
  void add(const std::string& name, double v) { pass[name] += v; }
  void end_pass() {
    for (auto& [name, v] : pass) by_name[name].push_back(v);
    pass.clear();
  }
  double med(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : median(it->second);
  }
};

}  // namespace

int run_traced(const RunArgs& args) {
  const WorkloadSpec w = workload(args.workload);
  const auto manifest = read_manifest(args.dir);
  if (manifest.size() != w.matrices.size()) {
    throw std::runtime_error("manifest does not match workload " + w.name);
  }
  std::vector<std::string> errors;
  const auto run_start = Clock::now();
  const double budget_ms = args.seconds * 1e3;

  const core::PipelineConfig cfg;
  runtime::WorkerPool pool(runtime::WorkerPool::default_threads());
  runtime::WorkerPool* lsh_pool = pool.size() > 1 ? &pool : nullptr;
  const std::size_t n = w.matrices.size();

  std::vector<CsrMatrix> mats = ingest_all(args.dir, manifest, errors);
  std::vector<core::ExecutionPlan> plans(n);
  double file_mib = 0.0;
  for (const auto& e : manifest) file_mib += static_cast<double>(e.bytes) / (1024.0 * 1024.0);

  // ---- preprocessing loop: io, lsh, cluster, aspt, core.build_plan ----
  Samples pre;
  for (int pass = 0; pass == 0 || ms_since(run_start) < kPreprocessShare * budget_ms; ++pass) {
    double ingest = 0.0;
    for (const auto& e : manifest) {
      ingest += time_ms([&] {
        (void)rrspmm::io::read_matrix_market_streamed(args.dir + "/" + e.name + ".mtx");
      });
    }
    pre.add("io.ingest_ms", ingest);
    pre.add("io.ingest_mib_per_s", file_mib / (ingest * 1e-3));

    double dense = 0.0, total = 0.0, jac = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const CsrMatrix& m = mats[i];
      pre.add("core.build_plan_ms", time_ms([&] { plans[i] = core::build_plan(m); }));
      const core::ExecutionPlan& plan = plans[i];
      pre.add("program.sig_ms", plan.stats.sig_ms);
      pre.add("program.band_ms", plan.stats.band_ms);
      pre.add("program.lsh_ms", plan.stats.sig_ms + plan.stats.band_ms + plan.stats.score_ms);
      pre.add("program.merge_ms", plan.stats.merge_ms);
      pre.add("program.candidate_pairs",
              static_cast<double>(plan.stats.round1_candidates + plan.stats.round2_candidates));

      // The reordering rounds the plan ran, on the same inputs.
      std::vector<const CsrMatrix*> rounds;
      if (plan.stats.round1_applied) rounds.push_back(&m);
      if (plan.stats.round2_applied) rounds.push_back(&plan.tiled.sparse_part());
      for (const CsrMatrix* r : rounds) {
        lsh::SignatureMatrix sig;
        pre.add("lsh.signatures_ms", time_ms([&] {
                  sig = cfg.reorder.lsh.scheme == lsh::MinHashScheme::kOnePermutation
                            ? lsh::compute_signatures_oph(*r, cfg.reorder.lsh.siglen,
                                                          cfg.reorder.lsh.seed, lsh_pool)
                            : lsh::compute_signatures(*r, cfg.reorder.lsh.siglen,
                                                      cfg.reorder.lsh.seed, lsh_pool);
                }));
        pre.add("lsh.banding_ms",
                time_ms([&] { (void)lsh::band_pairs(sig, *r, cfg.reorder.lsh, lsh_pool); }));
        std::vector<lsh::CandidatePair> pairs;
        pre.add("lsh.candidates_ms", time_ms([&] {
                  pairs = lsh::find_candidate_pairs(*r, cfg.reorder.lsh, lsh_pool);
                }));
        pre.add("lsh.candidate_pairs", static_cast<double>(pairs.size()));
        pre.add("cluster.merge_ms", time_ms([&] {
                  (void)rrspmm::cluster::cluster_reorder(*r, pairs, cfg.reorder.cluster);
                }));
      }

      const CsrMatrix permuted = is_identity(plan.row_perm)
                                     ? m
                                     : rrspmm::sparse::permute_rows(m, plan.row_perm);
      pre.add("aspt.build_ms",
              time_ms([&] { (void)rrspmm::aspt::build_aspt(permuted, cfg.aspt); }));
      dense += static_cast<double>(plan.tiled.stats().nnz_dense);
      total += static_cast<double>(plan.tiled.stats().nnz_total);
      jac += consecutive_jaccard(m, plan.row_perm) / static_cast<double>(n);
      if (pass == 0) check_plan(w.matrices[i], m, plan, errors);
    }
    pre.add("aspt.dense_ratio", dense / total);
    pre.add("cluster.consecutive_jaccard", jac);
    pre.end_pass();
  }

  // ---- execution loop: core wrappers, sparse permutes, kernels, runtime ----
  const auto ops = make_operands(mats, w.k, args.seed);
  std::vector<core::ExecutionPlan> nr_plans;
  for (const auto& m : mats) nr_plans.push_back(core::build_plan_nr(m));
  // The bare kernels get the configuration the program's own wrappers
  // give them (active config plus the plan's specialization record), so
  // they run the same kernel entries; row-wise, which has no plan, gets
  // the row-only record.
  const auto kcfg = [](std::shared_ptr<const kernels::simd::SpecializationPlan> spec) {
    auto kc = kernels::simd::active_config();
    kc.spec = std::move(spec);
    return kc;
  };
  std::vector<kernels::simd::KernelConfig> rr_cfg, nr_cfg, rw_cfg;
  for (std::size_t i = 0; i < n; ++i) {
    rr_cfg.push_back(kcfg(plans[i].spec));
    nr_cfg.push_back(kcfg(nr_plans[i].spec));
    rw_cfg.push_back(kcfg(std::make_shared<const kernels::simd::SpecializationPlan>(
        kernels::simd::specialize_rows(mats[i]))));
  }

  Samples ex;
  std::vector<std::map<std::string, std::vector<double>>> per_matrix(n);
  std::uint64_t served = 0;  // SpMM and SDDMM requests, one of each per matrix and pass
  std::uint64_t attempted = 0, failed = 0, ordinal = 0;
  double requests_per_batch = 0.0;
  std::string metrics_json;
  {
    runtime::Server server;
    for (std::size_t i = 0; i < n; ++i) server.register_matrix(w.matrices[i].name, mats[i]);
    double warm = 0.0;
    for (const auto& spec : w.matrices) warm += time_ms([&] { (void)server.warm(spec.name); });
    ex.add("runtime.plan_warm_ms", warm);

    // ys: core::run_spmm output (reassigned by the wrapper); yvs: the
    // aligned buffers every view-based call writes in caller row order;
    // yps: bare kernel output in the plan's row order.
    std::vector<DenseMatrix> ys, yvs, yps;
    std::vector<std::vector<value_t>> outs, outps;
    for (const auto& m : mats) {
      ys.push_back(DenseMatrix::aligned(m.rows(), w.k));
      yvs.push_back(DenseMatrix::aligned(m.rows(), w.k));
      yps.push_back(DenseMatrix::aligned(m.rows(), w.k));
      outs.emplace_back(static_cast<std::size_t>(m.nnz()));
      outps.emplace_back(static_cast<std::size_t>(m.nnz()));
    }
    // Every output the program hands to a caller is checked on sampled
    // rows, outside the timed region; a mismatch is a failed operation.
    const auto checked_spmm = [&](std::size_t i, DenseMatrix& y, auto&& call) {
      const auto rows = sample_rows(mats[i].rows(), ordinal++);
      poison_rows(y.data(), y.ld(), w.k, rows);
      const double ms = time_ms(call);
      ++attempted;
      if (!check_spmm(mats[i], ops[i].x, y.data(), y.ld(), rows)) ++failed;
      return ms;
    };
    const auto checked_sddmm = [&](std::size_t i, auto&& call) {
      const auto rows = sample_rows(mats[i].rows(), ordinal++);
      poison_nnz(mats[i], outs[i].data(), rows);
      const double ms = time_ms(call);
      ++attempted;
      if (!check_sddmm(mats[i], ops[i].x, ops[i].y, outs[i].data(), rows)) ++failed;
      return ms;
    };

    double exec_program_ms = 0.0, exec_traced_ms = 0.0;
    const double exec_budget_ms = (1.0 - kPreprocessShare) * budget_ms;
    const auto exec_start = Clock::now();
    for (int pass = 0; pass == 0 || ms_since(exec_start) < exec_budget_ms; ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        const CsrMatrix& m = mats[i];
        const core::ExecutionPlan& plan = plans[i];
        const DenseMatrix& x = ops[i].x;
        const DenseMatrix& yop = ops[i].y;
        auto& pm = per_matrix[i];
        const bool permuted = !is_identity(plan.row_perm);

        const double run_spmm =
            checked_spmm(i, ys[i], [&] { core::run_spmm(plan, x, ys[i]); });
        const double spmm_aspt = time_ms(
            [&] { kernels::spmm_aspt(plan.tiled, x, yps[i], &plan.sparse_order, rr_cfg[i]); });
        ex.add("core.spmm_wrapper_ms", run_spmm - spmm_aspt);
        ex.add("kernels.spmm_aspt_ms", spmm_aspt);
        pm["rr"].push_back(spmm_aspt);

        const double run_sddmm =
            checked_sddmm(i, [&] { core::run_sddmm(plan, m, x, yop, outs[i]); });
        DenseMatrix yop_p;
        if (permuted) {
          ex.add("sparse.unpermute_ms", time_ms([&] {
                   (void)rrspmm::sparse::unpermute_dense_rows(yps[i], plan.row_perm);
                 }));
          ex.add("sparse.permute_ms", time_ms([&] {
                   yop_p = rrspmm::sparse::permute_dense_rows(yop, plan.row_perm);
                 }));
        }
        const DenseMatrix& y_in = permuted ? yop_p : yop;
        const double sddmm_aspt = time_ms([&] {
          kernels::sddmm_aspt(plan.tiled, x, y_in, outps[i], &plan.sparse_order, rr_cfg[i]);
        });
        ex.add("core.sddmm_wrapper_ms", run_sddmm - sddmm_aspt);
        ex.add("kernels.sddmm_aspt_ms", sddmm_aspt);

        // The NR plan keeps the input row order, so its output is checked
        // like any caller-order result.
        const double nr = checked_spmm(i, yvs[i], [&] {
          kernels::spmm_aspt(nr_plans[i].tiled, x, yvs[i], &nr_plans[i].sparse_order, nr_cfg[i]);
        });
        ex.add("kernels.spmm_nr_ms", nr);
        pm["nr"].push_back(nr);
        const double rowwise =
            checked_spmm(i, yvs[i], [&] { kernels::spmm_rowwise(m, x, yvs[i], rw_cfg[i]); });
        ex.add("kernels.spmm_rowwise_ms", rowwise);
        pm["rowwise"].push_back(rowwise);

        const double par_spmm = checked_spmm(
            i, yvs[i], [&] { runtime::parallel_spmm(pool, plan, x, DenseMutView(yvs[i])); });
        ex.add("runtime.parallel_spmm_ms", par_spmm);
        const double par_sddmm = checked_sddmm(i, [&] {
          runtime::parallel_sddmm(pool, plan, m, x, yop, outs[i].data(), outs[i].size());
        });
        ex.add("runtime.parallel_sddmm_ms", par_sddmm);

        // One request outstanding at a time: what the server adds to the
        // direct call is its queueing, dispatch and completion.
        const std::string& name = w.matrices[i].name;
        const double lat_spmm = checked_spmm(
            i, yvs[i], [&] { server.submit(name, x, DenseMutView(yvs[i])).get(); });
        const double lat_sddmm = checked_sddmm(i, [&] {
          server.submit_sddmm(name, x, yop, outs[i].data(), outs[i].size()).get();
        });
        served += 2;
        exec_traced_ms += par_spmm;
        ex.add("runtime.server_overhead_ms", (lat_spmm - par_spmm) + (lat_sddmm - par_sddmm));
      }
      ex.end_pass();
    }
    metrics_json = server.metrics_json();
    exec_program_ms = json_counter(metrics_json, "execute_us") * 1e-3;
    if (!agrees(exec_traced_ms, exec_program_ms)) {
      errors.push_back("server execute_us " + std::to_string(exec_program_ms) +
                       " ms vs traced parallel_spmm " + std::to_string(exec_traced_ms) + " ms");
    }

    // Batching: zero-copy requests are never coalesced, so the batching
    // ratio comes from a closing phase of owned-copy SpMM submits,
    // kBatchWindow outstanding per matrix. batches_executed counts SpMM
    // batches only.
    constexpr int kBatchWindow = 4;
    const double batches_before = json_counter(metrics_json, "batches_executed");
    std::uint64_t batch_requests = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::future<DenseMatrix>> futs;
      for (int r = 0; r < kBatchWindow; ++r) futs.push_back(server.submit(w.matrices[i].name, ops[i].x));
      for (auto& f : futs) {
        const DenseMatrix y = f.get();
        const auto rows = sample_rows(mats[i].rows(), ordinal++);
        ++attempted;
        if (!check_spmm(mats[i], ops[i].x, y.data(), y.ld(), rows)) ++failed;
      }
      batch_requests += kBatchWindow;
    }
    const double batches =
        json_counter(server.metrics_json(), "batches_executed") - batches_before;
    requests_per_batch = static_cast<double>(batch_requests) / std::max(1.0, batches);
    server.stop();
  }

  // ---- cross-checks against the program's own figures ----
  const double completed = json_counter(metrics_json, "requests_completed");
  if (completed != static_cast<double>(served)) {
    errors.push_back("requests_completed " + std::to_string(completed) + " != submitted " +
                     std::to_string(served));
  }
  if (pre.med("lsh.candidate_pairs") != pre.med("program.candidate_pairs")) {
    errors.push_back("traced candidate pairs differ from PipelineStats");
  }
  const std::pair<const char*, const char*> phase_pairs[] = {
      {"lsh.signatures_ms", "program.sig_ms"},
      {"lsh.banding_ms", "program.band_ms"},
      {"lsh.candidates_ms", "program.lsh_ms"},
      {"cluster.merge_ms", "program.merge_ms"}};
  for (const auto& [traced, program] : phase_pairs) {
    std::printf("# cross-check %s %.3f ms vs PipelineStats %.3f ms\n", traced, pre.med(traced),
                pre.med(program));
    if (!agrees(pre.med(traced), pre.med(program))) {
      errors.push_back(std::string(traced) + " disagrees with PipelineStats");
    }
  }

  // Reference figures: measured kernel ratios next to the device
  // model's prediction for the same matrices.
  const auto dev = rrspmm::gpusim::DeviceConfig::p100();
  for (std::size_t i = 0; i < n; ++i) {
    const double rr = median(per_matrix[i]["rr"]);
    const double nr = median(per_matrix[i]["nr"]);
    const double rw = median(per_matrix[i]["rowwise"]);
    const double sim_rr = core::simulate_spmm(plans[i], w.k, dev).time_s;
    const double sim_nr = core::simulate_spmm(nr_plans[i], w.k, dev).time_s;
    const double sim_rw = rrspmm::gpusim::simulate_spmm_rowwise(mats[i], w.k, dev).time_s;
    std::printf(
        "# %s dense_ratio %.3f->%.3f round1=%d round2=%d permuted=%d | measured ms rr %.3f nr %.3f "
        "rowwise %.3f (rowwise/rr %.2f, nr/rr %.2f) | gpusim rowwise/rr %.2f nr/rr %.2f\n",
        w.matrices[i].name.c_str(), plans[i].stats.dense_ratio_before,
        plans[i].stats.dense_ratio_after, plans[i].stats.round1_applied,
        plans[i].stats.round2_applied, !is_identity(plans[i].row_perm), rr, nr, rw, rw / rr, nr / rr, sim_rw / sim_rr,
        sim_nr / sim_rr);
  }

  for (const auto& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  const std::pair<const char*, const char*> pre_metrics[] = {
      {"io.ingest_ms", "ms"},          {"io.ingest_mib_per_s", "MiB/s"},
      {"lsh.signatures_ms", "ms"},     {"lsh.banding_ms", "ms"},
      {"lsh.candidates_ms", "ms"},     {"lsh.candidate_pairs", "count"},
      {"cluster.merge_ms", "ms"},      {"cluster.consecutive_jaccard", "ratio"},
      {"aspt.build_ms", "ms"},         {"aspt.dense_ratio", "ratio"},
      {"core.build_plan_ms", "ms"}};
  const std::pair<const char*, const char*> ex_metrics[] = {
      {"core.spmm_wrapper_ms", "ms"},     {"core.sddmm_wrapper_ms", "ms"},
      {"sparse.unpermute_ms", "ms"},      {"sparse.permute_ms", "ms"},
      {"kernels.spmm_aspt_ms", "ms"},     {"kernels.sddmm_aspt_ms", "ms"},
      {"kernels.spmm_nr_ms", "ms"},       {"kernels.spmm_rowwise_ms", "ms"},
      {"runtime.parallel_spmm_ms", "ms"}, {"runtime.parallel_sddmm_ms", "ms"},
      {"runtime.server_overhead_ms", "ms"}, {"runtime.plan_warm_ms", "ms"}};
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : pre_metrics) metrics.push_back({name, pre.med(name), unit});
  for (const auto& [name, unit] : ex_metrics) metrics.push_back({name, ex.med(name), unit});
  metrics.push_back({"runtime.requests_per_batch", requests_per_batch, "req/batch"});
  print_result(errors.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

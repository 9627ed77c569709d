// perfbench: the end-to-end benchmark program.
//
//   perfbench gen --workload W --seed S --dir D
//       writes W's .mtx inputs and manifest.txt into D.
//   perfbench run --workload W --seed S --dir D --seconds N --trace 0|1
//       measures W on the inputs in D and prints one JSON result line.
//
// perfbench/run.py builds this program and runs both steps in a fresh
// directory; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double sorted_percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_percentile(v, q);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

int gen(const std::string& name, std::uint64_t seed, const std::string& dir) {
  const WorkloadSpec w = workload(name);
  std::filesystem::create_directories(dir);
  std::vector<ManifestEntry> manifest;
  for (const auto& spec : w.matrices) {
    const Csr m = generate(spec, seed);
    const std::string path = dir + "/" + spec.name + ".mtx";
    write_mtx(m, path);
    manifest.push_back({spec.name, m.rows, m.cols, m.nnz(),
                        digest(m.rows, m.cols, m.rowptr, m.colidx, m.values),
                        std::filesystem::file_size(path)});
  }
  write_manifest(dir, manifest);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed S --dir D\n"
               "       perfbench run --workload W --seed S --dir D --seconds N --trace 0|1\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2 || (argc % 2) != 0) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--dir"}) {
    if (!opt.count(key)) return usage();
  }
  try {
    RunArgs args;
    args.workload = opt["--workload"];
    args.seed = std::stoull(opt["--seed"]);
    args.dir = opt["--dir"];
    if (cmd == "gen") return gen(args.workload, args.seed, args.dir);
    if (cmd != "run" || !opt.count("--seconds") || !opt.count("--trace")) return usage();
    args.seconds = std::stod(opt["--seconds"]);
    return opt["--trace"] == "1" ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// perfbench: runs one workload of the layer-attributed benchmark and prints
// its report. The last line of standard output is the result object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs once untraced and once with the decorators attached, and the
// metrics are the per-layer ones. Exits 1 when a correctness check fails
// (after printing the result) and 2 on bad arguments.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--git-sha <sha>] [--smoke]
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "support/logging.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tune_init|tune_bao|serve_fleet> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--git-sha <sha>] [--smoke]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        options.trace = v == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--git-sha") {
        options.git_sha = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (options.workload.empty() || options.work_dir.empty() ||
        !(options.seconds > 0)) {
      throw std::invalid_argument("--workload, --work-dir and --seconds > 0 "
                                  "are required");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  aal::set_log_threshold(aal::LogLevel::kWarn);
  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string prov = "{";
  for (std::size_t i = 0; i < report.provenance.size(); ++i) {
    prov += (i ? ", \"" : "\"") + report.provenance[i].first +
            "\": " + report.provenance[i].second;
  }
  std::printf("provenance: %s}\n", prov.c_str());
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string metrics;
  char buf[256];
  for (const perfbench::Metric& m : report.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      report.errors.push_back("metric " + m.name + " is not finite");
      v = 0.0;
    }
    std::printf("metric: %-26s %.17g %s\n", m.name.c_str(), v, m.unit.c_str());
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    metrics += buf;
  }
  for (const std::string& e : report.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  const bool correct = report.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// The benchmark's workloads and the report one run prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long shapes for the smoke check; never used for measurement.
  bool smoke = false;
  /// Scratch directory for stores, generated models and the span dump.
  std::string work_dir;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<std::string> errors;  // empty = every correctness check held
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Key/value pairs describing the machine, build and workload shape;
  /// values are JSON literals.
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::string> notes;  // human-readable detail lines
};

std::vector<std::string> workload_names();

/// End-to-end metric names with their units, in report order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Per-layer metric names with their units, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// A traced run must attribute at least this share of its timed phase to
/// layer spans (see README.md, "Layer accounting").
inline constexpr double kMinCoverage = 0.8;

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench

// End-to-end inference latency simulation (Table I's metric).
//
// Deploys a tuned model: every fused tunable group executes its task's best
// configuration, every fixed-function group its default kernel, and one
// inference latency is the sum of noisy per-kernel times. The paper runs
// each deployed model 600 times and reports the mean latency and the
// variance of those runs; LatencyEvaluator::run reproduces that protocol.
//
// Run-to-run noise has three components, all tied to the chosen configs:
//   * per-kernel log-normal noise with the profile's noise_sigma,
//   * a small correlated whole-run factor (clock/thermal drift),
//   * occasional straggler spikes whose probability and size grow with a
//     kernel's fragility (noise_sigma) — the heavy tail that dominates the
//     variance column and that better-tuned (stabler) configs avoid.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "hwsim/device.hpp"

namespace aal {

struct LatencyReport {
  double mean_ms = 0.0;
  double variance = 0.0;  // population variance of the run latencies (ms^2)
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::size_t runs = 0;
  std::vector<double> samples_ms;  // every run, in order
};

class LatencyEvaluator {
 public:
  /// Binds the evaluator to a model and a deployment target. The graph must
  /// outlive the evaluator. `template_request` selects the schedule template
  /// (TemplateRegistry vocabulary, "" = default) and must match the template
  /// the configs in `best_flat_by_task` were tuned with — tune reports key
  /// tasks with the template-qualified TuningTask::key(), so deploying a
  /// native-template record log requires the same request here.
  explicit LatencyEvaluator(const Graph& graph, TargetSpec target,
                            std::string template_request = std::string());

  /// Deterministic (noise-free) latency with the given per-task configs.
  /// Tasks missing from the map fall back to the task-space default
  /// (flat 0) — mirroring TVM's untuned fallback schedule; invalid
  /// fallbacks raise InvalidArgument.
  double deterministic_latency_ms(
      const std::unordered_map<std::string, std::int64_t>& best_flat_by_task)
      const;

  /// Simulates `runs` end-to-end inferences (paper: 600).
  LatencyReport run(const std::unordered_map<std::string, std::int64_t>&
                        best_flat_by_task,
                    int runs, std::uint64_t seed) const;

  /// Per-kernel breakdown (base time and noise sigma), for docs and tests.
  struct KernelEntry {
    std::string label;
    double base_time_us = 0.0;
    double noise_sigma = 0.0;
    bool tunable = false;
  };
  std::vector<KernelEntry> kernel_breakdown(
      const std::unordered_map<std::string, std::int64_t>& best_flat_by_task)
      const;

  const TargetSpec& target() const { return target_; }

 private:
  const Graph& graph_;
  TargetSpec target_;
  std::string template_request_;
  FusedGraph fused_;
};

}  // namespace aal

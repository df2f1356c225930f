#include "pipeline/latency.hpp"

#include <cmath>
#include <memory>

#include "hwsim/fixed_ops.hpp"
#include "measure/tuning_task.hpp"
#include "support/math_util.hpp"
#include "support/stats.hpp"

namespace aal {

namespace {

/// Deterministic fallback schedule for untuned tasks: the first deployable
/// configuration found by a fixed-seed scan (TVM's untuned default is
/// likewise a conservative valid schedule, not flat index 0 — which is the
/// degenerate one-thread tiling and usually unbuildable).
Config fallback_config(const TuningTask& task) {
  Rng rng(0xFA11BACC);
  for (int attempt = 0; attempt < 100000; ++attempt) {
    Config c = task.space().sample(rng);
    if (task.profile(c).valid) return c;
  }
  throw InvalidArgument("no deployable fallback configuration for task " +
                        task.key());
}

}  // namespace

LatencyEvaluator::LatencyEvaluator(const Graph& graph, TargetSpec target,
                                   std::string template_request)
    : graph_(graph),
      target_(std::move(target)),
      template_request_(std::move(template_request)),
      fused_(fuse(graph)) {}

std::vector<LatencyEvaluator::KernelEntry> LatencyEvaluator::kernel_breakdown(
    const std::unordered_map<std::string, std::int64_t>& best_flat_by_task)
    const {
  std::vector<KernelEntry> entries;
  entries.reserve(fused_.groups.size());

  // One TuningTask (space + model) per distinct workload key.
  std::unordered_map<std::string, std::unique_ptr<TuningTask>> tasks;

  for (const FusedGroup& group : fused_.groups) {
    const Node& anchor = graph_.node(group.anchor);
    KernelEntry entry;
    entry.label = anchor.name;

    if (group.workload) {
      entry.tunable = true;
      const std::string key = group.workload->key();
      auto it = tasks.find(key);
      if (it == tasks.end()) {
        it = tasks.emplace(key,
                           std::make_unique<TuningTask>(
                               *group.workload, target_, template_request_))
                 .first;
      }
      const TuningTask& task = *it->second;
      // Tune reports key tasks by TuningTask::key(), which is target- and
      // template-qualified for non-default targets/templates — match on
      // that, not the bare workload key.
      const auto flat_it = best_flat_by_task.find(task.key());
      const Config config = flat_it != best_flat_by_task.end()
                                ? task.space().at(flat_it->second)
                                : fallback_config(task);
      const KernelProfile profile = task.profile(config);
      AAL_CHECK(profile.valid, "config " << config.flat << " for task " << key
                                         << " is not deployable: "
                                         << profile.error);
      entry.base_time_us = profile.base_time_us;
      entry.noise_sigma = profile.noise_sigma;
      // Fused element-wise epilogue rides in the same kernel: charge its
      // extra arithmetic at peak rate (it is negligible next to the conv).
      entry.base_time_us += static_cast<double>(group.epilogue_flops) /
                            (target_.peak_gflops() * 1e3);
    } else {
      entry.base_time_us = fixed_op_latency_us(
          anchor.op, graph_.input_types(anchor.id), target_);
      entry.noise_sigma = fixed_op_noise_sigma();
      if (entry.base_time_us <= 0.0) continue;  // no runtime kernel
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

double LatencyEvaluator::deterministic_latency_ms(
    const std::unordered_map<std::string, std::int64_t>& best_flat_by_task)
    const {
  double total_us = 0.0;
  for (const auto& entry : kernel_breakdown(best_flat_by_task)) {
    total_us += entry.base_time_us;
  }
  return total_us / 1e3;
}

LatencyReport LatencyEvaluator::run(
    const std::unordered_map<std::string, std::int64_t>& best_flat_by_task,
    int runs, std::uint64_t seed) const {
  AAL_CHECK(runs >= 1, "latency evaluation needs at least one run");
  const std::vector<KernelEntry> kernels =
      kernel_breakdown(best_flat_by_task);

  Rng rng(seed);
  LatencyReport report;
  report.samples_ms.reserve(static_cast<std::size_t>(runs));
  RunningStats stats;

  for (int r = 0; r < runs; ++r) {
    // Correlated whole-run drift (clock/thermal): ~0.8% sigma.
    const double drift = std::exp(rng.next_gaussian(0.0, 0.008));
    double total_us = 0.0;
    for (const auto& k : kernels) {
      const double sigma = k.noise_sigma;
      double t = k.base_time_us *
                 std::exp(rng.next_gaussian(-0.5 * sigma * sigma, sigma));
      // Straggler spikes: fragile kernels occasionally hit contention and
      // take several times longer. Probability and size both scale with
      // the kernel's noise sigma, so schedules that are stable per-run are
      // also stable in the tail — the effect behind Table I's variance
      // column.
      const double spike_prob = 4.0 * sigma * sigma / (0.01 + sigma);
      if (rng.next_bernoulli(clamp(spike_prob, 0.0, 0.25))) {
        t *= 1.0 + rng.next_double(5.0, 30.0) * sigma;
      }
      total_us += t;
    }
    const double sample_ms = total_us * drift / 1e3;
    report.samples_ms.push_back(sample_ms);
    stats.add(sample_ms);
  }

  report.mean_ms = stats.mean();
  report.variance = stats.variance();
  report.min_ms = stats.min();
  report.max_ms = stats.max();
  report.runs = static_cast<std::size_t>(runs);
  return report;
}

}  // namespace aal

// Quickstart: tune one convolution layer with the paper's advanced active
// learning framework (BTED + BAO) and inspect the chosen schedule.
//
//   $ ./examples/quickstart
//
// This walks the full single-task flow: define a workload, build its
// configuration space, tune against the simulated GTX 1080 Ti, and decode
// the winning configuration back into schedule knobs.
#include <cstdio>

#include "core/advanced_tuner.hpp"
#include "measure/measure.hpp"
#include "support/logging.hpp"
#include "tuner/tuning_session.hpp"

int main() {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);

  // 1. The layer to deploy: ResNet-18's stage-2 3x3 convolution.
  Conv2dWorkload conv;
  conv.batch = 1;
  conv.in_channels = 128;
  conv.height = 28;
  conv.width = 28;
  conv.out_channels = 128;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad_h = 1;
  conv.pad_w = 1;
  const Workload workload = Workload::conv2d(conv);

  // 2. Bind it to the hardware model: workload -> config space + simulator.
  const TargetSpec gpu = make_target("gpu-pascal");
  TuningTask task(workload, gpu);
  std::printf("workload: %s\n", workload.brief().c_str());
  std::printf("config space: %lld points across %zu knobs\n",
              static_cast<long long>(task.space().size()),
              task.space().num_knobs());

  // 3. Tune with BTED + BAO (paper hyper-parameters are the defaults).
  SimulatedDevice device(gpu, /*seed=*/2024);
  Measurer measurer(task, device);
  AdvancedActiveLearningTuner tuner;

  TuneOptions options;
  options.budget = 600;
  options.early_stopping = 400;  // AutoTVM's stopping criterion
  options.seed = 7;

  // The tuner is a proposal policy; a TuningSession owns the loop (budget,
  // early stopping) and lets us watch progress between steps. Measurements
  // run through a MeasureBackend — swap in ParallelBackend for a thread
  // pool; the results are bitwise-identical either way.
  ParallelBackend backend(/*threads=*/4);
  TuningSession session(tuner, measurer, options, backend);
  std::int64_t last_reported = 0;
  while (session.step()) {
    if (session.num_measured() - last_reported >= 150) {
      last_reported = session.num_measured();
      std::printf("  ... %lld configs measured, best so far %.1f GFLOPS\n",
                  static_cast<long long>(session.num_measured()),
                  session.best_gflops());
    }
  }
  const TuneResult result = session.finish();

  // 4. Report.
  std::printf("\nmeasured %lld configurations\n",
              static_cast<long long>(result.num_measured));
  std::printf("best: %.1f GFLOPS (%.1f%% of peak)\n", result.best_gflops(),
              100.0 * result.best_gflops() / gpu.peak_gflops());
  std::printf("schedule: %s\n",
              task.space().to_string(result.best->config).c_str());

  const KernelProfile profile = task.profile(result.best->config);
  std::printf("kernel time %.1f us, occupancy %.0f%%, %lld blocks x %lld "
              "threads, %.1f KB smem\n",
              profile.base_time_us, 100.0 * profile.occupancy,
              static_cast<long long>(profile.num_blocks),
              static_cast<long long>(profile.threads_per_block),
              static_cast<double>(profile.smem_bytes_per_block) / 1024.0);
  return 0;
}

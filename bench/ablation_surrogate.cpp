// Ablation: evaluation-function family under BS/BAO. The paper claims the
// framework "is general enough to handle various types of evaluation
// function f"; this sweep runs the full BTED+BAO tuner with GBDT, ridge
// regression and k-NN surrogates.
#include <chrono>
#include <cstdio>

#include "core/advanced_tuner.hpp"
#include "exp_common.hpp"
#include "ml/mlp.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace aal;
  using namespace aal::bench;
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: surrogate family", "BAO with GBDT / ridge / kNN");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const Workload workloads[] = {tasks[0].workload, tasks[1].workload};

  // Smaller budget than the other ablations: the MLP refits every BAO
  // iteration and is the costliest family even at reduced size.
  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 256);
  options.early_stopping = 0;

  MlpParams mlp;  // downsized for per-iteration refits
  mlp.hidden = {32, 16};
  mlp.epochs = 25;

  struct Family {
    const char* label;
    std::shared_ptr<const SurrogateFactory> factory;
  };
  const Family families[] = {
      {"gbdt",
       std::make_shared<GbdtSurrogateFactory>(
           AdvancedActiveLearningTuner::default_bootstrap_gbdt_params())},
      {"ridge", std::make_shared<RidgeSurrogateFactory>()},
      {"knn(5)", std::make_shared<KnnSurrogateFactory>(5)},
      {"mlp", std::make_shared<MlpSurrogateFactory>(mlp)},
  };

  TextTable table;
  table.set_header({"task", "surrogate", "true best GFLOPS", "wall s/trial"});
  std::uint64_t salt = 1;
  for (const Workload& w : workloads) {
    for (const Family& family : families) {
      const auto t0 = std::chrono::steady_clock::now();
      const TunerFactory factory = [&](TransferContext*) {
        return std::make_unique<AdvancedActiveLearningTuner>(
            BtedParams{}, BaoParams{}, family.factory);
      };
      const TaskOutcome outcome =
          run_task(w, spec, factory, options, trials(), salt++);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count() /
          trials();
      table.add_row({w.brief(), family.label,
                     format_double(outcome.mean_true_gflops, 1),
                     format_double(wall, 2)});
    }
    table.add_separator();
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nExpected: GBDT leads (it models knob interactions); ridge "
              "is fast but blind to\ninteractions; kNN sits between. All "
              "three run unchanged under BS/BAO.\n");
  return 0;
}

// Ablation: hardware portability. The frameworks are hardware-agnostic —
// they only see a black-box measurement function — so the same three arms
// are run against three very different machine balances (the paper's GTX
// 1080 Ti, a V100-class server part and a small embedded GPU). The chosen
// schedules must adapt (absolute GFLOPS shift with peak/bandwidth) while
// the algorithmic ordering stays stable.
#include <cstdio>

#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace aal;
  using namespace aal::bench;
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: hardware portability", "same tuners, three GPUs");

  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const Workload w = tasks[0].workload;
  std::printf("task: %s\n\n", w.brief().c_str());

  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 512);
  options.early_stopping = 400;

  const TargetSpec gpus[] = {make_target("gpu-pascal"),
                             make_target("gpu-volta"),
                             make_target("gpu-embedded")};
  const auto arms = paper_arms();

  TextTable table;
  table.set_header({"GPU", "peak GFLOPS", "AutoTVM", "BTED", "BTED+BAO"});
  std::uint64_t salt = 1;
  for (const TargetSpec& gpu : gpus) {
    std::vector<std::string> row{gpu.device_name,
                                 format_double(gpu.peak_gflops(), 0)};
    for (const auto& arm : arms) {
      const TaskOutcome outcome =
          run_task(w, gpu, arm.factory, options, trials(), salt++);
      row.push_back(format_double(outcome.mean_true_gflops, 1));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nExpected: achieved GFLOPS scale with each machine's "
              "peak/bandwidth balance; no\ntuner needs hardware-specific "
              "changes (the paper's generality claim).\n");
  return 0;
}

// Reproduces Fig. 5: per-task tuning outcomes on the 19 MobileNet-v1
// convolution tasks T1..T19 plus the AVG column.
//   (a) number of sampled configurations per task and algorithm
//   (b) best GFLOPS as a percentage of AutoTVM's
// Protocol follows the paper: early stopping 400, budget ~1024, results
// averaged over AAL_TRIALS seeds per (task, algorithm).
//
// The (task x arm) grid cells are independent (seeds derive from the cell
// position), so AAL_JOBS>1 runs them concurrently with bitwise-identical
// output; the wall-clock line at the end records the speedup.
#include <chrono>
#include <cstdio>
#include <future>

#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"

int main() {
  using namespace aal;
  using namespace aal::bench;
  set_log_threshold(LogLevel::kWarn);
  banner("Fig. 5", "19 MobileNet-v1 tasks: #configs and GFLOPS vs AutoTVM");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto all_tasks = extract_tasks(fuse(make_mobilenet_v1()));
  std::vector<Workload> conv_tasks;
  for (const auto& t : all_tasks) {
    if (t.workload.is_conv()) conv_tasks.push_back(t.workload);
  }

  TuneOptions options;
  options.budget = budget();
  options.early_stopping = 400;

  const auto arms = paper_arms();
  const auto start = std::chrono::steady_clock::now();

  // One grid cell per (task, arm); cells are independent, so they can run
  // on any schedule. Results land in a position-indexed array and the table
  // is assembled serially afterwards.
  std::vector<std::vector<TaskOutcome>> outcomes(
      conv_tasks.size(), std::vector<TaskOutcome>(arms.size()));
  const auto run_cell = [&](std::size_t ti, std::size_t a) {
    outcomes[ti][a] = run_task(conv_tasks[ti], spec, arms[a].factory, options,
                               trials(), ti * 10 + a + 1);
    std::fprintf(stderr, "[fig5] T%zu %s done\n", ti + 1,
                 arms[a].label.c_str());
  };
  if (jobs() <= 1) {
    for (std::size_t ti = 0; ti < conv_tasks.size(); ++ti) {
      for (std::size_t a = 0; a < arms.size(); ++a) run_cell(ti, a);
    }
  } else {
    ThreadPool pool(static_cast<std::size_t>(jobs()));
    std::vector<std::future<void>> cells;
    for (std::size_t ti = 0; ti < conv_tasks.size(); ++ti) {
      for (std::size_t a = 0; a < arms.size(); ++a) {
        cells.push_back(pool.submit([&run_cell, ti, a] { run_cell(ti, a); }));
      }
    }
    for (auto& c : cells) c.get();
  }

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TextTable table;
  table.set_header({"task", "workload", "cfg:AutoTVM", "cfg:BTED",
                    "cfg:BTED+BAO", "GF:AutoTVM", "GF:BTED%", "GF:BTED+BAO%"});

  double avg_cfg[3] = {0, 0, 0};
  double avg_ratio[3] = {0, 0, 0};
  for (std::size_t ti = 0; ti < conv_tasks.size(); ++ti) {
    const std::vector<TaskOutcome>& row = outcomes[ti];
    const double base = row[0].mean_true_gflops;
    std::string label = "T";
    label += std::to_string(ti + 1);
    table.add_row({label, conv_tasks[ti].brief(),
                   format_double(row[0].mean_configs, 0),
                   format_double(row[1].mean_configs, 0),
                   format_double(row[2].mean_configs, 0),
                   format_double(base, 1),
                   format_double(100.0 * row[1].mean_true_gflops / base, 1),
                   format_double(100.0 * row[2].mean_true_gflops / base, 1)});
    for (int a = 0; a < 3; ++a) {
      avg_cfg[a] += row[a].mean_configs / static_cast<double>(conv_tasks.size());
      avg_ratio[a] += row[a].mean_true_gflops / base /
                      static_cast<double>(conv_tasks.size());
    }
  }
  table.add_separator();
  table.add_row({"AVG", "",
                 format_double(avg_cfg[0], 0), format_double(avg_cfg[1], 0),
                 format_double(avg_cfg[2], 0), "100.0",
                 format_double(100.0 * avg_ratio[1], 1),
                 format_double(100.0 * avg_ratio[2], 1)});
  std::printf("%s", table.to_string().c_str());

  std::printf("\nGFLOPS are the noise-free quality of each arm's chosen "
              "config, as %% of AutoTVM.\nExpected shape (paper): BTED "
              "samples somewhat more configs than AutoTVM while\nBTED+BAO "
              "samples about the same; both exceed 100%% GFLOPS on average "
              "(paper:\nup to +36.7%% for BTED and +47.9%% for BTED+BAO on "
              "individual tasks).\n");
  std::printf("\nwall-clock: %.1f s at AAL_JOBS=%d (output is identical for "
              "any jobs value)\n", elapsed_s, jobs());
  return 0;
}

// Minimal embedder: the one-include path into aaltune.
//
//   $ ./examples/embed_minimal [store-dir]
//
// This is the supported way to embed the library in another project:
// include only <aaltune/aaltune.hpp>, link the `aaltune` CMake target, and
// drive the three stable entry points — build (or load) a model graph, tune
// it against a persistent RecordStore, and query the best configurations
// for deployment. Run it twice with the same store directory to see the
// cross-run warm start: the second run adopts the first run's records for
// free and measures fewer configurations.
#include <aaltune/aaltune.hpp>

#include <cstdio>
#include <filesystem>
#include <string>

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);

  // 1. A model graph. Embedders can build graphs programmatically (see
  //    examples/custom_model.cpp) or pull one from the zoo.
  const Graph model = make_model("squeezenet_v11");
  const TargetSpec gpu = make_target("gpu-pascal");

  // 2. A persistent record store shared across runs.
  const std::string store_dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "aaltune_store")
                     .string();
  RecordStore store(store_dir);
  std::printf("store %s: %zu records from previous runs\n", store_dir.c_str(),
              store.size());

  // 3. Tune every task of the model. MetricsRegistry shows the warm-start
  //    accounting: store.hits are free, measure.configs_measured is what
  //    this run actually paid for.
  MetricsRegistry metrics;
  ModelTuneOptions options;
  options.tune.budget = 100;
  options.tune.early_stopping = 32;
  options.store = &store;
  options.metrics = &metrics;
  const ModelTuneReport report =
      tune_model(model, gpu, bted_bao_tuner_factory(), options);

  std::printf("tuned %zu tasks, %lld configs measured this run, "
              "%lld adopted from the store\n",
              report.tasks.size(),
              static_cast<long long>(
                  metrics.counter("measure.configs_measured").value()),
              static_cast<long long>(metrics.counter("store.hits").value()));

  // 4. Query the best configurations (this is what a deployment pipeline
  //    consumes) and estimate end-to-end latency.
  const auto best = report.best_flat_by_task();
  const LatencyEvaluator evaluator(model, gpu);
  const LatencyReport latency = evaluator.run(best, /*runs=*/100, /*seed=*/1);
  std::printf("%s: %.3f ms mean simulated latency\n", model.name().c_str(),
              latency.mean_ms);
  std::printf("store now holds %zu records — rerun to warm-start\n",
              store.size());
  return 0;
}

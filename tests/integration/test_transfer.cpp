// Cross-run transfer, end to end: tune model A, then warm-start model B
// from the shared store A populated.
//
// The acceptance pins:
//   * the warm B run measures at most HALF the configs of a cold B run
//     (the prior replaces the full-width initialization sweep with fleet
//     seeds, so the reduction is structural, not luck);
//   * warm serial and --jobs 4 traces are byte-identical (the prior is a
//     pure function of the store snapshot and the task's derived seed);
//   * model B's tasks are genuinely absent from the store — the reduction
//     comes from *transfer across tasks*, not from store-preload replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/model_tuner.hpp"
#include "store/record_store.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;

/// Model A: the fleet's history donor (tiny_cnn: conv + depthwise + dense).
Graph model_a() { return testing::tiny_cnn(); }

/// Model B: same operator kinds, shifted shapes — every task key differs
/// from model A's, so the store preloads nothing and any warm-start effect
/// is pure cross-task transfer.
Graph model_b() {
  Graph g("tiny_cnn_b");
  NodeId x = g.add_input("data", {Shape{1, 8, 16, 16}, DType::kFloat32});
  x = g.conv2d("conv1", x, 24, 3, 1, 1);  // 24 channels vs A's 16
  x = g.relu("conv1_relu", x);
  x = g.depthwise_conv2d("dw1", x, 3, 1, 1);
  x = g.relu("dw1_relu", x);
  x = g.max_pool2d("pool", x, 2, 2);
  x = g.flatten("flatten", x);
  x = g.dense("fc", x, 16);  // 16 classes vs A's 10
  g.softmax("prob", x);
  g.validate();
  return g;
}

class TransferIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_threshold(LogLevel::kWarn);
    dir_ = (fs::temp_directory_path() /
            ("aal_transfer_integration_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    set_log_threshold(LogLevel::kInfo);
  }

  ModelTuneOptions base_options() {
    ModelTuneOptions o;
    o.tune.budget = 80;
    o.tune.early_stopping = 12;
    // A paper-style wide initialization sweep (the production default is
    // m=64): this is the breadth the transfer prior replaces with history,
    // and what makes the >=2x measured-config reduction structural.
    o.tune.num_initial = 48;
    o.tune.batch_size = 8;
    return o;
  }

  /// Run model A cold against the store, populating it with history.
  void populate_store_with_model_a() {
    RecordStore store(dir_);
    ModelTuneOptions options = base_options();
    options.store = &store;
    tune_model(model_a(), make_target("gpu-pascal"), bted_bao_tuner_factory(),
               options);
    ASSERT_GT(store.size(), 0u);
  }

  std::string dir_;
};

TEST_F(TransferIntegrationTest, WarmModelBMeasuresAtMostHalfOfCold) {
  populate_store_with_model_a();

  // Cold reference: model B without any store or transfer.
  MetricsRegistry cold_metrics;
  {
    ModelTuneOptions options = base_options();
    options.metrics = &cold_metrics;
    tune_model(model_b(), make_target("gpu-pascal"), bted_bao_tuner_factory(),
               options);
  }
  const std::int64_t cold_measured =
      cold_metrics.counter("measure.configs_measured").value();
  ASSERT_GT(cold_measured, 0);

  // Warm run: same seeds, transfer on, over the store A populated.
  MetricsRegistry warm_metrics;
  ModelTuneReport warm;
  {
    RecordStore store(dir_, {.read_only = true});
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.metrics = &warm_metrics;
    options.transfer.enabled = true;
    warm = tune_model(model_b(), make_target("gpu-pascal"),
                      bted_bao_tuner_factory(), options);
  }
  const std::int64_t warm_measured =
      warm_metrics.counter("measure.configs_measured").value();

  // B's task keys are absent from the store: zero preload hits, so every
  // saving below is cross-task transfer, not record replay.
  EXPECT_EQ(warm_metrics.counter("store.hits").value(), 0);
  EXPECT_GT(warm_metrics.counter("transfer.activations").value(), 0);

  // The pin: warm measures at most 50% of cold.
  EXPECT_GT(warm_measured, 0);
  EXPECT_LE(warm_measured * 2, cold_measured)
      << "warm=" << warm_measured << " cold=" << cold_measured;

  // And it still finds a valid best for every task.
  for (const auto& t : warm.tasks) {
    EXPECT_TRUE(t.result.best.has_value()) << t.task_key;
  }
}

TEST_F(TransferIntegrationTest, WarmSerialAndJobs4TracesAreByteIdentical) {
  populate_store_with_model_a();

  const auto warm_trace = [&](int jobs) {
    RecordStore store(dir_, {.read_only = true});
    MemoryTraceSink sink;
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.trace = &sink;
    options.transfer.enabled = true;
    options.jobs = jobs;
    tune_model(model_b(), make_target("gpu-pascal"), bted_bao_tuner_factory(),
               options);
    return sink.to_jsonl();
  };
  const std::string serial = warm_trace(1);
  const std::string parallel = warm_trace(4);
  EXPECT_FALSE(serial.empty());
  // The prior really engaged (and its events landed in the trace)...
  EXPECT_NE(serial.find("transfer_seed"), std::string::npos);
  // ...and the schedule cannot change a single byte.
  EXPECT_EQ(serial, parallel);
}

TEST_F(TransferIntegrationTest, TransferWorksAcrossTunerPolicies) {
  populate_store_with_model_a();
  // The prior threads through both policy families: bted+bao (meta-blend in
  // BAO) and the XGB/autotvm path (prior rows in the per-round fits).
  for (const TunerFactory& factory :
       {autotvm_tuner_factory(), bted_bao_tuner_factory()}) {
    MetricsRegistry metrics;
    RecordStore store(dir_, {.read_only = true});
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.metrics = &metrics;
    options.transfer.enabled = true;
    const ModelTuneReport report =
        tune_model(model_b(), make_target("gpu-pascal"), factory, options);
    EXPECT_GT(metrics.counter("transfer.activations").value(), 0);
    for (const auto& t : report.tasks) {
      EXPECT_TRUE(t.result.best.has_value()) << t.task_key;
    }
  }
}

}  // namespace
}  // namespace aal

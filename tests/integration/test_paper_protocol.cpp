// Protocol-level invariants of the paper's experimental setup, checked at
// reduced scale: initialization sizes, budget accounting, early stopping,
// and the one-measurement-per-iteration property of BAO.
#include <gtest/gtest.h>

#include "core/advanced_tuner.hpp"
#include "core/bted.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"
#include "tuner/xgb_tuner.hpp"

namespace aal {
namespace {

class PaperProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");
  Workload workload_ = testing::small_conv_workload();

  BtedParams quick_bted() {
    BtedParams p;
    p.batch_sample_size = 120;
    p.num_batches = 4;
    p.num_select = 16;  // m, used when bted_sample is called directly
    return p;
  }
};

TEST_F(PaperProtocolTest, InitializationConsumesExactlyM) {
  // Both arms must spend exactly num_initial measurements before the
  // iterative stage (the paper's m = 64; scaled down here).
  for (int arm = 0; arm < 2; ++arm) {
    TuningTask task(workload_, spec_);
    SimulatedDevice device(spec_, 5);
    Measurer measurer(task, device);
    TuneOptions options;
    options.num_initial = 24;
    options.budget = 24;  // stop right after initialization
    options.early_stopping = 0;
    std::unique_ptr<Tuner> tuner;
    if (arm == 0) {
      tuner = std::make_unique<XgbTuner>(
          std::make_shared<GbdtSurrogateFactory>(),
          bted_init_sampler(quick_bted()));
    } else {
      tuner = std::make_unique<AdvancedActiveLearningTuner>(quick_bted());
    }
    const TuneResult result = tuner->tune(measurer, options);
    EXPECT_EQ(result.num_measured, 24) << "arm " << arm;
  }
}

TEST_F(PaperProtocolTest, BaoMeasuresOneConfigPerIteration) {
  TuningTask task(workload_, spec_);
  SimulatedDevice device(spec_, 7);
  Measurer measurer(task, device);
  Rng rng(3);
  for (const Config& c : bted_sample(task, quick_bted(), rng)) {
    measurer.measure(c);
  }
  ASSERT_EQ(measurer.num_measured(), 16);

  const GbdtSurrogateFactory factory(
      AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
  BaoSearch bao{BaoParams{}};
  while (measurer.num_measured() < 16 + 37) {  // 37 BAO iterations
    const std::optional<Config> pick = bao.next(measurer, factory, rng);
    ASSERT_TRUE(pick.has_value());
    bao.observe(measurer.measure(*pick), measurer);
  }
  EXPECT_EQ(bao.iterations(), 37);
  EXPECT_EQ(measurer.num_measured(), 16 + 37);
}

TEST_F(PaperProtocolTest, EarlyStoppingBoundsTheOvershoot) {
  // With early stopping S, a tuner stops within S measurements of its last
  // improvement — the history tail after the best point is at most S (plus
  // one in-flight batch for batched tuners).
  TuningTask task(workload_, spec_);
  SimulatedDevice device(spec_, 9);
  Measurer measurer(task, device);
  XgbTuner tuner;
  TuneOptions options;
  options.budget = 100000;
  options.early_stopping = 60;
  options.num_initial = 24;
  options.batch_size = 16;
  const TuneResult result = tuner.tune(measurer, options);

  const auto curve = result.best_curve();
  std::size_t last_improvement = 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i] > curve[i - 1]) last_improvement = i;
  }
  EXPECT_LE(curve.size() - 1 - last_improvement,
            60u + 16u);  // patience + one batch
}

TEST_F(PaperProtocolTest, ArmsShareMeasurementSemantics) {
  // All three arms consume the same budget currency: distinct configs.
  const TunerFactory factories[] = {
      autotvm_tuner_factory(), bted_tuner_factory(), bted_bao_tuner_factory()};
  for (const auto& factory : factories) {
    TuningTask task(workload_, spec_);
    SimulatedDevice device(spec_, 11);
    Measurer measurer(task, device);
    auto tuner = factory(nullptr);
    TuneOptions options;
    options.budget = 80;
    options.early_stopping = 0;
    options.num_initial = 24;
    const TuneResult result = tuner->tune(measurer, options);
    EXPECT_EQ(result.num_measured, measurer.num_measured());
    EXPECT_EQ(result.num_measured, 80);
  }
}

}  // namespace
}  // namespace aal

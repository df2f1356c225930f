// Adversarial store histories for the transfer-prior builder.
//
// The degradation contract: whenever the store offers nothing usable —
// empty, failed-records-only, records from a different target — the prior
// must come back inactive with only the transfer.skipped counter moved, and
// a transfer-enabled run over such a store must be bitwise-identical to a
// transfer-off run. Cold start is the fallback, never an error.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/model_tuner.hpp"
#include "store/record_store.hpp"
#include "support/logging.hpp"
#include "transfer/transfer_prior.hpp"
#include "test_util.hpp"
#include "space/template_registry.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;

class TransferPriorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_threshold(LogLevel::kWarn);
    dir_ = (fs::temp_directory_path() /
            ("aal_transfer_prior_" +
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

  /// A sibling conv task: same kind as small_conv_workload, nearby shape.
  static Workload sibling_conv() {
    Conv2dWorkload w;
    w.batch = 1;
    w.in_channels = 16;
    w.height = 28;
    w.width = 28;
    w.out_channels = 16;  // small_conv_workload has 32
    w.kernel_h = 3;
    w.kernel_w = 3;
    w.pad_h = 1;
    w.pad_w = 1;
    return Workload::conv2d(w);
  }

  /// Appends `n` records for (workload, target); successes unless ok=false.
  static void seed_history(RecordStore& store, const Workload& w,
                           const TargetSpec& target, int n, bool ok = true) {
    const std::string key = TuningTask::key_for(w, target);
    const std::int64_t size =
        TemplateRegistry::instance().build(w, TargetSpec{}).size();
    for (int i = 0; i < n; ++i) {
      const std::int64_t flat = (i * 37) % size;
      store.append(TuningRecord{key, flat, ok, ok ? 100.0 + i : 0.0, 10.0,
                                ok ? "" : "sim: launch failed"});
    }
    store.flush();
  }

  /// Prior for small_conv_workload on `target` over the store at dir_.
  TransferPrior build(const TargetSpec& target, MetricsRegistry* metrics) {
    RecordStore store(dir_, {.read_only = false});
    const TuningTask task(testing::small_conv_workload(), target);
    TransferParams params;
    params.enabled = true;
    Obs obs;
    obs.metrics = metrics;
    return build_transfer_prior(task, store, params, /*seed=*/42, obs);
  }

  std::string dir_;
};

TEST_F(TransferPriorTest, EmptyStoreDegradesToColdStart) {
  MetricsRegistry metrics;
  const TransferPrior prior = build(make_target("gpu-volta"), &metrics);
  EXPECT_FALSE(prior.active());
  EXPECT_TRUE(prior.seeds.empty());
  EXPECT_EQ(prior.meta, nullptr);
  EXPECT_EQ(metrics.counter("transfer.skipped").value(), 1);
  EXPECT_EQ(metrics.counter("transfer.activations").value(), 0);
}

TEST_F(TransferPriorTest, FailedOnlyHistoryDegradesToColdStart) {
  // A quarantined source — every record failed — teaches nothing worth
  // seeding from; best_gflops <= 0 must disqualify the source entirely.
  {
    RecordStore store(dir_);
    seed_history(store, sibling_conv(), make_target("gpu-volta"), 40,
                 /*ok=*/false);
  }
  MetricsRegistry metrics;
  const TransferPrior prior = build(make_target("gpu-volta"), &metrics);
  EXPECT_FALSE(prior.active());
  EXPECT_EQ(metrics.counter("transfer.skipped").value(), 1);
}

TEST_F(TransferPriorTest, DifferentTargetHistoryNeverLeaks) {
  // The "@target" no-leak pin: rich gpu-volta history must not seed a
  // tune on fpga-systolic (or any other target) — records measured on one
  // backend never warm another.
  {
    RecordStore store(dir_);
    seed_history(store, sibling_conv(), make_target("gpu-volta"), 64);
  }
  for (const char* name : {"fpga-systolic", "cpu-simd", "gpu-pascal"}) {
    MetricsRegistry metrics;
    const TransferPrior prior = build(make_target(name), &metrics);
    EXPECT_FALSE(prior.active()) << name;
    EXPECT_EQ(metrics.counter("transfer.skipped").value(), 1) << name;
  }
}

TEST_F(TransferPriorTest, LegacyBareKeysResolveToDefaultTargetOnly) {
  // Pre-qualification stores hold bare workload keys; those are
  // default-target (gpu-pascal) history. They must warm a gpu-pascal tune
  // and must NOT warm any other target.
  {
    RecordStore store(dir_);
    const std::string bare_key = sibling_conv().key();  // no "@target"
    const std::int64_t size =
        TemplateRegistry::instance().build(sibling_conv(), TargetSpec{}).size();
    for (int i = 0; i < 64; ++i) {
      store.append(
          TuningRecord{bare_key, (i * 37) % size, true, 100.0 + i, 10.0, ""});
    }
    store.flush();
  }
  MetricsRegistry pascal_metrics;
  const TransferPrior pascal = build(make_target("gpu-pascal"), &pascal_metrics);
  EXPECT_TRUE(pascal.active());
  EXPECT_EQ(pascal_metrics.counter("transfer.skipped").value(), 0);

  MetricsRegistry volta_metrics;
  const TransferPrior volta = build(make_target("gpu-volta"), &volta_metrics);
  EXPECT_FALSE(volta.active());
  EXPECT_EQ(volta_metrics.counter("transfer.skipped").value(), 1);
}

TEST_F(TransferPriorTest, SiblingHistoryActivatesSeedsAndMeta) {
  const TargetSpec volta = make_target("gpu-volta");
  {
    RecordStore store(dir_);
    seed_history(store, sibling_conv(), volta, 64);
  }
  MetricsRegistry metrics;
  const TransferPrior prior = build(volta, &metrics);
  ASSERT_TRUE(prior.active());
  EXPECT_FALSE(prior.seeds.empty());
  EXPECT_NE(prior.meta, nullptr);  // 64 rows >= min_meta_rows
  EXPECT_GT(prior.rows.num_rows(), 0u);
  EXPECT_EQ(prior.source_tasks, 1);
  EXPECT_EQ(metrics.counter("transfer.activations").value(), 1);
  EXPECT_EQ(metrics.counter("transfer.skipped").value(), 0);

  // Every seed is feasible and distinct (the policies deploy them as-is).
  const TuningTask task(testing::small_conv_workload(), volta);
  std::set<std::int64_t> flats;
  for (const Config& c : prior.seeds) {
    EXPECT_TRUE(task.space().feasible(c));
    EXPECT_TRUE(flats.insert(c.flat).second);
  }

  // Determinism: same store snapshot + same seed => identical prior.
  MetricsRegistry again_metrics;
  const TransferPrior again = build(volta, &again_metrics);
  ASSERT_EQ(again.seeds.size(), prior.seeds.size());
  for (std::size_t i = 0; i < prior.seeds.size(); ++i) {
    EXPECT_EQ(again.seeds[i].flat, prior.seeds[i].flat);
  }
}

TEST_F(TransferPriorTest, ConfidenceWeightDecaysGeometrically) {
  TransferPrior prior;
  prior.initial_weight = 0.6;
  prior.half_life = 16.0;
  EXPECT_DOUBLE_EQ(prior.weight_at(0), 0.6);
  EXPECT_DOUBLE_EQ(prior.weight_at(16), 0.3);
  EXPECT_DOUBLE_EQ(prior.weight_at(32), 0.15);
  for (std::int64_t n = 1; n < 100; n += 7) {
    EXPECT_LT(prior.weight_at(n), prior.weight_at(n - 1));
  }
  prior.half_life = 0.0;  // degenerate: no meta influence at all
  EXPECT_DOUBLE_EQ(prior.weight_at(0), 0.0);
}

// --- Full-pipeline bitwise degradation -----------------------------------

class TransferColdPathTest : public TransferPriorTest {
 protected:
  ModelTuneOptions base_options() {
    ModelTuneOptions o;
    o.tune.budget = 40;
    o.tune.early_stopping = 8;
    o.tune.num_initial = 16;
    o.tune.batch_size = 8;
    return o;
  }

  /// Trace of a tune_model run over the store at dir_ (read-only handle).
  std::string run_trace(bool transfer_enabled) {
    RecordStore store(dir_, {.read_only = true});
    MemoryTraceSink sink;
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.trace = &sink;
    options.transfer.enabled = transfer_enabled;
    tune_model(testing::tiny_cnn(), make_target("gpu-pascal"),
               bted_bao_tuner_factory(), options);
    return sink.to_jsonl();
  }
};

TEST_F(TransferColdPathTest, EmptyStoreTransferRunIsBitwiseColdStart) {
  { RecordStore store(dir_); }  // create empty
  EXPECT_EQ(run_trace(/*transfer_enabled=*/true),
            run_trace(/*transfer_enabled=*/false));
}

TEST_F(TransferColdPathTest, UselessStoreTransferRunIsBitwiseColdStart) {
  // Failed-only history for this model's own kinds plus healthy history
  // under a *different* target: both must be ignored, leaving the enabled
  // run byte-identical to the disabled one.
  {
    RecordStore store(dir_);
    seed_history(store, sibling_conv(), make_target("gpu-pascal"), 30,
                 /*ok=*/false);
    seed_history(store, sibling_conv(), make_target("gpu-volta"), 64);
    seed_history(store, testing::small_dense_workload(),
                 make_target("fpga-systolic"), 64);
  }
  const std::string enabled = run_trace(/*transfer_enabled=*/true);
  EXPECT_EQ(enabled, run_trace(/*transfer_enabled=*/false));
  EXPECT_EQ(enabled.find("transfer_seed"), std::string::npos);
}

}  // namespace
}  // namespace aal

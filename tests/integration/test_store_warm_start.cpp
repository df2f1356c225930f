// End-to-end RecordStore warm start (the tentpole's acceptance pin):
//
//  - a second tune_model run against the store populated by a first run
//    measures strictly fewer configurations (store hits are free and the
//    warm-started early-stop trips sooner), verified via the store.hits and
//    measure.configs_measured counters;
//  - with an *empty* store the run is byte-identical to a storeless run;
//  - with a *fixed* store snapshot, serial and jobs=4 warm runs emit
//    byte-identical traces, and cold serial/parallel runs write
//    byte-identical store files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/model_tuner.hpp"
#include "store/record_store.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;

class StoreWarmStartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_threshold(LogLevel::kWarn);
    dir_ = (fs::temp_directory_path() /
            ("aal_warm_start_" +
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
    o.tune.budget = 60;
    o.tune.early_stopping = 10;
    o.tune.num_initial = 24;
    o.tune.batch_size = 12;
    return o;
  }

  TargetSpec spec_ = make_target("gpu-pascal");
  std::string dir_;
};

TEST_F(StoreWarmStartTest, SecondRunMeasuresStrictlyFewerConfigs) {
  const Graph g = testing::tiny_cnn();

  MetricsRegistry cold_metrics;
  std::int64_t cold_best_sum = 0;
  {
    RecordStore store(dir_);
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.metrics = &cold_metrics;
    const ModelTuneReport cold =
        tune_model(g, spec_, random_tuner_factory(), options);
    for (const auto& t : cold.tasks) {
      cold_best_sum += static_cast<std::int64_t>(t.result.best_gflops());
    }
    // The cold run flushed its fresh records.
    EXPECT_EQ(static_cast<std::int64_t>(store.size()),
              cold_metrics.counter("measure.configs_measured").value());
    EXPECT_EQ(cold_metrics.counter("store.hits").value(), 0);
  }
  const std::int64_t cold_measured =
      cold_metrics.counter("measure.configs_measured").value();
  ASSERT_GT(cold_measured, 0);

  // Second run, same seeds, fresh handle on the populated store.
  MetricsRegistry warm_metrics;
  RecordStore store(dir_);
  const std::size_t store_size_before = store.size();
  ModelTuneOptions options = base_options();
  options.store = &store;
  options.metrics = &warm_metrics;
  const ModelTuneReport warm =
      tune_model(g, spec_, random_tuner_factory(), options);

  const std::int64_t warm_measured =
      warm_metrics.counter("measure.configs_measured").value();
  const std::int64_t store_hits = warm_metrics.counter("store.hits").value();
  EXPECT_EQ(store_hits, cold_measured);  // every prior record adopted
  EXPECT_LT(warm_measured, cold_measured);  // strictly fewer — the pin
  EXPECT_GT(warm_measured, 0);  // the warm run still explored something

  // The warm run can only match or improve the cold run's best...
  std::int64_t warm_best_sum = 0;
  for (const auto& t : warm.tasks) {
    warm_best_sum += static_cast<std::int64_t>(t.result.best_gflops());
  }
  EXPECT_GE(warm_best_sum, cold_best_sum);
  // ...and flushed only its own fresh records back (no duplicates).
  EXPECT_EQ(store.size(), store_size_before +
                              static_cast<std::size_t>(warm_measured));
}

TEST_F(StoreWarmStartTest, WarmStartWorksWithTransferArm) {
  const Graph g = testing::tiny_cnn();
  {
    RecordStore store(dir_);
    ModelTuneOptions options = base_options();
    options.store = &store;
    tune_model(g, spec_, autotvm_tuner_factory(), options);
    EXPECT_GT(store.size(), 0u);
  }
  // The transfer arm preloads store rows, absorbs them into the lane's
  // TransferContext exactly once, and still completes every task.
  MetricsRegistry metrics;
  RecordStore store(dir_, {.read_only = true});
  ModelTuneOptions options = base_options();
  options.store = &store;
  options.metrics = &metrics;
  const ModelTuneReport warm =
      tune_model(g, spec_, autotvm_tuner_factory(), options);
  EXPECT_GT(metrics.counter("store.hits").value(), 0);
  for (const auto& t : warm.tasks) {
    EXPECT_TRUE(t.result.best.has_value()) << t.task_key;
  }
}

TEST_F(StoreWarmStartTest, EmptyStoreIsByteIdenticalToNoStore) {
  const Graph g = testing::tiny_cnn();

  MemoryTraceSink without_store;
  {
    ModelTuneOptions options = base_options();
    options.trace = &without_store;
    tune_model(g, spec_, random_tuner_factory(), options);
  }

  MemoryTraceSink with_empty_store;
  {
    RecordStore store(dir_);  // exists but holds nothing
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.trace = &with_empty_store;
    tune_model(g, spec_, random_tuner_factory(), options);
  }
  EXPECT_EQ(without_store.to_jsonl(), with_empty_store.to_jsonl());
}

TEST_F(StoreWarmStartTest, WarmSerialAndJobs4TracesAreByteIdentical) {
  const Graph g = testing::tiny_cnn();
  {
    RecordStore store(dir_);
    ModelTuneOptions options = base_options();
    options.store = &store;
    tune_model(g, spec_, random_tuner_factory(), options);
  }

  const auto warm_trace = [&](int jobs) {
    // Read-only handles: neither warm run may mutate the snapshot the other
    // one reads.
    RecordStore store(dir_, {.read_only = true});
    MemoryTraceSink sink;
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.trace = &sink;
    options.jobs = jobs;
    tune_model(g, spec_, random_tuner_factory(), options);
    return sink.to_jsonl();
  };
  const std::string serial = warm_trace(1);
  const std::string parallel = warm_trace(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("store_hit"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

TEST_F(StoreWarmStartTest, ColdSerialAndJobs4WriteIdenticalStoreFiles) {
  const Graph g = testing::tiny_cnn();
  const auto run_cold = [&](const std::string& dir, int jobs) {
    RecordStore store(dir);
    ModelTuneOptions options = base_options();
    options.store = &store;
    options.jobs = jobs;
    tune_model(g, spec_, random_tuner_factory(), options);
  };
  const std::string dir_serial = dir_ + "_serial";
  const std::string dir_jobs = dir_ + "_jobs4";
  fs::remove_all(dir_serial);
  fs::remove_all(dir_jobs);
  run_cold(dir_serial, 1);
  run_cold(dir_jobs, 4);

  const auto slurp = [](const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(dir_serial)) {
    const fs::path other = fs::path(dir_jobs) / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(slurp(entry.path()), slurp(other)) << entry.path();
    ++compared;
  }
  EXPECT_GT(compared, 1u);  // meta + at least one shard
  fs::remove_all(dir_serial);
  fs::remove_all(dir_jobs);
}

}  // namespace
}  // namespace aal

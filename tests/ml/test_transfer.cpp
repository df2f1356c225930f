#include "ml/transfer.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aal {
namespace {

std::vector<MeasureResult> fake_results(const TuningTask& task, int n,
                                        Rng& rng) {
  std::vector<MeasureResult> out;
  for (const Config& c : task.space().sample_distinct(n, rng)) {
    MeasureResult r;
    r.config = c;
    r.ok = true;
    r.gflops = rng.next_double(100.0, 1000.0);
    out.push_back(std::move(r));
  }
  return out;
}

class TransferTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask conv_a_{testing::small_conv_workload(), spec_};
  TuningTask dense_{testing::small_dense_workload(), spec_};
  TuningTask depthwise_{testing::small_depthwise_workload(), spec_};
};

TEST_F(TransferTest, AbsorbAndSeedForSiblingTask) {
  TransferContext ctx;
  Rng rng(1);
  ctx.absorb(conv_a_, fake_results(conv_a_, 30, rng));
  EXPECT_EQ(ctx.pool_size(WorkloadKind::kConv2d), 30u);

  // A different conv2d task can consume the pool.
  Conv2dWorkload other = testing::small_conv_workload().as_conv2d();
  other.out_channels = 64;
  TuningTask conv_b(Workload::conv2d(other), spec_);
  const Dataset seed = ctx.seed_for(conv_b);
  EXPECT_EQ(seed.num_rows(), 30u);
  EXPECT_EQ(seed.num_features(),
            static_cast<std::size_t>(conv_b.space().feature_dim()));
}

TEST_F(TransferTest, OwnRecordsAreExcluded) {
  TransferContext ctx;
  Rng rng(2);
  ctx.absorb(conv_a_, fake_results(conv_a_, 10, rng));
  const Dataset seed = ctx.seed_for(conv_a_);
  EXPECT_EQ(seed.num_rows(), 0u);
}

TEST_F(TransferTest, KindsAreSegregated) {
  TransferContext ctx;
  Rng rng(3);
  ctx.absorb(conv_a_, fake_results(conv_a_, 10, rng));
  EXPECT_EQ(ctx.pool_size(WorkloadKind::kDense), 0u);
  EXPECT_EQ(ctx.seed_for(dense_).num_rows(), 0u);
  EXPECT_EQ(ctx.seed_for(depthwise_).num_rows(), 0u);
}

TEST_F(TransferTest, ScoresAreNormalizedToBest) {
  TransferContext ctx;
  Rng rng(4);
  auto results = fake_results(conv_a_, 5, rng);
  results[0].gflops = 500.0;
  results[1].gflops = 1000.0;  // best
  results[2].gflops = 250.0;
  results[3].ok = false;
  results[3].gflops = 0.0;
  results[4].gflops = 100.0;
  ctx.absorb(conv_a_, results);

  Conv2dWorkload other = testing::small_conv_workload().as_conv2d();
  other.out_channels = 64;
  TuningTask conv_b(Workload::conv2d(other), spec_);
  const Dataset seed = ctx.seed_for(conv_b);
  ASSERT_EQ(seed.num_rows(), 5u);
  double max_target = 0.0;
  for (std::size_t i = 0; i < seed.num_rows(); ++i) {
    EXPECT_GE(seed.target(i), 0.0);
    EXPECT_LE(seed.target(i), 1.0);
    max_target = std::max(max_target, seed.target(i));
  }
  EXPECT_DOUBLE_EQ(max_target, 1.0);
}

TEST_F(TransferTest, AllFailedTaskContributesNothing) {
  TransferContext ctx;
  Rng rng(5);
  auto results = fake_results(conv_a_, 5, rng);
  for (auto& r : results) {
    r.ok = false;
    r.gflops = 0.0;
  }
  ctx.absorb(conv_a_, results);
  EXPECT_EQ(ctx.pool_size(WorkloadKind::kConv2d), 0u);
}

TEST_F(TransferTest, MaxRowsCapsRecentFirst) {
  TransferContext ctx;
  Rng rng(6);
  ctx.absorb(conv_a_, fake_results(conv_a_, 50, rng));
  Conv2dWorkload other = testing::small_conv_workload().as_conv2d();
  other.out_channels = 64;
  TuningTask conv_b(Workload::conv2d(other), spec_);
  EXPECT_EQ(ctx.seed_for(conv_b, 20).num_rows(), 20u);
}

}  // namespace
}  // namespace aal

#include "core/bted.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "test_util.hpp"

namespace aal {
namespace {

class BtedTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};
};

BtedParams quick_params() {
  BtedParams p;
  p.batch_sample_size = 100;
  p.num_select = 16;
  p.num_batches = 4;
  return p;
}

TEST_F(BtedTest, ReturnsRequestedDistinctConfigs) {
  Rng rng(1);
  const auto configs = bted_sample(task_, quick_params(), rng);
  EXPECT_EQ(configs.size(), 16u);
  std::set<std::int64_t> flats;
  for (const auto& c : configs) {
    EXPECT_GE(c.flat, 0);
    EXPECT_LT(c.flat, task_.space().size());
    flats.insert(c.flat);
  }
  EXPECT_EQ(flats.size(), configs.size());
}

TEST_F(BtedTest, DeterministicGivenRng) {
  Rng a(2), b(2);
  const auto x = bted_sample(task_, quick_params(), a);
  const auto y = bted_sample(task_, quick_params(), b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].flat, y[i].flat);
}

TEST_F(BtedTest, SerialMatchesParallel) {
  BtedParams serial = quick_params();
  serial.parallel = false;
  BtedParams parallel = quick_params();
  parallel.parallel = true;
  Rng a(3), b(3);
  const auto x = bted_sample(task_, serial, a);
  const auto y = bted_sample(task_, parallel, b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].flat, y[i].flat);
}

TEST_F(BtedTest, CoversSpaceBetterThanRandomSampling) {
  // TED optimizes *representativeness*: probe points should on average sit
  // closer to their nearest selected configuration than with a uniform
  // random pick of the same size (lower coverage radius).
  Rng rng(4);
  const auto probes = task_.space().sample_distinct(300, rng);
  std::vector<std::vector<double>> probe_feats;
  for (const auto& p : probes) probe_feats.push_back(task_.space().features(p));

  auto coverage = [&](const std::vector<Config>& selected) {
    std::vector<std::vector<double>> feats;
    for (const auto& c : selected) feats.push_back(task_.space().features(c));
    double total = 0.0;
    for (const auto& probe : probe_feats) {
      double best = 1e300;
      for (const auto& f : feats) {
        double acc = 0.0;
        for (std::size_t c = 0; c < f.size(); ++c) {
          const double d = f[c] - probe[c];
          acc += d * d;
        }
        best = std::min(best, acc);
      }
      total += std::sqrt(best);
    }
    return total / static_cast<double>(probe_feats.size());
  };

  const auto bted = bted_sample(task_, quick_params(), rng);
  double random_cov = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    random_cov += coverage(task_.space().sample_distinct(16, rng));
  }
  EXPECT_LT(coverage(bted), random_cov / trials);
}

TEST_F(BtedTest, InitSamplerAdapterOverridesCount) {
  const InitSampler sampler = bted_init_sampler(quick_params());
  Rng rng(5);
  const auto configs = sampler(task_, 24, rng);
  EXPECT_EQ(configs.size(), 24u);
}

TEST_F(BtedTest, SingleBatchDegeneratesToTed) {
  BtedParams p = quick_params();
  p.num_batches = 1;
  Rng rng(6);
  const auto configs = bted_sample(task_, p, rng);
  EXPECT_EQ(configs.size(), 16u);
}

TEST_F(BtedTest, ValidatesParams) {
  Rng rng(7);
  BtedParams p = quick_params();
  p.num_batches = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
  p = quick_params();
  p.batch_sample_size = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
  p = quick_params();
  p.num_select = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
}

TEST_F(BtedTest, PaperDefaultsAreEncoded) {
  const BtedParams defaults;
  EXPECT_DOUBLE_EQ(defaults.mu, 0.1);
  EXPECT_EQ(defaults.batch_sample_size, 500);
  EXPECT_EQ(defaults.num_select, 64);
  EXPECT_EQ(defaults.num_batches, 10);
}

}  // namespace
}  // namespace aal

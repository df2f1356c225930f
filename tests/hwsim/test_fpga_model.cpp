// Tests for the analytical systolic-array FPGA device model: valid spatial
// mappings exist, the statically-scheduled datapath has near-zero noise,
// capacity constraints (PE array, SIMD lanes, replication, local buffer)
// agree with the model, and pruning never rejects the best schedule.
#include "hwsim/fpga_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hwsim/device_model.hpp"
#include "space/schedule_template.hpp"
#include "test_util.hpp"
#include "space/template_registry.hpp"

namespace aal {
namespace {

class FpgaModelTest : public ::testing::TestWithParam<Workload> {
 protected:
  FpgaModelTest()
      : workload_(GetParam()),
        target_(make_target("fpga-systolic")),
        model_(workload_, target_),
        space_(TemplateRegistry::instance().build(workload_, TargetSpec{})) {}

  Workload workload_;
  TargetSpec target_;
  FpgaDeviceModel model_;
  ConfigSpace space_;  // unconstrained: samples the full space
};

TEST_P(FpgaModelTest, ValidMappingsExistWithNearZeroNoise) {
  Rng rng(3);
  int valid = 0;
  for (int i = 0; i < 800; ++i) {
    const KernelProfile p = model_.profile(space_, space_.sample(rng));
    if (!p.valid) continue;
    ++valid;
    EXPECT_GT(p.base_time_us, 0.0);
    // A statically scheduled datapath barely jitters: only DDR arbitration
    // moves, far below the GPU model's noise floor.
    EXPECT_GE(p.noise_sigma, 0.001);
    EXPECT_LE(p.noise_sigma, 0.012);
    EXPECT_LE(p.gflops(workload_.flops()), target_.peak_gflops() * 1.001);
  }
  EXPECT_GT(valid, 0);
}

TEST_P(FpgaModelTest, ProfileIsDeterministic) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Config c = space_.sample(rng);
    const KernelProfile a = model_.profile(space_, c);
    const KernelProfile b = model_.profile(space_, c);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_DOUBLE_EQ(a.base_time_us, b.base_time_us);
    EXPECT_DOUBLE_EQ(a.noise_sigma, b.noise_sigma);
    EXPECT_EQ(a.error, b.error);
  }
}

TEST_P(FpgaModelTest, ConstraintsAreNamedAndFpgaPrefixed) {
  const std::vector<SpaceConstraint> constraints = model_.constraints();
  ASSERT_EQ(constraints.size(), 4u);
  std::set<std::string> names;
  for (const SpaceConstraint& c : constraints) {
    ASSERT_TRUE(c.predicate);
    EXPECT_EQ(c.name.substr(0, 5), "fpga.") << c.name;
    names.insert(c.name);
  }
  EXPECT_EQ(names.size(), constraints.size()) << "constraint names collide";
}

TEST_P(FpgaModelTest, PrunedConfigsAlwaysProfileInvalid) {
  ConfigSpace constrained =
      TemplateRegistry::instance().build(workload_, TargetSpec{});
  constrained.set_constraints(model_.constraints());
  Rng rng(11);
  int pruned = 0;
  for (int i = 0; i < 600; ++i) {
    const Config c = space_.sample(rng);
    if (constrained.feasible(c)) continue;
    ++pruned;
    const KernelProfile p = model_.profile(space_, c);
    EXPECT_FALSE(p.valid) << space_.to_string(c);
    EXPECT_FALSE(p.error.empty());
  }
  EXPECT_GT(pruned, 0);
}

TEST_P(FpgaModelTest, BestSampledMappingIsNeverPruned) {
  ConfigSpace constrained =
      TemplateRegistry::instance().build(workload_, TargetSpec{});
  constrained.set_constraints(model_.constraints());
  Rng rng(13);
  double best_gflops = 0.0;
  Config best;
  for (const Config& c : space_.sample_distinct(800, rng)) {
    const KernelProfile p = model_.profile(space_, c);
    const double g = p.gflops(workload_.flops());
    if (p.valid && g > best_gflops) {
      best_gflops = g;
      best = c;
    }
  }
  ASSERT_GT(best_gflops, 0.0);
  EXPECT_TRUE(constrained.feasible(best)) << space_.to_string(best);
}

TEST_P(FpgaModelTest, ConstrainedSamplingOnlyYieldsFeasiblePoints) {
  // The systolic array prunes hard (most of the CUDA-shaped space exceeds
  // its capacity walls); what sampling returns must all be feasible.
  ConfigSpace constrained =
      TemplateRegistry::instance().build(workload_, TargetSpec{});
  constrained.set_constraints(model_.constraints());
  Rng rng(17);
  const auto sampled = constrained.sample_distinct(200, rng);
  EXPECT_FALSE(sampled.empty());
  for (const Config& c : sampled) {
    const KernelProfile p = model_.profile(space_, c);
    EXPECT_TRUE(p.valid) << space_.to_string(c) << ": " << p.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FpgaModelTest,
    ::testing::Values(testing::small_conv_workload(),
                      testing::small_dense_workload()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return info.index == 0 ? "conv" : "dense";
    });

}  // namespace
}  // namespace aal

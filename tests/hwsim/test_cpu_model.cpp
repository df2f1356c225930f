// Tests for the analytical CPU device model: valid schedules exist, the
// profile is deterministic and physically sane, and the hardware-native
// constraints agree with the model (a pruned config never hides a schedule
// the backend could execute — the "never prunes the optimum" contract).
#include "hwsim/cpu_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hwsim/device_model.hpp"
#include "space/schedule_template.hpp"
#include "test_util.hpp"
#include "space/template_registry.hpp"

namespace aal {
namespace {

class CpuModelTest : public ::testing::TestWithParam<Workload> {
 protected:
  CpuModelTest()
      : workload_(GetParam()),
        target_(make_target("cpu-simd")),
        model_(workload_, target_),
        space_(TemplateRegistry::instance().build(workload_, TargetSpec{})) {}

  Workload workload_;
  TargetSpec target_;
  CpuDeviceModel model_;
  ConfigSpace space_;  // unconstrained: samples the full space
};

TEST_P(CpuModelTest, ValidSchedulesExistAndAreSane) {
  Rng rng(3);
  int valid = 0;
  for (int i = 0; i < 400; ++i) {
    const KernelProfile p = model_.profile(space_, space_.sample(rng));
    if (!p.valid) continue;
    ++valid;
    EXPECT_GT(p.base_time_us, 0.0);
    EXPECT_GE(p.noise_sigma, 0.004);
    EXPECT_LE(p.noise_sigma, 0.09);
    // No profile beats the machine's peak arithmetic throughput.
    EXPECT_LE(p.gflops(workload_.flops()), target_.peak_gflops() * 1.001);
  }
  EXPECT_GT(valid, 0);
}

TEST_P(CpuModelTest, ProfileIsDeterministic) {
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

TEST_P(CpuModelTest, ConstraintsAreNamedAndCpuPrefixed) {
  const std::vector<SpaceConstraint> constraints = model_.constraints();
  ASSERT_EQ(constraints.size(), 3u);
  std::set<std::string> names;
  for (const SpaceConstraint& c : constraints) {
    ASSERT_TRUE(c.predicate);
    EXPECT_EQ(c.name.substr(0, 4), "cpu.") << c.name;
    names.insert(c.name);
  }
  EXPECT_EQ(names.size(), constraints.size()) << "constraint names collide";
}

TEST_P(CpuModelTest, PrunedConfigsAlwaysProfileInvalid) {
  // Model/constraint coherence: any config a constraint rejects must also
  // fail to profile, so pruning can only skip configs that were worthless
  // anyway — the best valid schedule is always feasible.
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
  // The sweep must actually exercise the pruning path.
  EXPECT_GT(pruned, 0);
}

TEST_P(CpuModelTest, BestSampledScheduleIsNeverPruned) {
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

TEST_P(CpuModelTest, FactoryBuildsCpuModelWithConstraints) {
  const auto model = make_device_model(workload_, target_);
  EXPECT_EQ(model->target().name, "cpu-simd");
  EXPECT_EQ(model->constraints().size(), 3u);
  Rng rng(17);
  const Config c = space_.sample(rng);
  const KernelProfile direct = model_.profile(space_, c);
  const KernelProfile via_factory = model->profile(space_, c);
  EXPECT_EQ(direct.valid, via_factory.valid);
  EXPECT_DOUBLE_EQ(direct.base_time_us, via_factory.base_time_us);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CpuModelTest,
    ::testing::Values(testing::small_conv_workload(),
                      testing::small_depthwise_workload(),
                      testing::small_dense_workload()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return info.index == 0 ? "conv" : info.index == 1 ? "depthwise" : "dense";
    });

}  // namespace
}  // namespace aal

#include "space/schedule_template.hpp"

#include <gtest/gtest.h>

#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "test_util.hpp"
#include "space/template_registry.hpp"

namespace aal {
namespace {

TEST(ScheduleTemplate, ConvSpaceKnobLayout) {
  const Workload w = testing::small_conv_workload();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  ASSERT_EQ(space.num_knobs(), 8u);
  EXPECT_EQ(space.knob(0).name(), "tile_f");
  EXPECT_EQ(space.knob(3).name(), "tile_rc");
  EXPECT_EQ(space.knob(6).name(), "auto_unroll_max_step");
  EXPECT_EQ(space.knob(7).name(), "unroll_explicit");
}

TEST(ScheduleTemplate, DepthwiseSpaceHasNoChannelReduction) {
  const Workload w = testing::small_depthwise_workload();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  ASSERT_EQ(space.num_knobs(), 7u);
  EXPECT_EQ(space.knob(0).name(), "tile_c");
  for (std::size_t i = 0; i < space.num_knobs(); ++i) {
    EXPECT_NE(space.knob(i).name(), "tile_rc");
  }
}

TEST(ScheduleTemplate, DenseSpaceKnobs) {
  const Workload w = testing::small_dense_workload();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  ASSERT_EQ(space.num_knobs(), 4u);
  EXPECT_EQ(space.knob(0).name(), "tile_y");
  EXPECT_EQ(space.knob(1).name(), "tile_k");
}

TEST(ScheduleTemplate, VggFirstNodeMatchesPaperScale) {
  // The paper: "the first optimization node in VGG-16 has approximately
  // 0.2 billion configuration points".
  const auto tasks = extract_tasks(fuse(make_vgg16()));
  ASSERT_FALSE(tasks.empty());
  const ConfigSpace space =
      TemplateRegistry::instance().build(tasks[0].workload, TargetSpec{});
  EXPECT_EQ(space.size(), 202309632);  // 84 * 224 * 224 * 2*2*2 * 3 * 2
}

TEST(ScheduleTemplate, ConvDecodeProductsMatchExtents) {
  const Workload w = testing::small_conv_workload();
  const Conv2dWorkload& c = w.as_conv2d();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Config config = space.sample(rng);
    const ConvSchedule s = decode_conv_schedule(w, space, config);
    EXPECT_EQ(s.bf * s.vf * s.tf * s.fi, c.out_channels);
    EXPECT_EQ(s.by * s.vy * s.ty * s.yi, c.out_height());
    EXPECT_EQ(s.bx * s.vx * s.tx * s.xi, c.out_width());
    EXPECT_EQ(s.rco * s.rci, c.in_channels / c.groups);
    EXPECT_EQ(s.ryo * s.ryi, c.kernel_h);
    EXPECT_EQ(s.rxo * s.rxi, c.kernel_w);
  }
}

TEST(ScheduleTemplate, DepthwiseDecodeProducts) {
  const Workload w = testing::small_depthwise_workload();
  const Conv2dWorkload& c = w.as_conv2d();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Config config = space.sample(rng);
    const ConvSchedule s = decode_conv_schedule(w, space, config);
    EXPECT_EQ(s.bf * s.vf * s.tf * s.fi, c.out_channels);
    EXPECT_EQ(s.rco, 1);
    EXPECT_EQ(s.rci, 1);
    EXPECT_EQ(s.ryo * s.ryi, c.kernel_h);
  }
}

TEST(ScheduleTemplate, DenseDecodeProducts) {
  const Workload w = testing::small_dense_workload();
  const DenseWorkload& d = w.as_dense();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Config config = space.sample(rng);
    const DenseSchedule s = decode_dense_schedule(w, space, config);
    EXPECT_EQ(s.bo * s.vo * s.to * s.oi, d.out_features);
    EXPECT_EQ(s.ko * s.ki, d.in_features);
  }
}

TEST(ScheduleTemplate, DecodeRejectsWrongKind) {
  const Workload conv = testing::small_conv_workload();
  const Workload dense = testing::small_dense_workload();
  const ConfigSpace conv_space =
      TemplateRegistry::instance().build(conv, TargetSpec{});
  const ConfigSpace dense_space =
      TemplateRegistry::instance().build(dense, TargetSpec{});
  Rng rng(9);
  EXPECT_THROW(decode_dense_schedule(conv, conv_space, conv_space.sample(rng)),
               InvalidArgument);
  EXPECT_THROW(decode_conv_schedule(dense, dense_space, dense_space.sample(rng)),
               InvalidArgument);
}

TEST(ScheduleTemplate, ScheduleHelpers) {
  const Workload w = testing::small_conv_workload();
  const ConfigSpace space = TemplateRegistry::instance().build(w, TargetSpec{});
  Rng rng(11);
  const Config config = space.sample(rng);
  const ConvSchedule s = decode_conv_schedule(w, space, config);
  EXPECT_EQ(s.threads_per_block(), s.tf * s.ty * s.tx);
  EXPECT_EQ(s.num_blocks(), s.bf * s.by * s.bx);
  EXPECT_EQ(s.per_thread_outputs(), s.vf * s.vy * s.vx * s.fi * s.yi * s.xi);
  EXPECT_EQ(s.tile_f() * s.bf, w.as_conv2d().out_channels);
}

// Property: the space size formula holds for every tunable task of a model.
class SpaceSizeProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(SpaceSizeProperty, SizeEqualsKnobProduct) {
  const auto tasks = extract_tasks(fuse(make_model(GetParam())));
  for (const auto& t : tasks) {
    const ConfigSpace space =
        TemplateRegistry::instance().build(t.workload, TargetSpec{});
    std::int64_t product = 1;
    for (std::size_t i = 0; i < space.num_knobs(); ++i) {
      product *= space.knob(i).size();
    }
    EXPECT_EQ(space.size(), product) << t.workload.key();
    EXPECT_GT(space.size(), 0) << t.workload.key();
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SpaceSizeProperty,
                         ::testing::Values("alexnet", "mobilenet_v1",
                                           "squeezenet_v11"));

}  // namespace
}  // namespace aal

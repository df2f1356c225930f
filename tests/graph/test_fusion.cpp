#include "graph/fusion.hpp"

#include <gtest/gtest.h>

#include "graph/models.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

TEST(Fusion, ConvBnReluFormsOneGroup) {
  Graph g("t");
  NodeId in = g.add_input("data", {Shape{1, 3, 16, 16}, DType::kFloat32});
  NodeId conv = g.conv2d("conv", in, 8, 3, 1, 1);
  NodeId bn = g.batch_norm("bn", conv);
  NodeId relu = g.relu("relu", bn);
  const FusedGraph fused = fuse(g);

  // One tunable group holding conv+bn+relu, plus the input group.
  ASSERT_EQ(fused.num_tunable(), 1u);
  const FusedGroup* tunable = nullptr;
  for (const auto& grp : fused.groups) {
    if (grp.workload) tunable = &grp;
  }
  ASSERT_NE(tunable, nullptr);
  EXPECT_EQ(tunable->anchor, conv);
  EXPECT_EQ(tunable->nodes, (std::vector<NodeId>{conv, bn, relu}));
  EXPECT_GT(tunable->epilogue_flops, 0);
}

TEST(Fusion, EveryNodeInExactlyOneGroup) {
  const Graph g = make_resnet18();
  const FusedGraph fused = fuse(g);
  std::vector<int> membership(g.size(), 0);
  for (const auto& grp : fused.groups) {
    for (NodeId id : grp.nodes) ++membership[static_cast<std::size_t>(id)];
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(membership[i], 1) << "node " << i;
  }
}

TEST(Fusion, MultiConsumerStopsFusion) {
  Graph g("t");
  NodeId in = g.add_input("data", {Shape{1, 4, 8, 8}, DType::kFloat32});
  NodeId conv = g.conv2d("conv", in, 4, 3, 1, 1);
  // conv feeds two consumers: the epilogue chain must not absorb either.
  g.relu("r1", conv);
  g.relu("r2", conv);
  const FusedGraph fused = fuse(g);
  for (const auto& grp : fused.groups) {
    if (grp.workload) {
      EXPECT_EQ(grp.nodes.size(), 1u);
    }
  }
}

TEST(Fusion, ResidualAddFusesIntoConv) {
  // conv2 -> bn -> add(identity) -> relu should fuse behind conv2 as in
  // ResNet basic blocks.
  Graph g("t");
  NodeId in = g.add_input("data", {Shape{1, 8, 8, 8}, DType::kFloat32});
  NodeId c1 = g.conv2d("c1", in, 8, 3, 1, 1);
  NodeId r1 = g.relu("r1", c1);
  NodeId c2 = g.conv2d("c2", r1, 8, 3, 1, 1);
  NodeId bn = g.batch_norm("bn", c2);
  NodeId add = g.add_op("add", bn, r1);
  g.relu("out", add);

  const FusedGraph fused = fuse(g);
  bool found = false;
  for (const auto& grp : fused.groups) {
    if (grp.anchor == c2) {
      found = true;
      EXPECT_GE(grp.nodes.size(), 3u);  // c2, bn, add (+relu if exclusive)
    }
  }
  EXPECT_TRUE(found);
  // r1 is consumed by both c2 and add: it may still fuse into c1's kernel
  // (the kernel just writes its output for both readers), but the chain
  // must stop there — nothing after a multi-consumer node joins the group.
  for (const auto& grp : fused.groups) {
    if (grp.anchor == c1) {
      EXPECT_EQ(grp.nodes.back(), r1);
      EXPECT_EQ(grp.nodes.size(), 2u);
    }
  }
}

TEST(Fusion, TaskExtractionDeduplicates) {
  Graph g("t");
  NodeId in = g.add_input("data", {Shape{1, 8, 8, 8}, DType::kFloat32});
  // Two identical convs (same workload) and one different.
  NodeId a = g.conv2d("a", in, 8, 3, 1, 1);
  NodeId b = g.conv2d("b", a, 8, 3, 1, 1);
  g.conv2d("c", b, 16, 3, 1, 1);

  const FusedGraph fused = fuse(g);
  const auto tasks = extract_tasks(fused);
  // a and b share an 8->8 workload; c is 8->16.
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].count() + tasks[1].count(), 3);
  const int max_count = std::max(tasks[0].count(), tasks[1].count());
  EXPECT_EQ(max_count, 2);
}

TEST(Fusion, MobileNetHas19ConvTasks) {
  // The paper's Fig. 5 tunes T1..T19 for MobileNet-v1: 1 stem conv, 9 unique
  // depthwise and 9 unique pointwise workloads. The final dense layer is
  // tuned separately in Table I's end-to-end deployments.
  const FusedGraph fused = fuse(make_mobilenet_v1());
  const auto tasks = extract_tasks(fused);
  int conv_tasks = 0, dense_tasks = 0;
  for (const auto& t : tasks) {
    if (t.workload.is_conv()) {
      ++conv_tasks;
    } else {
      ++dense_tasks;
    }
  }
  EXPECT_EQ(conv_tasks, 19);
  EXPECT_EQ(dense_tasks, 1);
}

TEST(Fusion, GroupCountsCoverAllTunableNodes) {
  for (const auto& name : model_zoo_names()) {
    const Graph g = make_model(name);
    const FusedGraph fused = fuse(g);
    const auto tasks = extract_tasks(fused);
    int covered = 0;
    for (const auto& t : tasks) covered += t.count();
    EXPECT_EQ(static_cast<std::size_t>(covered), fused.num_tunable()) << name;
    EXPECT_EQ(fused.num_tunable(), g.tunable_nodes().size()) << name;
  }
}

TEST(Fusion, ToStringListsGroups) {
  const FusedGraph fused = fuse(testing::tiny_cnn());
  const std::string s = fused.to_string();
  EXPECT_NE(s.find("tunable"), std::string::npos);
  EXPECT_NE(s.find("task="), std::string::npos);
}

}  // namespace
}  // namespace aal

// Property tests for hardware-native constraint pruning on ConfigSpace:
// the pruned set is a subset of the full space, sampling only returns
// feasible points, the statistics tally correctly (shared across copies),
// and pruning decisions are pure functions of the target spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "space/config_space.hpp"
#include "test_util.hpp"
#include "space/template_registry.hpp"

namespace aal {
namespace {

/// A small synthetic space (6 x 4 x 3 = 72 points) for exhaustive checks.
ConfigSpace tiny_space() {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile", 32, 2));        // 6 factorizations
  knobs.push_back(Knob::option("unroll", {0, 2, 4, 8}));
  knobs.push_back(Knob::option("vec", {1, 2, 4}));
  return ConfigSpace(std::move(knobs));
}

SpaceConstraint even_flat_only() {
  return {"test.even-flat", [](const ConfigSpace&, const Config& c) {
            return c.flat % 2 == 0;
          }};
}

TEST(SpaceConstraints, SetConstraintsValidatesNameAndPredicate) {
  ConfigSpace space = tiny_space();
  EXPECT_THROW(
      space.set_constraints({{"", [](const ConfigSpace&, const Config&) {
                                return true;
                              }}}),
      InvalidArgument);
  EXPECT_THROW(space.set_constraints({{"test.null-predicate", nullptr}}),
               InvalidArgument);
  space.set_constraints({even_flat_only()});
  EXPECT_EQ(space.num_constraints(), 1u);
}

TEST(SpaceConstraints, FeasibleCountsChecksAndPrunes) {
  ConfigSpace space = tiny_space();
  space.set_constraints({even_flat_only()});
  EXPECT_EQ(space.feasibility_checks(), 0);
  EXPECT_TRUE(space.feasible(space.at(0)));
  EXPECT_FALSE(space.feasible(space.at(1)));
  EXPECT_FALSE(space.feasible(space.at(3)));
  EXPECT_EQ(space.feasibility_checks(), 3);
  EXPECT_EQ(space.pruned_count(), 2);
  // Replacing the constraint set resets the tally.
  space.set_constraints({even_flat_only()});
  EXPECT_EQ(space.feasibility_checks(), 0);
  EXPECT_EQ(space.pruned_count(), 0);
}

TEST(SpaceConstraints, UnconstrainedSpaceCountsNothing) {
  ConfigSpace space = tiny_space();
  EXPECT_TRUE(space.feasible(space.at(1)));
  EXPECT_EQ(space.feasibility_checks(), 0);
  EXPECT_EQ(space.pruned_count(), 0);
}

TEST(SpaceConstraints, CopiesShareOneStatsTally) {
  // ConfigSpace is a value type passed around by copy (TuningTask::space()
  // returns a reference but sessions copy it); the pruning tally must
  // aggregate over every copy or the reported counts undercount.
  ConfigSpace space = tiny_space();
  space.set_constraints({even_flat_only()});
  const ConfigSpace copy = space;
  EXPECT_FALSE(copy.feasible(copy.at(1)));
  EXPECT_TRUE(copy.feasible(copy.at(2)));
  EXPECT_EQ(space.feasibility_checks(), 2);
  EXPECT_EQ(space.pruned_count(), 1);
}

TEST(SpaceConstraints, SamplingOnlyReturnsFeasiblePoints) {
  ConfigSpace space = tiny_space();
  space.set_constraints({even_flat_only()});
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(space.sample(rng).flat % 2, 0);
  }
}

TEST(SpaceConstraints, SampleDistinctIsSubsetOfFeasibleSet) {
  ConfigSpace space = tiny_space();
  space.set_constraints({even_flat_only()});
  std::set<std::int64_t> feasible;
  for (std::int64_t f = 0; f < space.size(); f += 2) feasible.insert(f);

  Rng rng(7);
  const auto sampled = space.sample_distinct(20, rng);
  std::set<std::int64_t> distinct;
  for (const Config& c : sampled) {
    EXPECT_TRUE(feasible.count(c.flat)) << c.flat;
    distinct.insert(c.flat);
  }
  EXPECT_EQ(distinct.size(), sampled.size()) << "duplicates returned";

  // n >= size enumerates exactly the feasible subset, in order.
  Rng rng2(7);
  const auto everything = space.sample_distinct(space.size() + 10, rng2);
  ASSERT_EQ(everything.size(), feasible.size());
  for (const Config& c : everything) EXPECT_TRUE(feasible.count(c.flat));
}

TEST(SpaceConstraints, NeighborhoodsFilterInfeasiblePoints) {
  ConfigSpace space = tiny_space();
  space.set_constraints({even_flat_only()});
  Rng rng(9);
  const Config center = space.at(0);
  for (const Config& c : space.neighborhood(center, 2.0, 32, rng)) {
    EXPECT_EQ(c.flat % 2, 0);
  }
  for (const Config& c : space.feature_neighborhood(center, 2.0, 32, rng)) {
    EXPECT_EQ(c.flat % 2, 0);
  }
}

TEST(SpaceConstraints, UnconstrainedRngStreamIsUnchanged) {
  // Byte-compat guarantee: a space with no constraints must consume the RNG
  // exactly as the pre-constraint code did — attaching an EMPTY constraint
  // set (what GPU targets do) must not perturb any sampling stream.
  ConfigSpace plain = tiny_space();
  ConfigSpace with_empty = tiny_space();
  with_empty.set_constraints({});
  Rng a(11), b(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plain.sample(a).flat, with_empty.sample(b).flat);
  }
  const auto da = plain.sample_distinct(30, a);
  const auto db = with_empty.sample_distinct(30, b);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].flat, db[i].flat);
  }
  EXPECT_EQ(a.next_index(1u << 30), b.next_index(1u << 30))
      << "RNG streams diverged";
}

TEST(SpaceConstraints, PruningIsPureInTargetSpec) {
  // Two tasks built from the same (workload, target) must agree on every
  // feasibility verdict — pruning depends on the target spec alone, never
  // on task identity, sampling history or check order.
  const Workload workload = testing::small_conv_workload();
  const TuningTask a(workload, make_target("cpu-simd"));
  const TuningTask b(workload, make_target("cpu-simd"));
  const ConfigSpace full =
      TemplateRegistry::instance().build(workload, TargetSpec{});
  Rng rng(13);
  const auto probes = full.sample_distinct(300, rng);
  for (auto it = probes.rbegin(); it != probes.rend(); ++it) {
    // b checks in reverse order: verdicts must not depend on order.
    b.space().feasible(*it);
  }
  int pruned = 0;
  for (const Config& c : probes) {
    const bool verdict = a.space().feasible(c);
    EXPECT_EQ(verdict, b.space().feasible(c)) << full.to_string(c);
    if (!verdict) ++pruned;
  }
  EXPECT_GT(pruned, 0) << "probe set never exercised pruning";

  // A different target spec draws a different feasible region.
  const TuningTask fpga(workload, make_target("fpga-systolic"));
  bool any_difference = false;
  for (const Config& c : probes) {
    if (a.space().feasible(c) != fpga.space().feasible(c)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(SpaceConstraints, GpuTargetsAttachNoConstraints) {
  const Workload workload = testing::small_conv_workload();
  for (const char* name : {"gpu-pascal", "gpu-volta", "gpu-embedded"}) {
    const TuningTask task(workload, make_target(name));
    EXPECT_EQ(task.space().num_constraints(), 0u) << name;
  }
  EXPECT_GT(
      TuningTask(workload, make_target("cpu-simd")).space().num_constraints(),
      0u);
}

}  // namespace
}  // namespace aal

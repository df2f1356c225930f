#include "core/bootstrap.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

/// Deterministic surrogate for selection-logic tests: predicts the first
/// feature's value.
class FirstFeatureSurrogate final : public Surrogate {
 public:
  void fit(const Dataset&) override { fitted_ = true; }
  double predict(std::span<const double> f) const override { return f[0]; }
  bool fitted() const override { return fitted_; }
  std::string name() const override { return "first-feature"; }

 private:
  bool fitted_ = false;
};

class FirstFeatureFactory final : public SurrogateFactory {
 public:
  std::unique_ptr<Surrogate> create(std::uint64_t) const override {
    return std::make_unique<FirstFeatureSurrogate>();
  }
  std::string name() const override { return "first-feature"; }
};

Dataset linear_dataset(int rows, Rng& rng) {
  Dataset d(2);
  for (int i = 0; i < rows; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    d.add_row(std::vector<double>{a, b}, 5.0 * a + b);
  }
  return d;
}

TEST(BootstrapEnsemble, BuildsGammaModels) {
  Rng rng(1);
  const Dataset d = linear_dataset(60, rng);
  const RidgeSurrogateFactory factory(1e-6);
  const BootstrapEnsemble ensemble(d, factory, 4, rng);
  EXPECT_EQ(ensemble.gamma(), 4);
}

TEST(BootstrapEnsemble, ScoreIsSumOfModels) {
  Rng rng(2);
  const Dataset d = linear_dataset(60, rng);
  const FirstFeatureFactory factory;
  const BootstrapEnsemble ensemble(d, factory, 3, rng);
  // All three deterministic models predict f[0]; the sum is 3*f[0].
  EXPECT_NEAR(ensemble.score(std::vector<double>{0.5, 0.0}), 1.5, 1e-12);
}

TEST(BootstrapEnsemble, RejectsBadArguments) {
  Rng rng(3);
  const RidgeSurrogateFactory factory;
  const Dataset empty(2);
  EXPECT_THROW(BootstrapEnsemble(empty, factory, 2, rng), InvalidArgument);
  const Dataset d = linear_dataset(10, rng);
  EXPECT_THROW(BootstrapEnsemble(d, factory, 0, rng), InvalidArgument);
}

TEST(BootstrapEnsemble, ResamplesDifferPerModel) {
  // With gamma GBDTs on noisy data the bootstrap members must disagree
  // somewhere (that disagreement is the whole point of bagging).
  Rng rng(4);
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double();
    d.add_row(std::vector<double>{x}, x + rng.next_gaussian(0.0, 0.5));
  }
  const GbdtSurrogateFactory factory;
  const BootstrapEnsemble a(d, factory, 1, rng);
  const BootstrapEnsemble b(d, factory, 1, rng);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{static_cast<double>(i) / 50.0};
    if (a.score(x) != b.score(x)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(BootstrapSelect, PicksArgmaxOverCandidates) {
  const TargetSpec spec = make_target("gpu-pascal");
  const TuningTask task(testing::small_conv_workload(), spec);
  Rng rng(5);

  // first feature = log2 of tile_f's first factor; the deterministic
  // surrogate scores candidates by it, so the argmax must match a manual
  // scan.
  Dataset d(static_cast<std::size_t>(task.space().feature_dim()));
  for (const auto& c : task.space().sample_distinct(20, rng)) {
    d.add_row(task.space().features(c), 1.0);
  }
  const FirstFeatureFactory factory;
  const BootstrapEnsemble ensemble(d, factory, 2, rng);

  const auto candidates = task.space().sample_distinct(50, rng);
  const std::size_t picked = bootstrap_select(ensemble, task.space(), candidates);

  double best = -1e300;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double s = task.space().features(candidates[i])[0];
    if (s > best) {
      best = s;
      expected = i;
    }
  }
  EXPECT_EQ(picked, expected);
}

TEST(BootstrapSelect, EmptyCandidatesRejected) {
  Rng rng(6);
  const Dataset d = linear_dataset(20, rng);
  const RidgeSurrogateFactory factory;
  const BootstrapEnsemble ensemble(d, factory, 2, rng);
  const TargetSpec spec = make_target("gpu-pascal");
  const TuningTask task(testing::small_conv_workload(), spec);
  EXPECT_THROW(bootstrap_select(ensemble, task.space(), {}), InvalidArgument);
}

TEST(BootstrapParams, PaperDefaultGamma) {
  EXPECT_EQ(BootstrapParams{}.gamma, 2);
}

TEST(BootstrapEnsemble, ParallelFitsMatchSerialBitwise) {
  // The determinism contract of the parallel fit path: resample rows and
  // model seeds are drawn serially before the fan-out, so the ensemble and
  // the caller's Rng stream position must be bitwise-identical to a serial
  // construction at any pool size.
  Rng rng_serial(42), rng_parallel(42), probe_rng(7);
  Dataset d(2);
  for (int i = 0; i < 80; ++i) {
    const double a = probe_rng.next_double();
    const double b = probe_rng.next_double();
    d.add_row(std::vector<double>{a, b},
              3.0 * a - b + probe_rng.next_gaussian(0.0, 0.2));
  }
  const GbdtSurrogateFactory factory;
  const BootstrapEnsemble serial(d, factory, 8, rng_serial,
                                 /*parallel_fit=*/false);
  const BootstrapEnsemble parallel(d, factory, 8, rng_parallel,
                                   /*parallel_fit=*/true);
  for (int i = 0; i < 64; ++i) {
    const std::vector<double> x{probe_rng.next_double(),
                                probe_rng.next_double()};
    const double a = serial.score(x);
    const double b = parallel.score(x);
    EXPECT_EQ(a, b) << "prediction diverged at probe " << i;  // exact
  }
  // Both constructions must consume the same number of Rng draws.
  EXPECT_EQ(rng_serial(), rng_parallel());
}

TEST(BootstrapEnsemble, ScoreConfigsCachedMatchesFreshBitwise) {
  // The incremental cache must be invisible in the values: a re-scored
  // candidate returns the exact double the fresh batch produced, and both
  // equal per-candidate score() on the feature vector.
  const TuningTask task(testing::small_conv_workload(),
                        make_target("gpu-pascal"));
  const ConfigSpace& space = task.space();
  Rng rng(11);
  Dataset d(static_cast<std::size_t>(space.feature_dim()));
  for (const auto& c : space.sample_distinct(40, rng)) {
    d.add_row(space.features(c), space.features(c)[0] + 1.0);
  }
  const GbdtSurrogateFactory factory;
  const BootstrapEnsemble ensemble(d, factory, 3, rng);

  const std::vector<Config> candidates = space.sample_distinct(30, rng);
  const std::span<const Config> all{candidates.data(), candidates.size()};
  const std::vector<double> fresh = ensemble.score_configs(space, all);
  const std::vector<double> cached = ensemble.score_configs(space, all);
  ASSERT_EQ(fresh.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(cached[i], fresh[i]) << i;  // exact, not approximate
    EXPECT_EQ(fresh[i], ensemble.score(space.features(candidates[i]))) << i;
  }
}

TEST(BootstrapEnsemble, ScoreConfigsCountsRowsAndHits) {
  // surrogate.batch_rows counts freshly scored configs, surrogate.batch_hits
  // counts cache hits — under a constrained space (CPU target prunes), so
  // candidate generation goes through the feasibility filter first.
  const TuningTask task(testing::small_conv_workload(),
                        make_target("cpu-simd"));
  const ConfigSpace& space = task.space();
  ASSERT_GT(space.num_constraints(), 0u);
  Rng rng(12);
  Dataset d(static_cast<std::size_t>(space.feature_dim()));
  for (const auto& c : space.sample_distinct(20, rng)) {
    d.add_row(space.features(c), 1.0);
  }
  const FirstFeatureFactory factory;
  BootstrapEnsemble ensemble(d, factory, 2, rng);
  MetricsRegistry metrics;
  Obs obs;
  obs.metrics = &metrics;
  ensemble.set_obs(obs);

  const std::vector<Config> first = space.sample_distinct(25, rng);
  ensemble.score_configs(space, {first.data(), first.size()});
  EXPECT_EQ(metrics.counter_value("surrogate.batch_rows"), 25);
  EXPECT_EQ(metrics.counter_value("surrogate.batch_hits"), 0);

  // Overlapping set: 10 repeats + 15 new configs (sample_distinct draws
  // fresh points; dedup against `first` keeps the arithmetic exact).
  std::vector<Config> mixed(first.begin(), first.begin() + 10);
  std::unordered_set<std::int64_t> seen;
  for (const Config& c : first) seen.insert(c.flat);
  while (mixed.size() < 25) {
    Config c = space.sample(rng);
    if (seen.insert(c.flat).second) mixed.push_back(std::move(c));
  }
  ensemble.score_configs(space, {mixed.data(), mixed.size()});
  EXPECT_EQ(metrics.counter_value("surrogate.batch_rows"), 25 + 15);
  EXPECT_EQ(metrics.counter_value("surrogate.batch_hits"), 10);
}

TEST(BootstrapSelect, RepeatedSelectionHitsCacheAndAgrees) {
  const TuningTask task(testing::small_conv_workload(),
                        make_target("gpu-pascal"));
  const ConfigSpace& space = task.space();
  Rng rng(13);
  Dataset d(static_cast<std::size_t>(space.feature_dim()));
  for (const auto& c : space.sample_distinct(20, rng)) {
    d.add_row(space.features(c), 1.0);
  }
  const FirstFeatureFactory factory;
  BootstrapEnsemble ensemble(d, factory, 2, rng);
  MetricsRegistry metrics;
  Obs obs;
  obs.metrics = &metrics;
  ensemble.set_obs(obs);

  const std::vector<Config> candidates = space.sample_distinct(40, rng);
  const std::size_t a = bootstrap_select(ensemble, space, candidates);
  const std::size_t b = bootstrap_select(ensemble, space, candidates);
  EXPECT_EQ(a, b);
  EXPECT_EQ(metrics.counter_value("surrogate.batch_rows"), 40);
  EXPECT_EQ(metrics.counter_value("surrogate.batch_hits"), 40);
}

TEST(BootstrapEnsemble, ScoreAllMatchesPerCandidateScore) {
  Rng rng(9), probe_rng(10);
  const Dataset d = linear_dataset(50, rng);
  const GbdtSurrogateFactory factory;
  const BootstrapEnsemble ensemble(d, factory, 3, rng);
  dense::Matrix batch(40, 2);
  for (std::size_t i = 0; i < batch.rows; ++i) {
    batch.at(i, 0) = probe_rng.next_double();
    batch.at(i, 1) = probe_rng.next_double();
  }
  const std::vector<double> scores = ensemble.score_all(batch);
  ASSERT_EQ(scores.size(), batch.rows);
  for (std::size_t i = 0; i < batch.rows; ++i) {
    const std::span<const double> row{batch.row(i), batch.cols};
    EXPECT_EQ(scores[i], ensemble.score(row)) << i;  // exact, not approximate
  }
}

}  // namespace
}  // namespace aal

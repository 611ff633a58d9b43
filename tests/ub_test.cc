#include <gtest/gtest.h>

#include <array>

#include "core/kairos.h"
#include "policy/registry.h"
#include "serving/throughput_eval.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

namespace kairos::ub {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;

// --- The paper's Fig. 7 worked examples, verbatim. ---

TEST(UpperBoundGeneralTest, PaperScenario1BaseBottleneck) {
  // Qb=100, Qb_s+=90, Qa=150, f=0.6 -> C = 0.4/0.6*150 = 100 >= 90, so the
  // base is the bottleneck: QPSmax = 90 / 0.4 = 225.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.6), 225.0, 1e-9);
}

TEST(UpperBoundGeneralTest, PaperScenario2AuxBottleneck) {
  // Qb=100, Qb_s+=90, Qa=140, f=0.7 -> C = 0.3/0.7*140 = 60 < 90, so the
  // auxiliary is the bottleneck: QPSmax = 140/0.7 + (90-60)/90*100 = 233.3.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 140.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.7), 233.3333, 1e-3);
}

TEST(UpperBoundGeneralTest, MultiNodeScaling) {
  // Eq. 12: u base nodes scale the base-bottleneck bound linearly.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  const double one = UpperBoundGeneral(1, 100.0, 90.0, aux, 0.6);
  // With u=2 the base-side capacity doubles; C = 100 vs 180 means the
  // auxiliary becomes the bottleneck (Eq. 13 branch).
  const double two = UpperBoundGeneral(2, 100.0, 90.0, aux, 0.6);
  EXPECT_GT(two, one);
  // Doubling the aux nodes under base bottleneck leaves Eq. 12 unchanged.
  const std::array<std::pair<int, double>, 1> aux2 = {{{2, 150.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux2, 0.6), 225.0, 1e-9);
}

TEST(UpperBoundGeneralTest, MultipleAuxTypesAggregate) {
  // Two aux types (Eq. 14-15): capacities sum inside C.
  const std::array<std::pair<int, double>, 2> aux = {{{1, 80.0}, {2, 30.0}}};
  // sum v*Qa = 140, same as scenario 2.
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.7), 233.3333, 1e-3);
}

TEST(UpperBoundGeneralTest, EdgeCases) {
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  // No base nodes: nothing can serve the largest queries.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(0, 100.0, 90.0, aux, 0.6), 0.0);
  // No aux capacity: homogeneous u * Qb.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(3, 100.0, 90.0, {}, 0.6), 300.0);
  // f' = 0: no query fits any auxiliary; again u * Qb.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(2, 100.0, 90.0, aux, 0.0), 200.0);
  // f' = 1: both tiers at full rate.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(1, 100.0, 90.0, aux, 1.0), 250.0);
}

// --- Estimator over catalog/model/monitor. ---

Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

LatencyModel TinyModel() { return LatencyModel({{10.0, 0.1}, {20.0, 0.4}}); }

TEST(UpperBoundEstimatorTest, BreakdownFieldsAreConsistent) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, /*qos_ms=*/150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);

  const UpperBoundBreakdown b = est.Estimate(Config({2, 3}), monitor);
  // s' for the aux: (0.98*150 - 20) / 0.4 = 317.
  EXPECT_EQ(b.s_prime, 317);
  EXPECT_GT(b.f_prime, 0.5);
  EXPECT_LT(b.f_prime, 1.0);
  EXPECT_GT(b.q_b, 0.0);
  EXPECT_GT(b.q_b_splus, 0.0);
  EXPECT_LT(b.q_b_splus, b.q_b);  // large queries are slower
  EXPECT_GT(b.aux_rate_sum, 0.0);
  EXPECT_GT(b.qps_max, 0.0);
}

TEST(UpperBoundEstimatorTest, HomogeneousEqualsBaseRateTimesNodes) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, 150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);
  const auto b1 = est.Estimate(Config({1, 0}), monitor);
  const auto b3 = est.Estimate(Config({3, 0}), monitor);
  EXPECT_NEAR(b3.qps_max, 3.0 * b1.qps_max, 1e-9);
  EXPECT_NEAR(b1.qps_max, b1.q_b, 1e-9);
}

TEST(UpperBoundEstimatorTest, MonotoneInAddedInstances) {
  // The justification for Kairos+ sub-configuration pruning: adding
  // hardware can only raise the bound.
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, 150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);
  for (int u = 1; u <= 3; ++u) {
    for (int v = 0; v <= 6; ++v) {
      const double here = est.QpsMax(Config({u, v}), monitor);
      EXPECT_GE(est.QpsMax(Config({u + 1, v}), monitor), here - 1e-9);
      EXPECT_GE(est.QpsMax(Config({u, v + 1}), monitor), here - 1e-9);
    }
  }
}

TEST(UpperBoundEstimatorTest, InvalidInputsThrow) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EXPECT_THROW(UpperBoundEstimator(catalog, truth, 0.0),
               std::invalid_argument);
  const UpperBoundEstimator est(catalog, truth, 100.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 100, 3);
  EXPECT_THROW(est.Estimate(Config({1}), monitor), std::invalid_argument);
}

// Key paper invariant (Definition 2): the estimated bound dominates the
// throughput any distribution scheme actually achieves, across configs.
class UbDominatesAchieved : public ::testing::TestWithParam<
                                std::tuple<std::string, int, int>> {};

TEST_P(UbDominatesAchieved, BoundHolds) {
  const auto [scheme, u, v] = GetParam();
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const double qos_ms = 150.0;
  const auto mix = workload::LogNormalBatches::Production();
  const auto monitor = core::MonitorFromMix(mix, 8000, 11);
  const UpperBoundEstimator est(catalog, truth, qos_ms);
  const Config config({u, v});
  const double bound = est.QpsMax(config, monitor);

  serving::EvalOptions opt;
  opt.queries = 500;
  opt.rate_guess = std::max(1.0, 0.5 * bound);
  const auto achieved = serving::EvaluateConfig(
      catalog, config, truth, qos_ms,
      *PolicyRegistry::Global().MakeFactory(scheme), mix, opt);
  EXPECT_LE(achieved.qps, bound * 1.05) << config.ToString() << " " << scheme;
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndConfigs, UbDominatesAchieved,
    ::testing::Combine(::testing::Values("KAIROS", "RIBBON", "CLKWRK"),
                       ::testing::Values(1, 2), ::testing::Values(0, 2, 4)));

// --- Similarity-based selection. ---

TEST(SelectorTest, RankIsDescendingAndStable) {
  const std::vector<Config> configs = {Config({1, 0}), Config({2, 0}),
                                       Config({3, 0})};
  const std::vector<double> bounds = {5.0, 9.0, 9.0};
  const auto ranked = RankByUpperBound(configs, bounds);
  EXPECT_DOUBLE_EQ(ranked[0].upper_bound, 9.0);
  EXPECT_EQ(ranked[0].config, Config({2, 0}));  // stable: first 9.0 wins
  EXPECT_EQ(ranked[2].config, Config({1, 0}));
}

TEST(SelectorTest, Top3AgreementPicksTopRanked) {
  Catalog catalog = TinyCatalog();
  std::vector<RankedConfig> ranked = {
      {Config({2, 5}), 100.0}, {Config({2, 4}), 99.0}, {Config({2, 3}), 98.0},
      {Config({1, 9}), 97.0},
  };
  const SelectionResult r = SelectConfiguration(ranked, catalog);
  EXPECT_FALSE(r.used_distance_rule);
  EXPECT_EQ(r.chosen, Config({2, 5}));
  EXPECT_EQ(r.chosen_rank, 0u);
}

TEST(SelectorTest, DisagreementUsesMinSseCentroid) {
  Catalog catalog = TinyCatalog();
  // Base counts disagree in the top 3; among the cluster below, (2,4) is
  // the centroid-most config.
  std::vector<RankedConfig> ranked = {
      {Config({1, 9}), 100.0}, {Config({3, 3}), 99.5}, {Config({2, 4}), 99.0},
      {Config({2, 5}), 98.5},  {Config({2, 3}), 98.0}, {Config({3, 4}), 97.5},
  };
  const SelectionResult r = SelectConfiguration(ranked, catalog);
  EXPECT_TRUE(r.used_distance_rule);
  // Verify it actually minimizes the SSE over the candidate set.
  double best_sse = 1e300;
  Config best;
  for (const auto& a : ranked) {
    double sse = 0.0;
    for (const auto& b : ranked) sse += a.config.SquaredDistance(b.config);
    if (sse < best_sse) {
      best_sse = sse;
      best = a.config;
    }
  }
  EXPECT_EQ(r.chosen, best);
}

TEST(SelectorTest, ShortListsWork) {
  Catalog catalog = TinyCatalog();
  const std::vector<RankedConfig> one = {{Config({1, 1}), 10.0}};
  EXPECT_EQ(SelectConfiguration(one, catalog).chosen, Config({1, 1}));
  EXPECT_THROW(SelectConfiguration({}, catalog), std::invalid_argument);
}

TEST(SelectorTest, SizeMismatchThrows) {
  EXPECT_THROW(RankByUpperBound({Config({1})}, {1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace kairos::ub

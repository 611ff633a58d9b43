#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "cloud/config_space.h"
#include "common/rng.h"
#include "core/kairos.h"
#include "latency/model_zoo.h"
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

// --- The estimator is the paper's formula, bit for bit. ---

// Eq. 12-15 written out per config, straight from the header's comment,
// with nothing memoized: every monitor statistic is read afresh through
// the public QueryMonitor calls. The estimator memoizes the s'-dependent
// statistics across configs; the results must match with ==.
double OracleQpsMax(const Catalog& catalog, const LatencyModel& truth,
                    double qos_ms, const Config& config,
                    const workload::QueryMonitor& monitor) {
  const cloud::TypeId base = catalog.BaseType();
  const int u = config.Count(base);
  int s_prime = 0;
  for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
    if (config.Count(t) <= 0) continue;
    s_prime = std::max(s_prime, truth.MaxQosBatch(t, qos_ms));
  }
  const double f_prime = monitor.FractionAtOrBelow(s_prime);
  const latency::AffineLatency& base_curve = truth.Curve(base);
  const double mean_all = std::max(1.0, monitor.MeanBatch());
  const double q_b =
      1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_all);
  const double mean_large = monitor.MeanBatchAbove(s_prime);
  const double q_b_splus =
      mean_large > 0.0
          ? 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_large)
          : q_b;
  const double mean_small = monitor.MeanBatchAtOrBelow(s_prime);
  std::vector<std::pair<int, double>> aux;
  for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
    const int v = config.Count(t);
    if (v <= 0) continue;
    if (truth.MaxQosBatch(t, qos_ms) <= 0 || mean_small <= 0.0) {
      aux.emplace_back(v, 0.0);
      continue;
    }
    const latency::AffineLatency& curve = truth.Curve(t);
    aux.emplace_back(v, 1000.0 / (curve.base_ms + curve.per_item_ms * mean_small));
  }
  return UpperBoundGeneral(u, q_b, q_b_splus, aux, f_prime);
}

workload::QueryMonitor MonitorOfOneBatch(int batch) {
  workload::QueryMonitor monitor(1000);
  for (int i = 0; i < 1000; ++i) monitor.Observe(batch);
  return monitor;
}

// The largest QoS-feasible batch over the catalog's auxiliary types.
int MaxAuxQosBatch(const Catalog& catalog, const LatencyModel& truth,
                   double qos_ms) {
  int s = 0;
  for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
    s = std::max(s, truth.MaxQosBatch(t, qos_ms));
  }
  return s;
}

TEST(UpperBoundEstimatorTest, MatchesPerConfigOracleBitForBit) {
  const auto production =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 5);
  const auto all_small = MonitorOfOneBatch(1);
  const auto all_large = MonitorOfOneBatch(latency::kMaxBatchSize);
  for (const Catalog& catalog :
       {Catalog::PaperPool(), Catalog::MotivationPool()}) {
    for (const char* name : {"RM2", "DIEN"}) {
      const latency::ModelSpec& spec = latency::FindModel(name);
      const LatencyModel truth = spec.Instantiate(catalog);

      // A QoS tight enough that some auxiliary type cannot serve even a
      // single request (MaxQosBatch == 0) while another still can: halfway
      // between the two highest per-type thresholds for batch 1.
      std::vector<double> thresholds;
      for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
        thresholds.push_back(truth.Curve(t).AtBatch(1) / latency::kQosSafety);
      }
      std::sort(thresholds.rbegin(), thresholds.rend());
      ASSERT_GE(thresholds.size(), 2u);
      ASSERT_GT(thresholds[0], thresholds[1]) << name;
      const double tight_qos = 0.5 * (thresholds[0] + thresholds[1]);
      bool some_aux_is_zero = false;
      for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
        some_aux_is_zero |= truth.MaxQosBatch(t, tight_qos) == 0;
      }
      ASSERT_TRUE(some_aux_is_zero) << name;
      ASSERT_GT(MaxAuxQosBatch(catalog, truth, tight_qos), 0) << name;

      struct Case {
        const char* label;
        double qos_ms;
        const workload::QueryMonitor& monitor;
      };
      const Case cases[] = {{"production", spec.qos_ms, production},
                            {"all-small", spec.qos_ms, all_small},
                            {"all-large", spec.qos_ms, all_large},
                            {"tight-qos", tight_qos, production}};
      // The mixes cover both degenerate f' values.
      ASSERT_EQ(all_small.FractionAtOrBelow(
                    MaxAuxQosBatch(catalog, truth, spec.qos_ms)),
                1.0);
      ASSERT_EQ(all_large.FractionAtOrBelow(
                    MaxAuxQosBatch(catalog, truth, spec.qos_ms)),
                0.0);

      for (const Case& c : cases) {
        const UpperBoundEstimator est(catalog, truth, c.qos_ms);
        for (const double budget : {2.5, 5.0, 10.0}) {
          const auto space = cloud::EnumerateConfigs(
              catalog, {.budget_per_hour = budget, .min_base_instances = 1});
          ASSERT_FALSE(space.empty());
          const std::vector<double> all = est.EstimateAll(space, c.monitor);
          ASSERT_EQ(all.size(), space.size());
          for (std::size_t k = 0; k < space.size(); ++k) {
            const double oracle =
                OracleQpsMax(catalog, truth, c.qos_ms, space[k], c.monitor);
            ASSERT_EQ(all[k], oracle)
                << name << " " << c.label << " $" << budget << " "
                << space[k].ToString();
            ASSERT_EQ(est.Estimate(space[k], c.monitor).qps_max, oracle)
                << name << " " << c.label << " $" << budget << " "
                << space[k].ToString();
          }
        }
      }
    }
  }
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

// --- Rank order without materializing the space. ---

// Seeded configs with tie-heavy bounds: a handful of distinct values, both
// signed zeros among them, in random enumeration order.
struct TiedSpace {
  std::vector<Config> configs;
  std::vector<double> bounds;
};

TiedSpace MakeTiedSpace(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t types = static_cast<std::size_t>(rng.UniformInt(1, 4));
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 60));
  const int distinct = static_cast<int>(rng.UniformInt(1, 6));
  TiedSpace space;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<int> counts(types);
    for (int& c : counts) c = static_cast<int>(rng.UniformInt(0, 5));
    space.configs.emplace_back(std::move(counts));
    const int level = static_cast<int>(rng.UniformInt(0, distinct));
    space.bounds.push_back(level == 0   ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                           : level == 1 ? -1.5
                                        : 10.0 * level);
  }
  return space;
}

TEST(RankedTableTest, RanksLikeTheStableSortUnderHeavyTies) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const TiedSpace space = MakeTiedSpace(seed);
    const auto want = RankByUpperBound(space.configs, space.bounds);
    RankedTable table(space.configs.empty() ? 1
                                            : space.configs[0].NumTypes());
    for (std::size_t i = 0; i < space.configs.size(); ++i) {
      table.Append(space.configs[i].counts(), space.bounds[i]);
    }
    ASSERT_EQ(table.size(), want.size()) << "seed " << seed;
    // Ranks resolve lazily, so read them out of order too.
    if (!want.empty() && seed % 2 == 1) {
      const std::size_t mid = want.size() / 2;
      ASSERT_EQ(table.config(mid), want[mid].config) << "seed " << seed;
    }
    const RankedList list(want);
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(table.config(r), want[r].config) << "seed " << seed;
      ASSERT_EQ(table.bound(r), want[r].upper_bound) << "seed " << seed;
      ASSERT_EQ(list.config(r), want[r].config);
      ASSERT_EQ(list.bound(r), want[r].upper_bound);
    }
  }
}

TEST(RankedTableTest, AppendAfterARankReadReranks) {
  RankedTable table(1);
  table.Append(std::vector<int>{1}, 5.0);
  table.Append(std::vector<int>{2}, 7.0);
  EXPECT_EQ(table.config(0), Config({2}));
  table.Append(std::vector<int>{3}, 9.0);
  EXPECT_EQ(table.config(0), Config({3}));
  EXPECT_EQ(table.config(2), Config({1}));
}

TEST(TopRankedTest, KeepsTheFirstKOfTheStableSort) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const TiedSpace space = MakeTiedSpace(seed);
    const auto all = RankByUpperBound(space.configs, space.bounds);
    const std::size_t types =
        space.configs.empty() ? 1 : space.configs[0].NumTypes();
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{10}, all.size() + 1}) {
      TopRanked top(k, types);
      for (std::size_t i = 0; i < space.configs.size(); ++i) {
        top.Offer(space.configs[i].counts(), space.bounds[i]);
      }
      EXPECT_EQ(top.offered(), all.size()) << "seed " << seed;
      const std::vector<RankedConfig> want(
          all.begin(), all.begin() + std::min(k, all.size()));
      ASSERT_EQ(top.Ranked(), want) << "seed " << seed << " k " << k;
    }
  }
}

}  // namespace
}  // namespace kairos::ub

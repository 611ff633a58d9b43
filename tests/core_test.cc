#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/config_space.h"
#include "common/rng.h"
#include "core/kairos.h"
#include "core/planner.h"
#include "core/runtime.h"
#include "policy/registry.h"
#include "search/kairos_plus.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

namespace kairos::core {
namespace {

using cloud::Catalog;
using cloud::Config;

TEST(PlannerTest, ConfigSpaceMatchesEnumeration) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  Planner planner(PlannerContext{&catalog, &truth, spec.qos_ms, 2.5});
  const auto space = planner.ConfigSpace();
  const auto direct = cloud::EnumerateConfigs(
      catalog, {.budget_per_hour = 2.5, .min_base_instances = 1});
  EXPECT_EQ(space.size(), direct.size());
}

TEST(PlannerTest, PlanIsWithinBudgetAndRankedDescending) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  Planner planner(PlannerContext{&catalog, &truth, spec.qos_ms, 2.5});
  const auto monitor =
      MonitorFromMix(workload::LogNormalBatches::Production(), 10000, 1);
  const Plan plan = *planner.PlanConfiguration(monitor);
  EXPECT_LE(plan.config.CostPerHour(catalog), 2.5 + 1e-9);
  for (std::size_t i = 1; i < plan.ranked.size(); ++i) {
    EXPECT_GE(plan.ranked[i - 1].upper_bound, plan.ranked[i].upper_bound);
  }
  // The chosen config sits within the top-10 upper bounds (Sec. 5.2).
  EXPECT_LT(plan.selection.chosen_rank, 10u);
}

TEST(PlannerTest, InvalidContextThrows) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  EXPECT_THROW(Planner(PlannerContext{nullptr, &truth, 350.0, 2.5}),
               std::invalid_argument);
  EXPECT_THROW(Planner(PlannerContext{&catalog, &truth, 0.0, 2.5}),
               std::invalid_argument);
  EXPECT_THROW(Planner(PlannerContext{&catalog, &truth, 350.0, -1.0}),
               std::invalid_argument);
}

// --- The planner's one walk against the materialized ranking. ---

// The whole budgeted space enumerated, estimated and stable-sorted: what
// the planner ranked before it walked the space once.
std::vector<ub::RankedConfig> FullRanking(const PlannerContext& ctx,
                                          const workload::QueryMonitor& monitor) {
  const auto space =
      cloud::EnumerateConfigs(*ctx.catalog, Planner(ctx).SpaceOptions());
  const ub::UpperBoundEstimator est(*ctx.catalog, *ctx.truth, ctx.qos_ms);
  return ub::RankByUpperBound(space, est.EstimateAll(space, monitor));
}

// A seeded planning problem: 1-3 auxiliary types around a base type at a
// random position, where an auxiliary often repeats the previous one's
// price and curve (so swapping their counts ties the bound), a random
// QoS (some auxiliaries then serve nothing and add only ties), a random
// mix, and a budget that sometimes buys no base instance at all.
struct SeededProblem {
  Catalog catalog;
  latency::LatencyModel truth{std::vector<latency::AffineLatency>{}};
  double qos_ms = 0.0;
  double budget = 0.0;
  workload::QueryMonitor monitor;

  explicit SeededProblem(std::uint64_t seed) {
    Rng rng(seed);
    const int aux = static_cast<int>(rng.UniformInt(1, 3));
    const int base_at = static_cast<int>(rng.UniformInt(0, aux));
    std::vector<latency::AffineLatency> curves;
    for (int t = 0, a = 0; t <= aux; ++t) {
      if (t == base_at) {
        catalog.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated,
                     rng.Uniform(0.3, 0.8), true});
        curves.push_back({rng.Uniform(0.5, 2.0), rng.Uniform(0.002, 0.01)});
        continue;
      }
      const bool repeat = a > 0 && rng.Bernoulli(0.5);
      const cloud::TypeId prev = catalog.size() - 1;
      const double price =
          repeat ? catalog[prev].price_per_hour : rng.Uniform(0.1, 0.5);
      curves.push_back(repeat ? curves.back()
                              : latency::AffineLatency{rng.Uniform(0.5, 4.0),
                                                       rng.Uniform(0.005, 0.05)});
      const std::string name = "A" + std::to_string(a++);
      catalog.Add({name, name, cloud::InstanceClass::kGeneralPurposeCpu, price,
                   false});
    }
    truth = latency::LatencyModel(std::move(curves));
    qos_ms = rng.Uniform(3.0, 30.0);
    budget = rng.Uniform(0.3, 3.0);
    const std::uint64_t mix_seed = seed + 101;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        monitor = MonitorFromMix(
            workload::LogNormalBatches(rng.Uniform(2.0, 5.0),
                                       rng.Uniform(0.3, 1.2)),
            3000, mix_seed);
        break;
      case 1:
        monitor = MonitorFromMix(
            workload::GaussianBatches(rng.Uniform(20.0, 400.0),
                                      rng.Uniform(5.0, 150.0)),
            3000, mix_seed);
        break;
      default:
        monitor = MonitorFromMix(workload::LogNormalBatches::Production(),
                                 3000, mix_seed);
    }
  }

  PlannerContext Context() const {
    return PlannerContext{&catalog, &truth, qos_ms, budget};
  }
};

TEST(PlannerWalkTest, TopRegionMatchesFullRanking) {
  std::size_t tied_regions = 0, infeasible = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const SeededProblem problem(seed);
    const PlannerContext ctx = problem.Context();
    const auto want = FullRanking(ctx, problem.monitor);
    const StatusOr<Plan> plan = Planner(ctx).PlanConfiguration(problem.monitor);
    if (want.empty()) {
      ASSERT_FALSE(plan.ok()) << "seed " << seed;
      EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible);
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(plan.ok()) << "seed " << seed << ": "
                           << plan.status().ToString();
    EXPECT_EQ(plan->space_size, want.size()) << "seed " << seed;
    const std::size_t region = std::min(want.size(), ub::kSimilarityRegion);
    const std::vector<ub::RankedConfig> top(want.begin(),
                                            want.begin() + region);
    ASSERT_EQ(plan->ranked, top) << "seed " << seed;
    EXPECT_EQ(plan->selection, ub::SelectConfiguration(want, problem.catalog))
        << "seed " << seed;
    EXPECT_EQ(plan->config, plan->selection.chosen) << "seed " << seed;
    // Count problems whose region (or its edge) holds tied bounds, where
    // only the enumeration-order tie-break decides the ranking.
    for (std::size_t r = 1; r < std::min(want.size(), region + 1); ++r) {
      if (want[r].upper_bound == want[r - 1].upper_bound) {
        ++tied_regions;
        break;
      }
    }
  }
  EXPECT_GT(tied_regions, 50u);
  EXPECT_GT(infeasible, 0u);
}

// A deterministic stand-in for a real throughput measurement: the bound
// scaled by one of eight factors in [0.55, 0.97] picked by the config's
// fingerprint, so measurements tie across configs too.
search::EvalFn ScaledBoundEval(const PlannerContext& ctx,
                               const workload::QueryMonitor& monitor) {
  return [est = ub::UpperBoundEstimator(*ctx.catalog, *ctx.truth, ctx.qos_ms),
          &monitor](const Config& c) {
    const double level = static_cast<double>(c.Fingerprint() % 8);
    return est.QpsMax(c, monitor) * (0.55 + 0.06 * level);
  };
}

void ExpectSameSearch(const search::SearchResult& got,
                      const search::SearchResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.evals, want.evals) << label;
  ASSERT_EQ(got.best_config, want.best_config) << label;
  ASSERT_EQ(got.best_qps, want.best_qps) << label;
  ASSERT_EQ(got.history.size(), want.history.size()) << label;
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    ASSERT_EQ(got.history[i].config, want.history[i].config)
        << label << " eval " << i;
    ASSERT_EQ(got.history[i].qps, want.history[i].qps)
        << label << " eval " << i;
  }
}

std::vector<search::SearchOptions> WalkOptions() {
  search::SearchOptions capped;
  capped.max_evals = 3;
  search::SearchOptions unpruned;
  unpruned.subconfig_pruning = false;
  return {search::SearchOptions{}, capped, unpruned};
}

TEST(PlannerWalkTest, KairosPlusTableMatchesMaterializedRankingOnZoo) {
  const Catalog catalog = Catalog::PaperPool();
  const auto monitor =
      MonitorFromMix(workload::LogNormalBatches::Production(), 10000, 7);
  std::size_t total_evals = 0;
  for (const latency::ModelSpec& spec : latency::ModelZoo()) {
    const latency::LatencyModel truth = spec.Instantiate(catalog);
    for (const double budget : {0.6, 1.5, 2.5, 5.0, 9.9}) {
      const PlannerContext ctx{&catalog, &truth, spec.qos_ms, budget};
      const auto ranked = FullRanking(ctx, monitor);
      const search::EvalFn eval = ScaledBoundEval(ctx, monitor);
      for (const search::SearchOptions& options : WalkOptions()) {
        const auto got =
            Planner(ctx).PlanWithEvaluations(monitor, eval, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const search::SearchResult want =
            search::KairosPlusSearch(ub::RankedList(ranked), eval, options);
        ExpectSameSearch(*got, want,
                         spec.name + " $" + std::to_string(budget));
        total_evals += got->evals;
      }
    }
  }
  EXPECT_GT(total_evals, 100u);
}

TEST(PlannerWalkTest, KairosPlusTableMatchesMaterializedRankingOnSeeds) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const SeededProblem problem(seed);
    const PlannerContext ctx = problem.Context();
    const auto ranked = FullRanking(ctx, problem.monitor);
    const search::EvalFn eval = ScaledBoundEval(ctx, problem.monitor);
    for (const search::SearchOptions& options : WalkOptions()) {
      const auto got =
          Planner(ctx).PlanWithEvaluations(problem.monitor, eval, options);
      if (ranked.empty()) {
        ASSERT_FALSE(got.ok()) << "seed " << seed;
        EXPECT_EQ(got.status().code(), StatusCode::kInfeasible);
        continue;
      }
      ASSERT_TRUE(got.ok()) << "seed " << seed;
      ExpectSameSearch(
          *got, search::KairosPlusSearch(ub::RankedList(ranked), eval, options),
          "seed " + std::to_string(seed));
    }
  }
}

TEST(KairosFacadeTest, InfeasibleBudgetThrows) {
  const Catalog catalog = Catalog::PaperPool();
  Kairos kairos(catalog, "RM2", KairosOptions{.budget_per_hour = 0.1});
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  EXPECT_THROW(kairos.PlanConfiguration(), std::invalid_argument);
  EXPECT_THROW(kairos.PlanWithEvaluations([](const Config&) { return 1.0; }),
               std::invalid_argument);
}

TEST(KairosFacadeTest, ObserveMixWarmsMonitor) {
  const Catalog catalog = Catalog::PaperPool();
  Kairos kairos(catalog, "RM2");
  EXPECT_EQ(kairos.monitor().Count(), 0u);
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  EXPECT_EQ(kairos.monitor().Count(), kairos.options().monitor_warmup);
  kairos.ResetMonitor();
  EXPECT_EQ(kairos.monitor().Count(), 0u);
}

TEST(KairosFacadeTest, QosScaleMultipliesTable3Target) {
  const Catalog catalog = Catalog::PaperPool();
  KairosOptions opt;
  opt.qos_scale = 1.2;  // Fig. 15b
  Kairos kairos(catalog, "WND", opt);
  EXPECT_DOUBLE_EQ(kairos.qos_ms(), 25.0 * 1.2);
  EXPECT_THROW(Kairos(catalog, "WND", KairosOptions{.qos_scale = 0.0}),
               std::invalid_argument);
}

TEST(KairosFacadeTest, UnknownModelThrows) {
  const Catalog catalog = Catalog::PaperPool();
  EXPECT_THROW(Kairos(catalog, "LLAMA"), std::out_of_range);
}

TEST(KairosFacadeTest, PlanWithEvaluationsReturnsBudgetedConfig) {
  const Catalog catalog = Catalog::PaperPool();
  KairosOptions opt;
  opt.monitor_warmup = 4000;
  Kairos kairos(catalog, "DIEN", opt);
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  // Cheap synthetic eval: prefer more total instances (monotone), so the
  // search machinery can be exercised without simulations.
  const auto result = kairos.PlanWithEvaluations(
      [](const Config& c) { return static_cast<double>(c.TotalInstances()); },
      search::SearchOptions{.max_evals = 25});
  EXPECT_LE(result.best_config.CostPerHour(catalog), 2.5 + 1e-9);
  EXPECT_LE(result.evals, 25u);
  EXPECT_GT(result.best_qps, 0.0);
}

TEST(PolicyFactoryTest, BuildsAllSchemes) {
  for (const char* name : {"KAIROS", "RIBBON", "DRS", "CLKWRK"}) {
    const auto factory = PolicyRegistry::Global().MakeFactory(name);
    ASSERT_TRUE(factory.ok()) << factory.status().ToString();
    const auto policy = (*factory)();
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->Name(), name);
  }
  EXPECT_EQ(PolicyRegistry::Global().MakeFactory("FCFS++").status().code(),
            StatusCode::kNotFound);
}

TEST(MonitorFromMixTest, DeterministicForSeed) {
  const auto mix = workload::LogNormalBatches::Production();
  const auto a = MonitorFromMix(mix, 2000, 5);
  const auto b = MonitorFromMix(mix, 2000, 5);
  EXPECT_DOUBLE_EQ(a.MeanBatch(), b.MeanBatch());
  EXPECT_EQ(a.Count(), 2000u);
}

TEST(RuntimeTest, ServeRunsTraceWithKairosPolicy) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("WND");
  const auto truth = spec.Instantiate(catalog);
  Runtime runtime(catalog, Config({1, 0, 2, 0}), truth, spec.qos_ms);
  Rng rng(3);
  const auto mix = workload::LogNormalBatches::Production();
  const auto trace = workload::Trace::Generate(
      workload::PoissonArrivals(50.0), mix, 300, rng);
  auto engine = runtime.MakeEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const workload::Query& q : trace.queries()) {
    ASSERT_TRUE((*engine)->Submit(q).ok());
  }
  (*engine)->Drain();
  const auto result = (*engine)->Totals();
  EXPECT_EQ(result.served, 300u);
  EXPECT_GT(result.throughput_qps, 0.0);
}

TEST(RuntimeTest, MeasureThroughputPositiveForFeasibleSetup) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("WND");
  const auto truth = spec.Instantiate(catalog);
  Runtime runtime(catalog, Config({2, 0, 0, 0}), truth, spec.qos_ms);
  serving::EvalOptions opt;
  opt.queries = 300;
  opt.rate_guess = 100.0;
  const auto r =
      runtime.MeasureThroughput(workload::LogNormalBatches::Production(), opt);
  EXPECT_GT(r.qps, 0.0);
}

}  // namespace
}  // namespace kairos::core

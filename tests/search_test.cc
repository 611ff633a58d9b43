#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "cloud/config_space.h"
#include "common/rng.h"
#include "search/annealing.h"
#include "search/bayes_opt.h"
#include "search/genetic.h"
#include "search/gp.h"
#include "search/hill_climb.h"
#include "search/kairos_plus.h"
#include "search/random_search.h"
#include "search/search.h"
#include "ub/selector.h"

namespace kairos::search {
namespace {

using cloud::Config;

// A synthetic concave objective over the 2-type lattice with a unique
// optimum; cheap, so search behaviour can be tested exhaustively.
double SyntheticQps(const Config& c) {
  const double u = c.counts()[0];
  const double v = c.counts()[1];
  // Diminishing returns per tier plus synergy; peak inside the budget.
  return 10.0 * std::sqrt(u) + 4.0 * std::sqrt(v) + 1.5 * std::min(u, v);
}

std::vector<Config> Lattice(int max_u, int max_v) {
  std::vector<Config> out;
  for (int u = 1; u <= max_u; ++u) {
    for (int v = 0; v <= max_v; ++v) out.push_back(Config({u, v}));
  }
  return out;
}

Config Argmax(const std::vector<Config>& configs) {
  Config best = configs.front();
  for (const Config& c : configs) {
    if (SyntheticQps(c) > SyntheticQps(best)) best = c;
  }
  return best;
}

// A *valid* upper bound for the synthetic objective (monotone + margin).
double SyntheticUpperBound(const Config& c) { return SyntheticQps(c) * 1.15; }

TEST(CountingEvaluatorTest, MemoizesAndCounts) {
  int raw_calls = 0;
  CountingEvaluator eval([&](const Config& c) {
    ++raw_calls;
    return SyntheticQps(c);
  });
  const Config a({2, 1});
  EXPECT_DOUBLE_EQ(eval(a), SyntheticQps(a));
  EXPECT_DOUBLE_EQ(eval(a), SyntheticQps(a));
  EXPECT_EQ(raw_calls, 1);
  EXPECT_EQ(eval.evals(), 1u);
  eval(Config({1, 0}));
  EXPECT_EQ(eval.evals(), 2u);
  EXPECT_EQ(eval.best_config(), a);
}

TEST(CandidatePoolTest, SubConfigPruning) {
  CandidatePool pool(Lattice(3, 3));
  const std::size_t before = pool.size();
  pool.RemoveSubConfigsOf(Config({2, 2}));
  // Strict sub-configs of (2,2): (1,0),(1,1),(1,2),(2,0),(2,1) = 5.
  EXPECT_EQ(pool.size(), before - 5);
  EXPECT_TRUE(pool.Contains(Config({2, 2})));   // not a sub-config of itself
  EXPECT_FALSE(pool.Contains(Config({1, 2})));
  EXPECT_TRUE(pool.Contains(Config({3, 1})));   // incomparable survives
}

TEST(CandidatePoolTest, RemoveIfAndRemaining) {
  CandidatePool pool(Lattice(2, 2));
  pool.RemoveIf([](const Config& c) { return c.counts()[1] == 0; });
  for (const Config& c : pool.Remaining()) EXPECT_GT(c.counts()[1], 0);
  pool.Remove(Config({1, 1}));
  EXPECT_FALSE(pool.Contains(Config({1, 1})));
  pool.Remove(Config({1, 1}));  // double remove is a no-op
}

TEST(KairosPlusTest, FindsOptimumAndExhaustsPool) {
  const auto configs = Lattice(4, 6);
  const Config optimum = Argmax(configs);
  std::vector<double> bounds;
  for (const Config& c : configs) bounds.push_back(SyntheticUpperBound(c));
  const auto ranked = ub::RankByUpperBound(configs, bounds);

  const SearchResult r = KairosPlusSearch(ranked, SyntheticQps);
  EXPECT_EQ(r.best_config, optimum);
  EXPECT_NEAR(r.best_qps, SyntheticQps(optimum), 1e-12);
  // With tight bounds the paper expects aggressive pruning: far fewer
  // evaluations than the space size (Fig. 10: < a few % of the space).
  EXPECT_LT(r.evals, configs.size() / 4);
}

TEST(KairosPlusTest, RespectsMaxEvalsAndTarget) {
  const auto configs = Lattice(4, 6);
  std::vector<double> bounds;
  for (const Config& c : configs) bounds.push_back(SyntheticUpperBound(c));
  const auto ranked = ub::RankByUpperBound(configs, bounds);

  SearchOptions opt;
  opt.max_evals = 3;
  EXPECT_LE(KairosPlusSearch(ranked, SyntheticQps, opt).evals, 3u);

  SearchOptions target;
  target.target_qps = SyntheticQps(Argmax(configs)) * 0.9;
  const auto r = KairosPlusSearch(ranked, SyntheticQps, target);
  EXPECT_GE(r.best_qps, target.target_qps);
}

// The pool-based Algorithm 1 loop that KairosPlusSearch's single walk
// replaced, kept as its oracle: after every evaluation, prune the whole
// candidate pool by upper bound and by sub-configuration.
SearchResult ReferencePoolWalk(const std::vector<ub::RankedConfig>& ranked,
                               const EvalFn& eval,
                               const SearchOptions& options) {
  CountingEvaluator evaluator(eval);
  std::vector<Config> configs;
  std::map<Config, double> bound_of;
  for (const ub::RankedConfig& rc : ranked) {
    configs.push_back(rc.config);
    bound_of.emplace(rc.config, rc.upper_bound);
  }
  CandidatePool pool(std::move(configs));
  for (const ub::RankedConfig& rc : ranked) {
    if (pool.empty() || evaluator.evals() >= options.max_evals) break;
    if (!pool.Contains(rc.config)) continue;
    const double qps = evaluator(rc.config);
    pool.Remove(rc.config);
    const double best = evaluator.best_qps();
    pool.RemoveIf([&](const Config& c) { return bound_of.at(c) <= best; });
    if (options.subconfig_pruning) pool.RemoveSubConfigsOf(rc.config);
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

TEST(KairosPlusTest, MatchesPoolBasedReferenceWalk) {
  enum BoundKind { kValid, kExact, kAllZero, kTied, kArbitrary, kNumKinds };
  constexpr std::size_t kCapChoices = 8;  // max_evals 0..6, then unlimited
  std::size_t total_evals = 0;
  for (std::uint64_t seed = 0; seed < 1600; ++seed) {
    const auto kind = static_cast<BoundKind>(seed % kNumKinds);
    const std::size_t cap_choice = (seed / kNumKinds) % kCapChoices;
    const bool pruning = (seed / (kNumKinds * kCapChoices)) % 2 == 0;
    const bool use_target = (seed / (2 * kNumKinds * kCapChoices)) % 2 == 1;
    Rng rng(seed + 1);

    // A 2- or 3-type lattice with a random subset dropped, as a budget
    // would; qps is coarsely quantized so measured values tie too.
    const std::size_t dims = rng.Bernoulli(0.5) ? 2 : 3;
    std::vector<int> max_count(dims);
    for (int& m : max_count) m = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<Config> configs;
    std::vector<int> counts(dims, 0);
    counts[0] = 1;
    while (true) {
      if (rng.Bernoulli(0.8)) configs.emplace_back(counts);
      std::size_t d = 0;
      for (; d < dims; ++d) {  // odometer step; the first type starts at 1
        if (++counts[d] <= max_count[d]) break;
        counts[d] = d == 0 ? 1 : 0;
      }
      if (d == dims) break;
    }
    if (configs.empty()) continue;
    std::map<Config, double> qps_of;
    std::vector<double> bounds;
    for (const Config& c : configs) {
      const double qps = std::round(rng.Uniform(0.0, 20.0));
      qps_of.emplace(c, qps);
      switch (kind) {
        case kValid: bounds.push_back(qps * rng.Uniform(1.0, 1.3)); break;
        case kExact: bounds.push_back(qps); break;
        case kAllZero: bounds.push_back(0.0); break;
        case kTied: bounds.push_back(std::round(qps * 1.2 / 5.0) * 5.0); break;
        default: bounds.push_back(rng.Uniform(0.0, 25.0)); break;
      }
    }
    const auto ranked = ub::RankByUpperBound(configs, bounds);
    const EvalFn eval = [&](const Config& c) { return qps_of.at(c); };

    SearchOptions options;
    options.subconfig_pruning = pruning;
    if (cap_choice < kCapChoices - 1) options.max_evals = cap_choice;
    if (use_target) options.target_qps = std::round(rng.Uniform(5.0, 20.0));

    const SearchResult want = ReferencePoolWalk(ranked, eval, options);
    const SearchResult got = KairosPlusSearch(ranked, eval, options);
    ASSERT_EQ(got.evals, want.evals) << "seed " << seed;
    ASSERT_EQ(got.best_qps, want.best_qps) << "seed " << seed;
    ASSERT_EQ(got.best_config, want.best_config) << "seed " << seed;
    ASSERT_EQ(got.history.size(), want.history.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.history.size(); ++i) {
      ASSERT_EQ(got.history[i].config, want.history[i].config)
          << "seed " << seed << " eval " << i;
      ASSERT_EQ(got.history[i].qps, want.history[i].qps)
          << "seed " << seed << " eval " << i;
    }
    total_evals += got.evals;
  }
  EXPECT_GT(total_evals, 0u);
}

// All baseline searches must eventually reach the optimum when given the
// target and an unlimited budget (they are exhaustive-in-the-limit).
enum class Algo { kRandom, kGenetic, kAnnealing, kBayesOpt };

class BaselineSearchReachesTarget
    : public ::testing::TestWithParam<std::tuple<Algo, std::uint64_t>> {};

TEST_P(BaselineSearchReachesTarget, HitsOptimum) {
  const auto [algo, seed] = GetParam();
  const auto configs = Lattice(4, 6);
  const double best = SyntheticQps(Argmax(configs));
  SearchOptions opt;
  opt.target_qps = best;  // stop exactly at the optimum
  opt.seed = seed;

  SearchResult r;
  switch (algo) {
    case Algo::kRandom:
      r = RandomSearch(configs, SyntheticQps, opt);
      break;
    case Algo::kGenetic: {
      GeneticOptions ga;
      ga.generations = 500;
      r = GeneticSearch(configs, SyntheticQps, opt, ga);
      break;
    }
    case Algo::kAnnealing: {
      AnnealingOptions sa;
      sa.steps = 4000;
      r = AnnealingSearch(configs, SyntheticQps, opt, sa);
      break;
    }
    case Algo::kBayesOpt:
      r = BayesOptSearch(configs, SyntheticQps, opt);
      break;
  }
  EXPECT_NEAR(r.best_qps, best, 1e-9);
  EXPECT_GT(r.evals, 0u);
  EXPECT_LE(r.evals, configs.size());
}

std::string AlgoCaseName(
    const ::testing::TestParamInfo<std::tuple<Algo, std::uint64_t>>& info) {
  static constexpr const char* kNames[] = {"Random", "Genetic", "Annealing",
                                           "BayesOpt"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndSeeds, BaselineSearchReachesTarget,
    ::testing::Combine(::testing::Values(Algo::kRandom, Algo::kGenetic,
                                         Algo::kAnnealing, Algo::kBayesOpt),
                       ::testing::Values(1u, 2u, 3u)),
    AlgoCaseName);

TEST(AnnealingTest, RecordsExplorationHistory) {
  const auto configs = Lattice(4, 6);
  SearchOptions opt;
  opt.seed = 42;
  AnnealingOptions sa;
  sa.steps = 25;
  const SearchResult r = AnnealingSearch(configs, SyntheticQps, opt, sa);
  EXPECT_GE(r.history.size(), 2u);  // the Fig. 2 transcript
  for (const EvalRecord& rec : r.history) {
    EXPECT_GT(rec.qps, 0.0);
  }
}

TEST(HillClimbTest, FindsPeakOnUnimodalGrid) {
  const std::vector<int> grid = {50, 100, 200, 300, 400, 500, 600};
  // Peak at 300.
  const auto eval = [](int t) {
    return 100.0 - std::abs(t - 300) * 0.1;
  };
  const HillClimbResult r = HillClimb(grid, eval);
  EXPECT_EQ(grid[r.best_index], 300);
  EXPECT_LE(r.evals, grid.size());
}

TEST(HillClimbTest, HandlesEdgePeaks) {
  const std::vector<int> grid = {10, 20, 30, 40};
  const auto increasing = [](int t) { return static_cast<double>(t); };
  EXPECT_EQ(grid[HillClimb(grid, increasing).best_index], 40);
  const auto decreasing = [](int t) { return -static_cast<double>(t); };
  EXPECT_EQ(grid[HillClimb(grid, decreasing).best_index], 10);
  EXPECT_THROW(HillClimb({}, increasing), std::invalid_argument);
}

TEST(GaussianProcessTest, InterpolatesNoiselessData) {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs = {{0.0}, {0.5}, {1.0}};
  std::vector<double> ys = {1.0, 2.0, 1.5};
  gp.Fit(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto p = gp.Predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-3);
    EXPECT_LT(p.stddev, 0.05);  // near-zero at observed points
  }
  // Far away the posterior reverts toward the mean with high uncertainty.
  const auto far = gp.Predict({10.0});
  EXPECT_NEAR(far.mean, (1.0 + 2.0 + 1.5) / 3.0, 1e-6);
  EXPECT_GT(far.stddev, 0.9);
}

TEST(GaussianProcessTest, BadInputsThrow) {
  GaussianProcess gp;
  EXPECT_THROW(gp.Fit({}, {}), std::invalid_argument);
  EXPECT_THROW(gp.Predict({0.0}), std::logic_error);
}

TEST(ExpectedImprovementTest, Properties) {
  // Zero uncertainty: EI is the positive part of the gap.
  EXPECT_DOUBLE_EQ(ExpectedImprovement(5.0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(2.0, 0.0, 3.0), 0.0);
  // More uncertainty means more EI at the same mean.
  EXPECT_GT(ExpectedImprovement(3.0, 2.0, 3.0),
            ExpectedImprovement(3.0, 0.5, 3.0));
  // EI is non-negative.
  EXPECT_GE(ExpectedImprovement(-10.0, 1.0, 3.0), 0.0);
}

TEST(SearchComparisonTest, KairosPlusBeatsBaselinesOnEvalCount) {
  // The Fig. 11 headline, on the synthetic objective: evaluations until the
  // optimum is *known found* (target reached).
  const auto configs = Lattice(4, 8);
  const double best = SyntheticQps(Argmax(configs));
  SearchOptions opt;
  opt.target_qps = best;
  opt.seed = 9;

  std::vector<double> bounds;
  for (const Config& c : configs) bounds.push_back(SyntheticUpperBound(c));
  const auto ranked = ub::RankByUpperBound(configs, bounds);
  const std::size_t kairos_evals =
      KairosPlusSearch(ranked, SyntheticQps, opt).evals;

  // Average the stochastic baselines over seeds.
  double rand_evals = 0.0, bo_evals = 0.0;
  const int reps = 5;
  for (std::uint64_t s = 1; s <= reps; ++s) {
    SearchOptions o = opt;
    o.seed = s;
    rand_evals += RandomSearch(configs, SyntheticQps, o).evals;
    bo_evals += BayesOptSearch(configs, SyntheticQps, o).evals;
  }
  rand_evals /= reps;
  bo_evals /= reps;
  EXPECT_LT(kairos_evals, rand_evals);
  EXPECT_LE(kairos_evals, bo_evals * 1.5);
}

}  // namespace
}  // namespace kairos::search

// Fig. 10: online evaluation overhead. For a fair comparison the paper
// augments *every* competing technique with Kairos+'s upper-bound-guided
// exploration algorithm (Algorithm 1); each scheme still evaluates
// configurations with its own distribution mechanism (DRS additionally
// pays threshold-tuning probes per evaluated configuration). The search
// runs until the candidate pool is exhausted — i.e. the scheme *knows* it
// has found its optimum. Kairos+ prunes aggressively because its achieved
// throughput tracks the upper bounds closely; the baselines' throughput
// sits far below the bounds, so the "UB <= best-so-far" rule fires rarely
// and they must evaluate much more of the space.
#include <iostream>

#include "bench/bench_util.h"
#include "search/kairos_plus.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto mix = workload::LogNormalBatches::Production();

  TextTable table({"model", "space", "RIBBON evals (%)", "DRS evals (%)",
                   "CLKWRK evals (%)", "KAIROS+ evals (%)"});
  for (const std::string& model : bench::Models()) {
    const bench::ModelBench mb(catalog, model);
    const auto space = mb.Space();
    const double n = static_cast<double>(space.size());

    const auto monitor = core::MonitorFromMix(mix, 10000, 7);
    const ub::UpperBoundEstimator est(catalog, mb.truth, mb.qos_ms);
    const auto bounds = est.EstimateAll(space, monitor);
    const auto ranked = ub::RankByUpperBound(space, bounds);
    const double guess = 0.5 * ranked.front().upper_bound;

    // Each scheme runs Algorithm 1 to candidate-pool exhaustion with its
    // own distribution mechanism as the evaluator.
    auto evals_for = [&](const std::string& scheme,
                         double extra_per_eval) -> double {
      search::EvalFn eval;
      if (scheme == "DRS") {
        eval = [&](const cloud::Config& c) {
          const int threshold = mb.TuneDrsThreshold(c, mix, guess);
          return mb.Throughput(c, "DRS", mix, guess, threshold);
        };
      } else {
        eval = [&, scheme](const cloud::Config& c) {
          return mb.Throughput(c, scheme, mix, guess);
        };
      }
      const auto r = search::KairosPlusSearch(ub::RankedList(ranked), eval);
      return static_cast<double>(r.evals) * (1.0 + extra_per_eval);
    };

    const double ribbon_evals = evals_for("RIBBON", 0.0);
    // DRS: each evaluated config additionally costs threshold-tuning
    // probes (the hill climb averages ~4 probes per config).
    const double drs_evals = evals_for("DRS", 3.0);
    const double clkwrk_evals = evals_for("CLKWRK", 0.0);
    const double kairos_evals = evals_for("KAIROS", 0.0);

    auto pct = [&](double evals) {
      return TextTable::Num(100.0 * evals / n, 2);
    };
    table.AddRow({model, std::to_string(space.size()), pct(ribbon_evals),
                  pct(drs_evals), pct(clkwrk_evals), pct(kairos_evals)});
  }
  table.Print(std::cout,
              "Fig. 10: evaluations to provably reach each scheme's optimum "
              "(all schemes use Kairos+'s search; % of search space)");
  return 0;
}

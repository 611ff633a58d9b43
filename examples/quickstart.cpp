// Quickstart: plan a heterogeneous configuration for one model under a
// cost budget, deploy it with the Kairos query distributor, and compare
// its allowable throughput against the best homogeneous deployment.
//
// Uses the registry-driven API end to end: Kairos::Create returns a
// StatusOr (an unknown model prints the Table-3 alternatives instead of
// throwing), and the planning strategy is looked up by name in the
// PlannerRegistry.
//
//   ./quickstart [MODEL] [BUDGET_PER_HOUR] [PLANNER]
//   ./quickstart RM2 2.5 KAIROS
#include <iostream>
#include <string>

#include "cloud/config_space.h"
#include "common/table.h"
#include "core/kairos.h"
#include "core/planner_backend.h"

int main(int argc, char** argv) {
  const std::string model = argc > 1 ? argv[1] : "RM2";
  const double budget = argc > 2 ? std::stod(argv[2]) : 2.5;
  const std::string planner = argc > 3 ? argv[3] : "KAIROS";

  // 1. The paper's instance pool (Table 4) and workload mix.
  const kairos::cloud::Catalog catalog = kairos::cloud::Catalog::PaperPool();
  const auto mix = kairos::workload::LogNormalBatches::Production();

  // 2. Stand up Kairos for the model. Errors are Status values, not
  //    exceptions: a typo in MODEL prints the registered alternatives.
  kairos::core::KairosOptions options;
  options.budget_per_hour = budget;
  auto kairos = kairos::core::Kairos::Create(catalog, model, options);
  if (!kairos.ok()) {
    std::cerr << kairos.status().ToString() << "\n";
    return 1;
  }
  kairos->ObserveMix(mix);

  // 3. Plan with a registry-selected backend (one-shot KAIROS by default;
  //    try HOMOGENEOUS to see the baseline this facade beats).
  auto backend = kairos::PlannerRegistry::Global().Build(planner);
  if (!backend.ok()) {
    std::cerr << backend.status().ToString() << "\n";
    return 1;
  }
  kairos::core::PlanRequest request;
  request.monitor = &kairos->monitor();
  if ((*backend)->NeedsEvaluations()) {
    // Evaluation-driven backends measure real throughput per candidate.
    request.eval = [&](const kairos::cloud::Config& config) {
      kairos::serving::EvalOptions eval;
      eval.queries = 400;
      return kairos->MeasureThroughput(config, mix, eval).qps;
    };
    request.search.max_evals = 20;
  }
  const auto outcome = (*backend)->Plan(
      kairos::core::PlannerContext{&catalog, &kairos->truth(),
                                   kairos->qos_ms(), budget},
      request);
  if (!outcome.ok()) {
    std::cerr << (*backend)->Name() << " failed: "
              << outcome.status().ToString() << "\n";
    return 1;
  }
  std::cout << "model " << model << "  qos " << kairos->qos_ms() << " ms"
            << "  budget $" << budget << "/hr  planner "
            << (*backend)->Name() << "\n"
            << "chosen config " << outcome->config.ToString() << "  (cost $"
            << outcome->config.CostPerHour(catalog) << "/hr, "
            << outcome->evaluations << " online evaluations)\n";
  if (outcome->plan.has_value()) {
    std::cout << "search space: " << outcome->plan->space_size
              << " configurations, rank " << outcome->plan->selection.chosen_rank
              << " by upper bound, "
              << (outcome->plan->selection.used_distance_rule
                      ? "min-SSE rule"
                      : "top-3 agreement")
              << "\n";
  }

  // 4. Measure allowable throughput: the planned pick vs. best homogeneous.
  kairos::serving::EvalOptions eval;
  eval.queries = 1500;
  eval.rate_guess =
      outcome->expected_qps > 0.0 ? outcome->expected_qps * 0.5 : 20.0;

  const auto hetero = kairos->MeasureThroughput(outcome->config, mix, eval);
  const kairos::cloud::Config homo =
      kairos::cloud::BestHomogeneous(catalog, budget);
  const auto homo_result = kairos->MeasureThroughput(homo, mix, eval);
  // The paper scales homogeneous throughput up to the full budget to give
  // the baseline every advantage (Sec. 8.1).
  const double homo_scaled =
      homo_result.qps * budget / homo.CostPerHour(catalog);

  kairos::TextTable table({"deployment", "config", "QPS", "vs homogeneous"});
  table.AddRow({"homogeneous (scaled)", homo.ToString(),
                kairos::TextTable::Num(homo_scaled), "1.00x"});
  table.AddRow({"Kairos", outcome->config.ToString(),
                kairos::TextTable::Num(hetero.qps),
                kairos::TextTable::Num(hetero.qps / homo_scaled) + "x"});
  table.Print(std::cout, "quickstart: " + model);

  // 5. Show the top of the upper-bound ranking when the backend ranked one.
  if (outcome->plan.has_value()) {
    kairos::TextTable top({"rank", "config", "upper bound (QPS)"});
    for (std::size_t i = 0; i < 5 && i < outcome->plan->ranked.size(); ++i) {
      top.AddRow({std::to_string(i),
                  outcome->plan->ranked[i].config.ToString(),
                  kairos::TextTable::Num(outcome->plan->ranked[i].upper_bound)});
    }
    top.Print(std::cout, "top upper-bound candidates");
  }
  return 0;
}

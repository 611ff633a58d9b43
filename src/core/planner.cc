#include "core/planner.h"

#include <stdexcept>

namespace kairos::core {

Planner::Planner(PlannerContext ctx) : ctx_(ctx) {
  if (ctx_.catalog == nullptr || ctx_.truth == nullptr) {
    throw std::invalid_argument("Planner: catalog/truth required");
  }
  if (ctx_.qos_ms <= 0.0 || ctx_.budget_per_hour <= 0.0) {
    throw std::invalid_argument("Planner: qos_ms and budget must be positive");
  }
}

cloud::ConfigSpaceOptions Planner::SpaceOptions() const {
  cloud::ConfigSpaceOptions options;
  options.budget_per_hour = ctx_.budget_per_hour;
  options.min_base_instances = 1;
  return options;
}

std::vector<cloud::Config> Planner::ConfigSpace() const {
  return cloud::EnumerateConfigs(*ctx_.catalog, SpaceOptions());
}

Plan Planner::PlanConfiguration(const workload::QueryMonitor& monitor) const {
  return PlanConfiguration(monitor, ConfigSpace());
}

Plan Planner::PlanConfiguration(
    const workload::QueryMonitor& monitor,
    const std::vector<cloud::Config>& space) const {
  const ub::UpperBoundEstimator estimator(*ctx_.catalog, *ctx_.truth,
                                          ctx_.qos_ms);
  const std::vector<double> bounds = estimator.EstimateAll(space, monitor);

  Plan plan;
  plan.ranked = ub::RankByUpperBound(space, bounds);
  plan.selection = ub::SelectConfiguration(plan.ranked, *ctx_.catalog);
  plan.config = plan.selection.chosen;
  return plan;
}

search::SearchResult Planner::PlanWithEvaluations(
    const workload::QueryMonitor& monitor, const search::EvalFn& eval,
    const search::SearchOptions& options) const {
  return PlanWithEvaluations(monitor, eval, options, ConfigSpace());
}

search::SearchResult Planner::PlanWithEvaluations(
    const workload::QueryMonitor& monitor, const search::EvalFn& eval,
    const search::SearchOptions& options,
    const std::vector<cloud::Config>& space) const {
  const ub::UpperBoundEstimator estimator(*ctx_.catalog, *ctx_.truth,
                                          ctx_.qos_ms);
  const std::vector<double> bounds = estimator.EstimateAll(space, monitor);
  const std::vector<ub::RankedConfig> ranked =
      ub::RankByUpperBound(space, bounds);
  return search::KairosPlusSearch(ranked, eval, options);
}

}  // namespace kairos::core

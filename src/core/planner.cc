#include "core/planner.h"

#include <span>
#include <stdexcept>

#include "common/strings.h"

namespace kairos::core {
namespace {

/// Walks the budgeted space once, handing `visit` each config's counts and
/// upper bound in enumeration order.
template <typename Visit>
void WalkBounds(const PlannerContext& ctx,
                const cloud::ConfigSpaceOptions& space,
                const workload::QueryMonitor& monitor, const Visit& visit) {
  const ub::UpperBoundEstimator estimator(*ctx.catalog, *ctx.truth,
                                          ctx.qos_ms);
  ub::UpperBoundEstimator::Scan scan(estimator, monitor);
  cloud::ForEachConfig(*ctx.catalog, space, [&](std::span<const int> counts) {
    visit(counts, scan.Estimate(counts).qps_max);
  });
}

}  // namespace

Status NothingFits(const PlannerContext& ctx) {
  return Status::Infeasible("no configuration with a base instance fits " +
                            FormatDollarsPerHour(ctx.budget_per_hour));
}

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

ub::TopRanked Planner::TopByUpperBound(const workload::QueryMonitor& monitor,
                                       std::size_t k) const {
  ub::TopRanked top(k, ctx_.catalog->size());
  WalkBounds(ctx_, SpaceOptions(), monitor,
             [&top](std::span<const int> counts, double bound) {
               top.Offer(counts, bound);
             });
  return top;
}

StatusOr<Plan> Planner::PlanConfiguration(
    const workload::QueryMonitor& monitor) const {
  const ub::TopRanked top = TopByUpperBound(monitor, ub::kSimilarityRegion);
  if (top.offered() == 0) return NothingFits(ctx_);
  Plan plan;
  plan.ranked = top.Ranked();
  plan.space_size = top.offered();
  plan.selection = ub::SelectConfiguration(plan.ranked, *ctx_.catalog);
  plan.config = plan.selection.chosen;
  return plan;
}

StatusOr<search::SearchResult> Planner::PlanWithEvaluations(
    const workload::QueryMonitor& monitor, const search::EvalFn& eval,
    const search::SearchOptions& options) const {
  ub::RankedTable table(ctx_.catalog->size());
  WalkBounds(ctx_, SpaceOptions(), monitor,
             [&table](std::span<const int> counts, double bound) {
               table.Append(counts, bound);
             });
  if (table.size() == 0) return NothingFits(ctx_);
  return search::KairosPlusSearch(table, eval, options);
}

}  // namespace kairos::core

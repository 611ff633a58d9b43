// The Kairos resource allocator (Sec. 5.2, Fig. 4 right half): walk the
// budgeted configuration space once, estimate every upper bound from the
// monitored workload, and apply the similarity rule to the top of the
// ranking — no online evaluation. PlanWithEvaluations() is the Kairos+
// variant that spends a bounded number of real evaluations guided by the
// same bounds. Neither materializes the space: one-shot planning keeps
// only the top-10 region as the walk streams past, Kairos+ ranks a flat
// table lazily and builds a Config only for the ranks its walk reaches.
#pragma once

#include <cstddef>
#include <vector>

#include "cloud/config_space.h"
#include "common/status.h"
#include "search/kairos_plus.h"
#include "search/search.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"
#include "workload/monitor.h"

namespace kairos::core {

/// Everything the planner needs to know about the deployment problem.
struct PlannerContext {
  const cloud::Catalog* catalog = nullptr;
  const latency::LatencyModel* truth = nullptr;
  double qos_ms = 0.0;
  double budget_per_hour = 2.5;  ///< paper default
};

/// kInfeasible: no configuration with a base instance fits the budget.
Status NothingFits(const PlannerContext& ctx);

/// A one-shot plan: the chosen configuration plus its diagnostics.
struct Plan {
  cloud::Config config;               ///< Kairos's pick
  ub::SelectionResult selection;      ///< how it was picked
  std::vector<ub::RankedConfig> ranked;  ///< the top-10 region, UB-descending
  std::size_t space_size = 0;         ///< configs in the budgeted space
};

/// Stateless planner bound to one PlannerContext.
class Planner {
 public:
  explicit Planner(PlannerContext ctx);

  /// Enumeration options of the budgeted space (>= 1 base instance).
  cloud::ConfigSpaceOptions SpaceOptions() const;

  /// The budgeted configuration space, materialized.
  std::vector<cloud::Config> ConfigSpace() const;

  /// The first `k` configs of the budgeted space in rank order (bound
  /// descending, enumeration index ascending), from one walk.
  ub::TopRanked TopByUpperBound(const workload::QueryMonitor& monitor,
                                std::size_t k) const;

  /// One-shot Kairos planning from monitored workload statistics.
  /// kInfeasible when no configuration fits the budget.
  StatusOr<Plan> PlanConfiguration(
      const workload::QueryMonitor& monitor) const;

  /// Kairos+: upper-bound-guided online search using `eval` for real
  /// throughput measurements (Algorithm 1). kInfeasible when no
  /// configuration fits the budget.
  StatusOr<search::SearchResult> PlanWithEvaluations(
      const workload::QueryMonitor& monitor, const search::EvalFn& eval,
      const search::SearchOptions& options = {}) const;

  const PlannerContext& context() const { return ctx_; }

 private:
  PlannerContext ctx_;
};

}  // namespace kairos::core

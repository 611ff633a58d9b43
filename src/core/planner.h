// The Kairos resource allocator (Sec. 5.2, Fig. 4 right half): enumerate
// the budgeted configuration space, estimate every upper bound from the
// monitored workload, rank, and apply the similarity rule — no online
// evaluation. PlanWithEvaluations() is the Kairos+ variant that spends a
// bounded number of real evaluations guided by the same bounds.
#pragma once

#include <vector>

#include "cloud/config_space.h"
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

/// A one-shot plan: the chosen configuration plus full diagnostics.
struct Plan {
  cloud::Config config;               ///< Kairos's pick
  ub::SelectionResult selection;      ///< how it was picked
  std::vector<ub::RankedConfig> ranked;  ///< all candidates, UB-descending
};

/// Stateless planner bound to one PlannerContext.
class Planner {
 public:
  explicit Planner(PlannerContext ctx);

  /// Enumeration options of the budgeted space (>= 1 base instance).
  cloud::ConfigSpaceOptions SpaceOptions() const;

  /// The budgeted configuration space, materialized.
  std::vector<cloud::Config> ConfigSpace() const;

  /// One-shot Kairos planning from monitored workload statistics.
  Plan PlanConfiguration(const workload::QueryMonitor& monitor) const;

  /// Same, over a pre-enumerated candidate space (callers that already
  /// hold ConfigSpace() avoid re-enumerating). `space` must be non-empty.
  Plan PlanConfiguration(const workload::QueryMonitor& monitor,
                         const std::vector<cloud::Config>& space) const;

  /// Kairos+: upper-bound-guided online search using `eval` for real
  /// throughput measurements (Algorithm 1).
  search::SearchResult PlanWithEvaluations(
      const workload::QueryMonitor& monitor, const search::EvalFn& eval,
      const search::SearchOptions& options = {}) const;

  /// Same, over a pre-enumerated candidate space.
  search::SearchResult PlanWithEvaluations(
      const workload::QueryMonitor& monitor, const search::EvalFn& eval,
      const search::SearchOptions& options,
      const std::vector<cloud::Config>& space) const;

  const PlannerContext& context() const { return ctx_; }

 private:
  PlannerContext ctx_;
};

}  // namespace kairos::core

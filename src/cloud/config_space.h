// Budget-constrained configuration-space enumeration (Sec. 5.2): all integer
// allocations whose hourly cost fits the budget, optionally requiring at
// least one base instance (without a base instance the largest queries can
// never meet QoS, so such configs have zero allowable throughput).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"

namespace kairos::cloud {

/// Enumeration options.
struct ConfigSpaceOptions {
  double budget_per_hour = 2.5;  ///< paper default $2.5/hr
  int min_base_instances = 1;    ///< require at least this many base nodes
  bool include_empty_aux = true; ///< keep homogeneous (aux counts all zero)
};

/// Called once per config with its counts indexed by TypeId; the span is
/// only valid during the call.
using ConfigVisitor = std::function<void(std::span<const int> counts)>;

/// Visits every config within budget, in lexicographic order, without
/// materializing the space. Spaces run from a handful of configs at a
/// one-instance budget to tens of thousands (NCF at $9.90/hr on the
/// paper's four-type pool: 73,969), so visitors should not allocate per
/// config.
void ForEachConfig(const Catalog& catalog, const ConfigSpaceOptions& options,
                   const ConfigVisitor& visit);

/// ForEachConfig collected into a list, in the same order.
std::vector<Config> EnumerateConfigs(const Catalog& catalog,
                                     const ConfigSpaceOptions& options);

/// The most instances at `price_per_hour` that `budget_per_hour` buys
/// (with a 1e-9 tolerance, so a budget of exactly k prices buys k).
int MaxAffordable(double price_per_hour, double budget_per_hour);

/// The optimal homogeneous configuration (Sec. 4): the maximum number of
/// base instances that fits the budget, zero auxiliaries. Throws
/// std::invalid_argument when not even one base instance fits.
Config BestHomogeneous(const Catalog& catalog, double budget_per_hour);

/// The fraction of the budget a config leaves unused, in [0, 1].
double BudgetSlack(const Catalog& catalog, const Config& config,
                   double budget_per_hour);

}  // namespace kairos::cloud

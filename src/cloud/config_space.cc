#include "cloud/config_space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace kairos::cloud {

namespace {

/// Depth-first over types; prunes by remaining budget at each level.
struct SpaceWalk {
  const Catalog& catalog;
  const ConfigSpaceOptions& options;
  const ConfigVisitor& visit;
  TypeId base;
  std::vector<int> counts;

  void Level(std::size_t type, double remaining) {
    const std::size_t n = counts.size();
    if (type == n) {
      if (counts[base] < options.min_base_instances) return;
      if (!options.include_empty_aux) {
        int aux_total = 0;
        for (TypeId t = 0; t < n; ++t) {
          if (t != base) aux_total += counts[t];
        }
        if (aux_total == 0) return;
      }
      visit(counts);
      return;
    }
    const double price = catalog[type].price_per_hour;
    const int max_count = MaxAffordable(price, remaining);
    for (int c = 0; c <= max_count; ++c) {
      counts[type] = c;
      Level(type + 1, remaining - c * price);
    }
    counts[type] = 0;
  }
};

}  // namespace

void ForEachConfig(const Catalog& catalog, const ConfigSpaceOptions& options,
                   const ConfigVisitor& visit) {
  const std::size_t n = catalog.size();
  if (n == 0) return;
  SpaceWalk walk{catalog, options, visit, catalog.BaseType(),
                 std::vector<int>(n, 0)};
  walk.Level(0, options.budget_per_hour);
}

std::vector<Config> EnumerateConfigs(const Catalog& catalog,
                                     const ConfigSpaceOptions& options) {
  std::vector<Config> out;
  ForEachConfig(catalog, options, [&out](std::span<const int> counts) {
    out.emplace_back(std::vector<int>(counts.begin(), counts.end()));
  });
  return out;
}

int MaxAffordable(double price_per_hour, double budget_per_hour) {
  return static_cast<int>(std::floor(budget_per_hour / price_per_hour + 1e-9));
}

Config BestHomogeneous(const Catalog& catalog, double budget_per_hour) {
  const TypeId base = catalog.BaseType();
  const int count = MaxAffordable(catalog[base].price_per_hour, budget_per_hour);
  if (count < 1) {
    throw std::invalid_argument(
        "BestHomogeneous: budget cannot afford one base instance");
  }
  std::vector<int> counts(catalog.size(), 0);
  counts[base] = count;
  return Config(std::move(counts));
}

double BudgetSlack(const Catalog& catalog, const Config& config,
                   double budget_per_hour) {
  const double cost = config.CostPerHour(catalog);
  if (budget_per_hour <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - cost / budget_per_hour);
}

}  // namespace kairos::cloud

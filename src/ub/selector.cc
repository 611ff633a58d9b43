#include "ub/selector.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace kairos::ub {
namespace {

/// Row `i` of a flat array of `num_types`-count rows, as a Config.
cloud::Config ConfigAt(const std::vector<int>& rows, std::size_t i,
                       std::size_t num_types) {
  const auto row = rows.begin() + i * num_types;
  return cloud::Config(std::vector<int>(row, row + num_types));
}

}  // namespace

std::vector<RankedConfig> RankByUpperBound(
    const std::vector<cloud::Config>& configs,
    const std::vector<double>& upper_bounds) {
  if (configs.size() != upper_bounds.size()) {
    throw std::invalid_argument("RankByUpperBound: size mismatch");
  }
  std::vector<RankedConfig> ranked;
  ranked.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ranked.push_back(RankedConfig{configs[i], upper_bounds[i]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedConfig& a, const RankedConfig& b) {
                     return a.upper_bound > b.upper_bound;
                   });
  return ranked;
}

void RankedTable::Append(std::span<const int> counts, double bound) {
  counts_.insert(counts_.end(), counts.begin(), counts.end());
  bounds_.push_back(bound);
}

cloud::Config RankedTable::config(std::size_t r) const {
  return ConfigAt(counts_, Index(r), num_types_);
}

std::size_t RankedTable::Index(std::size_t r) const {
  const std::size_t n = bounds_.size();
  // "a ranks after b" in rank order; a strict total order, so popping the
  // heap yields exactly RankByUpperBound's stable order.
  const auto after = [this](std::uint32_t a, std::uint32_t b) {
    return bounds_[b] > bounds_[a] || (!(bounds_[a] > bounds_[b]) && b < a);
  };
  if (order_.size() != n) {  // first rank read since the last Append
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::uint32_t{0});
    std::make_heap(order_.begin(), order_.end(), after);
    ranked_ = 0;
  }
  for (; ranked_ <= r; ++ranked_) {
    std::pop_heap(order_.begin(), order_.end() - ranked_, after);
  }
  return order_[n - 1 - r];
}

TopRanked::TopRanked(std::size_t k, std::size_t num_types)
    : k_(k), num_types_(num_types) {
  if (k == 0) throw std::invalid_argument("TopRanked: k must be positive");
  counts_.reserve(k * num_types);
  bounds_.reserve(k);
}

void TopRanked::Insert(std::span<const int> counts, double bound) {
  if (bounds_.size() == k_) {  // the last kept config drops out
    bounds_.pop_back();
    counts_.resize(counts_.size() - num_types_);
  }
  const std::size_t pos = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), bound,
                       std::greater<double>()) -
      bounds_.begin());
  bounds_.insert(bounds_.begin() + pos, bound);
  counts_.insert(counts_.begin() + pos * num_types_, counts.begin(),
                 counts.end());
}

std::vector<RankedConfig> TopRanked::Ranked() const {
  std::vector<RankedConfig> ranked;
  ranked.reserve(bounds_.size());
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    ranked.push_back(RankedConfig{ConfigAt(counts_, i, num_types_), bounds_[i]});
  }
  return ranked;
}

SelectionResult SelectConfiguration(const std::vector<RankedConfig>& ranked,
                                    const cloud::Catalog& catalog) {
  if (ranked.empty()) {
    throw std::invalid_argument("SelectConfiguration: empty candidate list");
  }
  const cloud::TypeId base = catalog.BaseType();

  // Top-3 agreement on the base count → trust the #1 upper bound.
  const std::size_t top3 = std::min<std::size_t>(3, ranked.size());
  bool base_agrees = true;
  for (std::size_t i = 1; i < top3; ++i) {
    if (ranked[i].config.Count(base) != ranked[0].config.Count(base)) {
      base_agrees = false;
      break;
    }
  }
  if (base_agrees) {
    return SelectionResult{ranked[0].config, 0, false};
  }

  // Otherwise: min sum of squared distances among the top-10 (the config
  // closest to the cluster centroid of the promising region).
  const std::size_t top10 = std::min(kSimilarityRegion, ranked.size());
  double best_sse = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < top10; ++i) {
    double sse = 0.0;
    for (std::size_t j = 0; j < top10; ++j) {
      if (i == j) continue;
      sse += ranked[i].config.SquaredDistance(ranked[j].config);
    }
    if (sse < best_sse) {
      best_sse = sse;
      best_idx = i;
    }
  }
  return SelectionResult{ranked[best_idx].config, best_idx, true};
}

}  // namespace kairos::ub

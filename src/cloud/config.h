// Heterogeneous configuration: how many instances of each catalog type are
// allocated. This is the decision variable of the Sec. 5.2 search problem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance_type.h"

namespace kairos::cloud {

/// Instance counts indexed by TypeId. A config like "(3,1,3)" in the paper
/// is counts = {3, 1, 3} over the G1/C1/C2 catalog.
class Config {
 public:
  Config() = default;
  explicit Config(std::vector<int> counts);

  /// Count for one type.
  int Count(TypeId t) const { return counts_.at(t); }
  int& Count(TypeId t) { return counts_.at(t); }

  std::size_t NumTypes() const { return counts_.size(); }
  const std::vector<int>& counts() const { return counts_; }

  /// Total number of instances across all types.
  int TotalInstances() const;

  /// Hourly cost under the catalog's prices.
  double CostPerHour(const Catalog& catalog) const;

  /// True when every count of *this <= other's count (and same arity):
  /// the paper's "sub-configuration" relation used by Kairos+ pruning.
  /// A config is not a sub-configuration of itself.
  bool IsSubConfigOf(const Config& other) const;

  /// Squared Euclidean distance between count vectors (similarity pick).
  double SquaredDistance(const Config& other) const;

  /// "(3, 1, 3)" formatting used throughout the paper.
  std::string ToString() const;

  /// 64-bit FNV-1a fingerprint of the count vector. Equal configs share a
  /// fingerprint; it keys the search memo (search::CountingEvaluator),
  /// which sits on the evaluation hot path.
  std::uint64_t Fingerprint() const;

  friend bool operator==(const Config& a, const Config& b) {
    return a.counts_ == b.counts_;
  }
  /// Lexicographic, so Config can key ordered containers.
  friend bool operator<(const Config& a, const Config& b) {
    return a.counts_ < b.counts_;
  }

 private:
  std::vector<int> counts_;
};

}  // namespace kairos::cloud

// Similarity-based configuration selection (Sec. 5.2, final step): a higher
// upper bound does not strictly imply higher throughput, so Kairos picks
// from the *region* of top-ranked candidates:
//   * if the top-3 upper-bound configs agree on the base-instance count,
//     take the #1 config;
//   * otherwise, among the top-10, take the config minimizing the sum of
//     squared Euclidean distances to the other nine (the cluster-centroid /
//     min-SSE criterion).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"

namespace kairos::ub {

/// A configuration with its estimated upper bound.
struct RankedConfig {
  cloud::Config config;
  double upper_bound = 0.0;

  friend bool operator==(const RankedConfig&, const RankedConfig&) = default;
};

/// Pairs configs with bounds and sorts descending by bound (stable, so
/// equal bounds keep enumeration order and results stay deterministic).
/// That (bound descending, enumeration index ascending) order is "rank
/// order" below.
std::vector<RankedConfig> RankByUpperBound(
    const std::vector<cloud::Config>& configs,
    const std::vector<double>& upper_bounds);

/// Candidates in rank order, read one rank at a time; Kairos+
/// (search::KairosPlusSearch) walks one.
class RankedView {
 public:
  virtual ~RankedView() = default;
  virtual std::size_t size() const = 0;
  /// Upper bound of the rank-`r` candidate, r < size().
  virtual double bound(std::size_t r) const = 0;
  /// The rank-`r` candidate, materialized.
  virtual cloud::Config config(std::size_t r) const = 0;
};

/// A RankedView over a list already in rank order (RankByUpperBound's
/// output). The list must outlive the view.
class RankedList final : public RankedView {
 public:
  explicit RankedList(const std::vector<RankedConfig>& ranked)
      : ranked_(ranked) {}
  std::size_t size() const override { return ranked_.size(); }
  double bound(std::size_t r) const override {
    return ranked_[r].upper_bound;
  }
  cloud::Config config(std::size_t r) const override {
    return ranked_[r].config;
  }

 private:
  const std::vector<RankedConfig>& ranked_;
};

/// A whole space as one flat table — every config's counts in one array,
/// the bounds in another, appended in enumeration order — ranked lazily:
/// the first rank read heapifies the indices (O(n)) and each further rank
/// costs one heap pop (O(log n)), so a walk that stops after k ranks never
/// sorts the rest. Appending never allocates per config beyond the
/// arrays' amortized growth. Rank reads are not thread-safe.
class RankedTable final : public RankedView {
 public:
  explicit RankedTable(std::size_t num_types) : num_types_(num_types) {}

  /// Appends the next config in enumeration order; `counts` must have
  /// `num_types` entries.
  void Append(std::span<const int> counts, double bound);

  std::size_t size() const override { return bounds_.size(); }
  double bound(std::size_t r) const override { return bounds_[Index(r)]; }
  cloud::Config config(std::size_t r) const override;

 private:
  /// Enumeration index of the rank-`r` config.
  std::size_t Index(std::size_t r) const;

  std::size_t num_types_;
  std::vector<int> counts_;     ///< size() rows of num_types_ counts
  std::vector<double> bounds_;  ///< enumeration order
  /// Enumeration indices: a max-heap of the unranked ones in front, the
  /// ranked ones behind it, rank r at order_[size() - 1 - r].
  mutable std::vector<std::uint32_t> order_;
  mutable std::size_t ranked_ = 0;  ///< ranks resolved so far
};

/// The first `k` candidates in rank order, kept while a space streams past
/// in enumeration order: bounded insertion over flat arrays, so offering a
/// config never allocates.
class TopRanked {
 public:
  /// Throws std::invalid_argument when `k` is 0.
  TopRanked(std::size_t k, std::size_t num_types);

  /// Offers the next config in enumeration order.
  void Offer(std::span<const int> counts, double bound) {
    ++offered_;
    // Offers arrive in enumeration order, so the newcomer ranks before a
    // kept config only on a strictly higher bound; once the region is
    // full, most offers fail against its last bound.
    if (bounds_.size() < k_ || bound > bounds_.back()) Insert(counts, bound);
  }

  /// Configs offered so far: the size of the space once it is walked.
  std::size_t offered() const { return offered_; }

  /// The kept region, materialized in rank order.
  std::vector<RankedConfig> Ranked() const;

 private:
  void Insert(std::span<const int> counts, double bound);

  std::size_t k_;
  std::size_t num_types_;
  std::size_t offered_ = 0;
  std::vector<int> counts_;     ///< kept rows of num_types_ counts
  std::vector<double> bounds_;  ///< kept, rank order
};

/// Candidates the similarity rule reads: the top-10 region.
inline constexpr std::size_t kSimilarityRegion = 10;

/// Outcome of the similarity rule.
struct SelectionResult {
  cloud::Config chosen;
  std::size_t chosen_rank = 0;       ///< index into the ranked list
  bool used_distance_rule = false;   ///< false = top-3 agreement shortcut

  friend bool operator==(const SelectionResult&,
                         const SelectionResult&) = default;
};

/// Applies the Sec. 5.2 similarity rule to a (descending) ranked list.
/// Throws std::invalid_argument when `ranked` is empty.
SelectionResult SelectConfiguration(const std::vector<RankedConfig>& ranked,
                                    const cloud::Catalog& catalog);

}  // namespace kairos::ub

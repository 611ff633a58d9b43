// Shared plumbing for configuration-search algorithms (Sec. 8.3): a
// memoizing, counting evaluator (an "evaluation" is one allowable-throughput
// measurement — the expensive unit all Fig. 10/11 comparisons count), a
// candidate pool with the sub-configuration pruning rule of Algorithm 1,
// and the common stopping options.
//
// Every search evaluates serially, one configuration at a time, on the
// calling thread: the paper counts search cost in evaluations, not wall
// time, so the EvalFn need not be thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "cloud/config.h"
#include "common/flat_map.h"

namespace kairos::search {

/// Expensive throughput evaluation of one configuration (queries/sec).
using EvalFn = std::function<double(const cloud::Config&)>;

/// One recorded evaluation.
struct EvalRecord {
  cloud::Config config;
  double qps = 0.0;
};

/// Outcome common to all search algorithms.
struct SearchResult {
  cloud::Config best_config;
  double best_qps = 0.0;
  std::size_t evals = 0;  ///< unique configurations evaluated
  std::vector<EvalRecord> history;  ///< in evaluation order
};

/// Stopping rules shared by the searches.
struct SearchOptions {
  /// Stop once best-so-far reaches this throughput (0 disables). Fig. 10/11
  /// set this to the known optimum to measure "evaluations to optimal".
  double target_qps = 0.0;

  /// Hard cap on unique evaluations.
  std::size_t max_evals = std::numeric_limits<std::size_t>::max();

  /// Apply Algorithm 1's sub-configuration pruning after each evaluation
  /// (the paper grants this to the competing algorithms too, Sec. 8.3).
  bool subconfig_pruning = true;

  std::uint64_t seed = 1;
};

/// Memoizes and counts evaluations. Re-evaluating a config is free and does
/// not increment the count (matching how the paper counts evaluations).
class CountingEvaluator {
 public:
  explicit CountingEvaluator(EvalFn fn);

  /// Evaluates (or recalls) a config's throughput.
  double operator()(const cloud::Config& config);

  std::size_t evals() const { return history_.size(); }
  const std::vector<EvalRecord>& history() const { return history_; }
  double best_qps() const { return best_qps_; }
  const cloud::Config& best_config() const { return best_config_; }

  /// Folds the counters into a SearchResult.
  SearchResult ToResult() const;

 private:
  EvalFn fn_;
  /// Open-addressing memo keyed by the 64-bit config fingerprint, probed
  /// with the fingerprint computed once per lookup — this map is the
  /// per-evaluation overhead every Fig. 10/11 search pays.
  FlatHashMap<cloud::Config, double> memo_;
  std::vector<EvalRecord> history_;
  double best_qps_ = 0.0;
  cloud::Config best_config_;
};

/// Candidate set supporting the two pruning rules of Algorithm 1.
class CandidatePool {
 public:
  explicit CandidatePool(std::vector<cloud::Config> configs);

  bool Contains(const cloud::Config& c) const;
  void Remove(const cloud::Config& c);

  /// Prunes every strict sub-configuration of `c` (they cannot beat it:
  /// throughput is monotone under adding instances).
  void RemoveSubConfigsOf(const cloud::Config& c);

  /// Prunes candidates failing the predicate (e.g. UB <= best-so-far).
  void RemoveIf(const std::function<bool(const cloud::Config&)>& should_remove);

  std::size_t size() const { return alive_count_; }
  bool empty() const { return alive_count_ == 0; }

  /// Snapshot of remaining candidates (enumeration order preserved).
  std::vector<cloud::Config> Remaining() const;

 private:
  std::vector<cloud::Config> configs_;
  std::vector<bool> alive_;
  std::map<cloud::Config, std::size_t> index_;
  std::size_t alive_count_ = 0;
};

}  // namespace kairos::search

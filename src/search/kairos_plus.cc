#include "search/kairos_plus.h"

#include <algorithm>

namespace kairos::search {

SearchResult KairosPlusSearch(const std::vector<ub::RankedConfig>& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options) {
  CountingEvaluator evaluator(eval);
  for (const ub::RankedConfig& rc : ranked) {
    if (evaluator.evals() >= options.max_evals) break;
    // Upper-bound pruning: nothing bounded at or below the best observed
    // throughput can become the new best, and `ranked` is sorted by bound,
    // so the first such entry ends the walk.
    if (evaluator.evals() > 0 && rc.upper_bound <= evaluator.best_qps()) {
      break;
    }
    // Sub-configuration pruning: adding instances never lowers throughput,
    // so a strict sub-configuration of a measured config cannot beat it.
    const auto& history = evaluator.history();
    if (options.subconfig_pruning &&
        std::any_of(history.begin(), history.end(),
                    [&](const EvalRecord& r) {
                      return rc.config.IsSubConfigOf(r.config);
                    })) {
      continue;
    }
    const double qps = evaluator(rc.config);
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search

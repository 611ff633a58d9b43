#include "search/kairos_plus.h"

#include <algorithm>

namespace kairos::search {

SearchResult KairosPlusSearch(const ub::RankedView& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options) {
  CountingEvaluator evaluator(eval);
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    if (evaluator.evals() >= options.max_evals) break;
    // Upper-bound pruning: nothing bounded at or below the best observed
    // throughput can become the new best, and `ranked` is sorted by bound,
    // so the first such entry ends the walk.
    if (evaluator.evals() > 0 && ranked.bound(r) <= evaluator.best_qps()) {
      break;
    }
    const cloud::Config config = ranked.config(r);
    // Sub-configuration pruning: adding instances never lowers throughput,
    // so a strict sub-configuration of a measured config cannot beat it.
    const auto& history = evaluator.history();
    if (options.subconfig_pruning &&
        std::any_of(history.begin(), history.end(),
                    [&](const EvalRecord& rec) {
                      return config.IsSubConfigOf(rec.config);
                    })) {
      continue;
    }
    const double qps = evaluator(config);
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search

// Kairos+ (Algorithm 1): upper-bound-assisted online search. Walks the
// configurations once, in descending upper-bound order, evaluating each
// in turn; it (a) stops at the first candidate whose upper bound cannot
// beat the best throughput seen so far, and (b) skips every strict
// sub-configuration of an evaluated config. When the walk ends on its
// own, the best evaluated configuration is the optimum, assuming the
// upper bounds are valid.
#pragma once

#include "search/search.h"
#include "ub/selector.h"

namespace kairos::search {

/// Runs Algorithm 1 over a ranked candidate list. Precondition: `ranked`
/// is in non-increasing `upper_bound` order, as ub::RankByUpperBound
/// produces it; the bound cutoff relies on it.
SearchResult KairosPlusSearch(const std::vector<ub::RankedConfig>& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options = {});

}  // namespace kairos::search

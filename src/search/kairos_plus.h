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

/// Runs Algorithm 1 over candidates in rank order: a ub::RankedTable
/// straight from a walk of the space, or a ub::RankedList over
/// ub::RankByUpperBound's output. The bound cutoff relies on the order.
/// Only the ranks the walk reaches are read and materialized.
SearchResult KairosPlusSearch(const ub::RankedView& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options = {});

}  // namespace kairos::search

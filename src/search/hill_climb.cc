#include "search/hill_climb.h"

#include <limits>
#include <map>
#include <stdexcept>

namespace kairos::search {

HillClimbResult HillClimb(const std::vector<int>& grid,
                          const std::function<double(int)>& eval) {
  if (grid.empty()) throw std::invalid_argument("HillClimb: empty grid");
  HillClimbResult result;
  std::map<std::size_t, double> memo;
  auto probe = [&](std::size_t idx) {
    if (auto it = memo.find(idx); it != memo.end()) return it->second;
    const double v = eval(grid[idx]);
    memo.emplace(idx, v);
    ++result.evals;
    if (v > result.best_value || memo.size() == 1) {
      result.best_value = v;
      result.best_index = idx;
    }
    return v;
  };

  std::size_t pos = grid.size() / 2;
  double here = probe(pos);
  while (true) {
    // A missing neighbour must lose to any value, negative ones included.
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    double left = pos > 0 ? probe(pos - 1) : kNone;
    double right = pos + 1 < grid.size() ? probe(pos + 1) : kNone;
    if (left > here && left >= right) {
      --pos;
      here = left;
    } else if (right > here) {
      ++pos;
      here = right;
    } else {
      break;  // local maximum
    }
  }
  return result;
}

std::vector<int> DefaultThresholdGrid() {
  return {25, 50, 100, 150, 200, 300, 400, 500, 650, 800};
}

}  // namespace kairos::search

#include "ops/hierarchy.h"

#include <algorithm>
#include <cmath>

#include "matrix/range_ops.h"
#include "util/check.h"

namespace ektelo {

std::size_t Hierarchy::TotalNodes() const {
  std::size_t total = 0;
  for (const auto& lvl : levels) total += lvl.size();
  return total;
}

Hierarchy BuildHierarchy(std::size_t n, std::size_t branch) {
  EK_CHECK_GT(n, 0u);
  EK_CHECK_GE(branch, 2u);
  Hierarchy h;
  h.n = n;
  h.branch = branch;
  h.levels.push_back({{0, n}});
  while (true) {
    const auto& cur = h.levels.back();
    std::vector<HierNode> next;
    std::vector<std::size_t> starts(cur.size() + 1, 0);
    bool any_split = false;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      starts[i] = next.size();
      const std::size_t len = cur[i].hi - cur[i].lo;
      if (len > 1) {
        any_split = true;
        // Split into up to `branch` near-equal parts.
        const std::size_t parts = std::min(branch, len);
        std::size_t pos = cur[i].lo;
        for (std::size_t p = 0; p < parts; ++p) {
          std::size_t sz = len / parts + (p < len % parts ? 1 : 0);
          next.push_back({pos, pos + sz});
          pos += sz;
        }
        EK_CHECK_EQ(pos, cur[i].hi);
      }
    }
    starts[cur.size()] = next.size();
    h.child_start.push_back(std::move(starts));
    if (!any_split) {
      h.child_start.pop_back();  // last level has no children
      break;
    }
    h.levels.push_back(std::move(next));
  }
  return h;
}

LinOpPtr HierarchyOp(const Hierarchy& h) {
  std::vector<Interval> ranges;
  ranges.reserve(h.TotalNodes());
  for (const auto& lvl : h.levels)
    for (const auto& node : lvl) ranges.push_back({node.lo, node.hi - 1});
  return MakeRangeSetOp(std::move(ranges), h.n);
}

std::size_t HbBranchingFactor(std::size_t n) {
  // Qardaji et al.: choose b minimizing (b-1) * h^3 with h = ceil(log_b n).
  std::size_t best_b = 2;
  double best_cost = 1e300;
  for (std::size_t b = 2; b <= 16; ++b) {
    double h = std::ceil(std::log(double(std::max<std::size_t>(n, 2))) /
                         std::log(double(b)));
    h = std::max(h, 1.0);
    double cost = double(b - 1) * h * h * h;
    if (cost < best_cost) {
      best_cost = cost;
      best_b = b;
    }
  }
  return best_b;
}

}  // namespace ektelo

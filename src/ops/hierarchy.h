// Hierarchical query strategies (H2, HB).  Their exact least-squares
// inference is the laminar tree solver of ops/tree_ls.h.
//
// A hierarchy over n cells is a complete b-ary tree of interval-sum
// queries: the root covers [0, n), each node's children split its interval
// into b parts, down to unit intervals.  The strategy matrix is encoded
// implicitly as Product(Sparse, Prefix) — two nonzeros per node — giving
// O(#nodes) storage and O(n + #nodes) mat-vecs.
#ifndef EKTELO_OPS_HIERARCHY_H_
#define EKTELO_OPS_HIERARCHY_H_

#include <cstddef>
#include <vector>

#include "matrix/linop.h"

namespace ektelo {

/// One node of the hierarchy: the half-open interval [lo, hi).
struct HierNode {
  std::size_t lo;
  std::size_t hi;
};

/// Tree structure: levels[0] is the root; children of levels[l][i] are
/// contiguous in levels[l+1] (child_start[l][i] .. child_start[l][i+1]).
struct Hierarchy {
  std::size_t n = 0;
  std::size_t branch = 2;
  std::vector<std::vector<HierNode>> levels;
  /// children index ranges per level (into the next level).
  std::vector<std::vector<std::size_t>> child_start;

  std::size_t TotalNodes() const;
};

/// Build the complete b-ary hierarchy over n cells (intervals of uneven
/// size when b does not divide evenly; recursion stops at singletons).
Hierarchy BuildHierarchy(std::size_t n, std::size_t branch);

/// The strategy matrix of a hierarchy (all nodes, all levels).
LinOpPtr HierarchyOp(const Hierarchy& h);

/// HB's optimized branching factor: argmin_b (b - 1) * height(b)^3, the
/// variance proxy from Qardaji et al. (PVLDB 2013).
std::size_t HbBranchingFactor(std::size_t n);

}  // namespace ektelo

#endif  // EKTELO_OPS_HIERARCHY_H_

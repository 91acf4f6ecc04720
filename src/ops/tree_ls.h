// Exact least squares for laminar measurement stacks: the generalized
// two-pass tree solver of Hay et al. (PVLDB 2010), which paper Sec. 10 /
// Fig. 5 compares against general-purpose iterative inference.
//
// A precision-weighted stack is *laminar* when every row is a positive
// multiple of a 0/1 indicator and any two row supports are nested or
// disjoint.  The distinct supports then form a forest, and least squares
// over it splits into two linear passes:
//
//   bottom-up  each node's best estimate of its own total from the rows
//              in its subtree, and that estimate's variance;
//   top-down   each node's final total split among its children in
//              proportion to their variances.
//
// Generalizations over the textbook uniform-noise hierarchy:
//   * every node carries its own precision (w^2 / sigma^2 summed over the
//     rows with its support), so per-level weights (Greedy-H) and mixed
//     epsilons (grids + total) are exact, and duplicate supports merge;
//   * nodes may have any fan-out, leaves may hold several cells, and the
//     cells of a node that no child covers form one unmeasured group.
//     Unmeasured groups absorb their node's surplus, spread uniformly over
//     their cells; cells outside every support stay 0.  That is the
//     minimum-norm least-squares solution — the point LSMR started from
//     x0 = 0 converges to.
//
// Recognition is structural, never densifying.  Supported operators:
// RangeSetOp, RectangleSetOp, IdentityOp, OnesOp (Total), SparseOp rows
// that are positive multiples of 0/1 indicators, RowWeightOp and ScaleOp
// with positive weights, VStackOp unions, Product(X, P) with P a
// partition reduction (a SparseOp with one unit entry per column) shared
// by the whole stack, and a single Kron(I.., X, I..) measurement, which
// is solved once per fiber.  Interval-only stacks are recognized in
// O(rows + n) by counting sorts and a stack scan.  Stacks with rectangles
// or explicit rows are painted onto the domain in O(sum of support
// sizes); when that exceeds a linear pass (a quadtree) the recognized
// forest is memoized in the OperatorCache under the unweighted stack's
// structural key.
#ifndef EKTELO_OPS_TREE_LS_H_
#define EKTELO_OPS_TREE_LS_H_

#include <optional>

#include "ops/measurement.h"

namespace ektelo {

/// The exact minimum-norm least-squares solution of mset's precision-
/// weighted stack (MeasurementSet::WeightedOp / WeightedY), or nullopt
/// when the stack is not laminar — callers then fall back to an
/// iterative solver.  Deterministic: no pool, fixed summation order.
std::optional<Vec> LaminarLeastSquares(const MeasurementSet& mset);

}  // namespace ektelo

#endif  // EKTELO_OPS_TREE_LS_H_

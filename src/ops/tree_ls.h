// Exact least squares: the solvers LeastSquaresInference (ops/inference.h)
// tries before LSMR.  Each returns the minimum-norm least-squares solution
// of the precision-weighted stack (MeasurementSet::WeightedOp/WeightedY),
// the point LSMR started from x0 = 0 converges to, or nullopt when it does
// not recognize the stack.  The dispatch is four-way, in this order:
//
//   1. LaminarLeastSquares     laminar stacks: the two-pass tree solve
//   2. OrthogonalLeastSquares  orthogonal rows: one transposed apply
//   3. RowSpaceLeastSquares    small non-laminar indicator stacks: a dense
//                              rank-revealing solve over their atoms
//   4. LSMR                    everything else (ops/inference.cc)
//
// All three are deterministic (no pool, fixed summation order) and
// recognize structurally, without densifying the stack.
//
// 1. Laminar: the generalized two-pass tree solver of Hay et al. (PVLDB
// 2010), which paper Sec. 10 / Fig. 5 compares against general-purpose
// iterative inference.  A stack is *laminar* when every row is a positive
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
//     their cells; cells outside every support stay 0.
//
// Supported operators: RangeSetOp, RectangleSetOp, IdentityOp, OnesOp
// (Total), SparseOp rows that are positive multiples of 0/1 indicators,
// RowWeightOp and ScaleOp with positive weights, VStackOp unions,
// Product(X, P) with P a partition reduction (a SparseOp with one unit
// entry per column) shared by the whole stack, and a single
// Kron(I.., X, I..) measurement, which is solved once per fiber.
// Interval-only stacks are recognized in O(rows + n) by counting sorts and
// a stack scan.  Stacks with rectangles or explicit rows are painted onto
// the domain in O(sum of support sizes); when that exceeds a linear pass
// (a quadtree) the recognized forest is memoized in the OperatorCache
// under the unweighted stack's structural key.
//
// 2. Orthogonal rows (Privelet): when A A^T = D is diagonal, x = A^T D^+ b.
// Recognized for one measurement built from WaveletOp (Haar rows are
// mutually orthogonal, with support sizes n, n, n/2, n/2, ..., 2) and
// IdentityOp by KroneckerOp, RowWeightOp and ScaleOp, weights of any sign
// (zero-weight rows drop out).  Privelet's Kron of per-dimension Haar
// wavelets is solved by one Haar synthesis per dimension (Xiao et al.,
// ICDE 2010).
//
// 3. Row space (Workload/WorkloadLS): the operators the laminar solver
// flattens (all but the per-fiber Kron), supports in any arrangement.  The minimum-norm x lies in the row
// space, so it is constant on each atom: a maximal unit set no support
// splits (at most 2m - 1 of them for m intervals).  With x = v_a on atom
// a's L_a cells and u_a = sqrt(L_a) v_a, the problem becomes a dense m x k
// minimum-norm problem in u, solved by a complete orthogonal decomposition
// (linalg/dense.h MinNormLeastSquares), so duplicate and dependent ranges
// are exact.  It runs only while that dense solve costs less than the
// LSMR run it replaces (see kDualCostRatio in tree_ls.cc).
//
// The same atoms serve the iterative inference operators (MW and NNLS in
// ops/inference.cc): AtomReduction hands them the stack as an operator
// over its atoms, plus the maps between cell vectors and per-atom values.
#ifndef EKTELO_OPS_TREE_LS_H_
#define EKTELO_OPS_TREE_LS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "matrix/lsmr.h"
#include "ops/measurement.h"

namespace ektelo {

/// The exact minimum-norm least-squares solution of mset's precision-
/// weighted stack (MeasurementSet::WeightedOp / WeightedY), or nullopt
/// when the stack is not laminar.
std::optional<Vec> LaminarLeastSquares(const MeasurementSet& mset);

/// The exact minimum-norm least-squares solution when the weighted
/// stack's rows are mutually orthogonal (A A^T diagonal): one
/// measurement built from Haar wavelets and identities by Kron, RowWeight
/// and Scale, weights of any sign.  x = A^T D^+ b, one transposed apply.
std::optional<Vec> OrthogonalLeastSquares(const MeasurementSet& mset);

/// The exact minimum-norm least-squares solution of a stack of positive
/// indicator multiples (the rows LaminarLeastSquares accepts, supports in
/// any arrangement) by a dense rank-revealing solve over the stack's
/// elementary atoms, or nullopt when the stack is not of that form or the
/// dense solve would cost more than the LSMR run `lsmr` describes.
std::optional<Vec> RowSpaceLeastSquares(const MeasurementSet& mset,
                                        const LsmrOptions& lsmr = {});

/// A stack of positive indicator multiples (the rows LaminarLeastSquares
/// accepts, supports in any arrangement) over its cell groups: the
/// elementary atoms, numbered by first unit, then one more group holding
/// the cells no row covers, when there are any.  Any function of the
/// stack's row answers is constant on every group, so an iterative solver
/// whose start is constant on every group can run on the groups alone.
class AtomReduction {
 public:
  /// The reduction of `stack`, or nullopt when some row is not a positive
  /// indicator multiple or finding the atoms would cost more than a pass
  /// over the rows and units (large rectangle sets).
  static std::optional<AtomReduction> Of(const LinOp& stack);

  std::size_t cells() const { return group_of_cell_.size(); }
  std::size_t groups() const { return length_.size(); }
  /// Cells per group.
  const Vec& lengths() const { return length_; }

  /// x's value on each group, or nullopt when x is not bitwise constant
  /// on every group.  O(cells).
  std::optional<Vec> Restrict(const Vec& x) const;
  /// The cell vector holding v[g] on every cell of group g.
  Vec Expand(const Vec& v) const;

  /// The stack as a rows x groups operator: row r is c_r times the sum of
  /// col_scale[g] u_g over its groups, c_r its indicator multiple; an
  /// empty col_scale means all 1.  O(rows + groups) per apply for interval
  /// supports.  The operator is not shared-owned, so solvers given it
  /// memoize nothing in the OperatorCache.
  std::unique_ptr<LinOp> Op(Vec col_scale = {}) const;

  /// The rows over the groups, shared with Op's operators and the
  /// row-space solve; opaque outside ops/tree_ls.cc, which builds them.
  struct Rows;
  AtomReduction(std::vector<uint32_t> group_of_cell, Vec length,
                std::shared_ptr<const Rows> rows)
      : group_of_cell_(std::move(group_of_cell)),
        length_(std::move(length)),
        rows_(std::move(rows)) {}
  const Rows& rows() const { return *rows_; }

 private:
  std::vector<uint32_t> group_of_cell_;
  Vec length_;
  std::shared_ptr<const Rows> rows_;
};

}  // namespace ektelo

#endif  // EKTELO_OPS_TREE_LS_H_

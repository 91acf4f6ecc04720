// Inference operators (paper Sec. 5.5, 7.6): derive a consistent estimate
// xhat of the data vector from all noisy measurements taken by a plan.
// All of these are Public operators — they never touch private data.
//
//  * LeastSquaresInference       — LS on the precision-weighted implicit
//                                  stack (the paper's workhorse).  It
//                                  dispatches by structure to the exact
//                                  solvers of ops/tree_ls.h, in order: a
//                                  laminar stack (hierarchies, grids,
//                                  partition-reduced strategies,
//                                  Kron(I, X, I) stripes) gets the two-pass
//                                  tree solve; orthogonal rows (Haar
//                                  wavelets, identities, their Kron
//                                  products) one transposed apply; a small
//                                  non-laminar indicator stack (workload
//                                  ranges) a dense row-space solve.  Any
//                                  other stack (signed rows, stacked
//                                  wavelets, large range sets) runs LSMR.
//                                  All return the minimum-norm solution.
//  * NnlsInference               — LS with x >= 0 (Definition 5.2).
//  * MultWeightsInference        — the multiplicative-weights update used
//                                  by MWEM (maximum-entropy flavored).
//  * DirectLeastSquaresInference — dense normal equations (the
//                                  "Dense+Direct" baseline of Fig. 5).
//
// NnlsInference and MultWeightsStep reduce before they iterate.  When the
// stack is one AtomReduction (ops/tree_ls.h) accepts (positive indicator
// multiples: ranges, rectangles, totals, partition groups) and the start
// is constant on each of its atoms (checked in O(n); NNLS without a start
// always qualifies), the loop runs over the k <= 2m + 1 atoms of m ranges,
// with the cells no row covers as one more group, and expands the result.
// MW keeps per-cell values and weights each total by atom length, so exp
// runs k times per iteration instead of n.  NNLS runs the unchanged Nnls
// on the stack over the atoms in u_a = sqrt(L_a) v_a, where the objective,
// ||x|| and each FISTA step of a given size are the cell problem's (the
// step size comes from a power iteration on the smaller operator).  Any
// other stack (signed rows, DenseOp) or start runs the cell loop.
#ifndef EKTELO_OPS_INFERENCE_H_
#define EKTELO_OPS_INFERENCE_H_

#include <cstddef>
#include <optional>

#include "matrix/lsmr.h"
#include "matrix/nnls.h"
#include "ops/measurement.h"

namespace ektelo {

/// Ordinary least squares over all measurements (Definition 5.1),
/// precision-weighted so unequal noise scales are handled correctly.
/// Exact when LaminarLeastSquares, OrthogonalLeastSquares or
/// RowSpaceLeastSquares (gated against an LSMR run with `opts`) accepts
/// the stack, tried in that order; otherwise LSMR with `opts`.  Callers
/// that must time or test LSMR itself call Lsmr on
/// MaybeRewrite(mset.WeightedOp()) directly.
Vec LeastSquaresInference(const MeasurementSet& mset,
                          const LsmrOptions& opts = {});

/// Non-negative least squares (Definition 5.2).  If known_total is given,
/// it is added as an (effectively exact) Total measurement — the
/// known-total side information used by MWEM variants (c)/(d).  Runs over
/// the stack's atoms when it can (see above); the answer then depends on
/// the measured rows only, not on how they are grouped into operators.
Vec NnlsInference(const MeasurementSet& mset,
                  std::optional<double> known_total = std::nullopt,
                  const NnlsOptions& opts = {});

struct MwOptions {
  std::size_t iterations = 60;
  /// Update damping (the 1/(2 total) factor uses this multiplier).
  double learning_rate = 1.0;
};

/// Multiplicative-weights inference: maintains a non-negative xhat with
/// sum == total and repeatedly reweights by exp of the query residuals.
/// `total` is the (public or separately estimated) record count.
Vec MultWeightsInference(const MeasurementSet& mset, double total,
                         const MwOptions& opts = {});

/// One multiplicative-weights step from a given starting estimate (MWEM's
/// incremental use).  Over atoms, it matches the cell loop to rounding,
/// and bitwise when every atom is one cell.
Vec MultWeightsStep(const MeasurementSet& mset, Vec xhat,
                    const MwOptions& opts = {});

/// Dense direct LS baseline (normal equations + Cholesky), O(n^3).
Vec DirectLeastSquaresInference(const MeasurementSet& mset);

/// LS via conjugate gradient on the normal equations — the alternative
/// iterative backend (see bench/ablation_inference for the comparison).
Vec CgLeastSquaresInference(const MeasurementSet& mset);

/// HR (Fig. 1): thresholding post-processor — zero out estimates whose
/// magnitude is below `threshold` (noise-floor suppression for sparse
/// data; a Public operator, free under post-processing).
Vec ThresholdingInference(Vec xhat, double threshold);

}  // namespace ektelo

#endif  // EKTELO_OPS_INFERENCE_H_

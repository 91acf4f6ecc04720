#include "matrix/cg.h"
#include "ops/inference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/dense.h"
#include "matrix/implicit_ops.h"
#include "matrix/rewrite.h"
#include "ops/tree_ls.h"
#include "util/check.h"

namespace ektelo {

Vec LeastSquaresInference(const MeasurementSet& mset,
                          const LsmrOptions& opts) {
  EK_CHECK(!mset.empty());
  // Exact solvers first, each returning the min-norm point LSMR from
  // x0 = 0 converges to, without iterating: laminar stacks (hierarchies,
  // grids, partition-reduced strategies), orthogonal rows (wavelets), then
  // small non-laminar indicator stacks (workload ranges) while a dense
  // solve costs less than the LSMR run it replaces.
  if (std::optional<Vec> exact = LaminarLeastSquares(mset))
    return *std::move(exact);
  if (std::optional<Vec> exact = OrthogonalLeastSquares(mset))
    return *std::move(exact);
  if (std::optional<Vec> exact = RowSpaceLeastSquares(mset, opts))
    return *std::move(exact);
  // Canonicalize the weighted stack before the iterative solve: merged
  // measurement unions and hoisted weights cut the per-iteration apply
  // cost without changing the represented matrix.
  LinOpPtr a = MaybeRewrite(mset.WeightedOp());
  Vec b = mset.WeightedY();
  return Lsmr(*a, b, opts).x;
}

Vec NnlsInference(const MeasurementSet& mset,
                  std::optional<double> known_total,
                  const NnlsOptions& opts) {
  EK_CHECK(!mset.empty());
  MeasurementSet augmented = mset;
  if (known_total.has_value()) {
    augmented.Add(MakeTotalOp(mset.Domain()), Vec{*known_total},
                  /*noise_scale=*/0.0);
  }
  // Deliberately NOT rewritten: when the system is underdetermined (early
  // MWEM rounds) the projected-gradient solver lands on a representation-
  // dependent point of the minimizer set, so an algebraically equivalent
  // but re-associated stack can move the answer by far more than
  // roundoff.  Callers that want the merged-union fast path build it
  // themselves (MwemLoopPlan), identically under both A/B toggles.
  LinOpPtr a = augmented.WeightedOp();
  Vec b = augmented.WeightedY();
  return Nnls(*a, b, opts).x;
}

Vec MultWeightsStep(const MeasurementSet& mset, Vec xhat,
                    const MwOptions& opts) {
  EK_CHECK(!mset.empty());
  const std::size_t n = mset.Domain();
  EK_CHECK_EQ(xhat.size(), n);
  double total = Sum(xhat);
  if (total <= 0.0) return xhat;
  LinOpPtr m = MaybeRewrite(mset.StackedOp());
  Vec y = mset.StackedY();
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    // g = 0.5 M^T (y - M xhat): increase cells under-counted by xhat.
    Vec res = m->Apply(xhat);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = y[i] - res[i];
    Vec g = m->ApplyT(res);
    double new_total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      // Clamp the exponent for numerical robustness on extreme residuals.
      double e = opts.learning_rate * 0.5 * g[j] / total;
      e = std::clamp(e, -30.0, 30.0);
      xhat[j] *= std::exp(e);
      new_total += xhat[j];
    }
    if (new_total <= 0.0) break;
    const double rescale = total / new_total;
    for (double& v : xhat) v *= rescale;
  }
  return xhat;
}

Vec MultWeightsInference(const MeasurementSet& mset, double total,
                         const MwOptions& opts) {
  EK_CHECK(!mset.empty());
  const std::size_t n = mset.Domain();
  EK_CHECK_GT(total, 0.0);
  Vec xhat(n, total / static_cast<double>(n));  // uniform start
  return MultWeightsStep(mset, std::move(xhat), opts);
}

Vec DirectLeastSquaresInference(const MeasurementSet& mset) {
  EK_CHECK(!mset.empty());
  // Assemble the n x n normal equations from the structured Gram operator
  // instead of densifying the (queries x n) measurement stack: the stack
  // is usually much taller than the domain, and Gram() materializes via
  // blocked identity panels when no closed form applies.
  LinOpPtr a = MaybeRewrite(mset.WeightedOp());
  // The n x n Gram of a given measurement union is a prime memo-cache
  // target: iterative plans and repeated executions re-derive structurally
  // identical stacks, and assembly dominates the solve.
  DenseMatrix gram = RewriteEnabled()
                         ? *OperatorCache::Global().GramDense(a)
                         : a->Gram()->MaterializeDense();
  Vec atb = a->ApplyT(mset.WeightedY());
  return SolveNormalEquations(std::move(gram), atb);
}

Vec CgLeastSquaresInference(const MeasurementSet& mset) {
  EK_CHECK(!mset.empty());
  LinOpPtr a = MaybeRewrite(mset.WeightedOp());
  Vec b = mset.WeightedY();
  return CgLeastSquares(*a, b).x;
}

Vec ThresholdingInference(Vec xhat, double threshold) {
  EK_CHECK_GE(threshold, 0.0);
  for (double& v : xhat)
    if (std::abs(v) < threshold) v = 0.0;
  return xhat;
}

}  // namespace ektelo

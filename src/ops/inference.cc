#include "matrix/cg.h"
#include "ops/inference.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "linalg/dense.h"
#include "matrix/implicit_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  // Not rewritten: when the system is underdetermined (early MWEM rounds)
  // the projected-gradient solver lands on a representation-dependent
  // point of the minimizer set.  An indicator stack is instead reduced to
  // its atoms, which depend on the rows alone, not on how they are
  // grouped into operators.
  LinOpPtr a = augmented.WeightedOp();
  Vec b = augmented.WeightedY();
  std::optional<AtomReduction> red = AtomReduction::Of(*a);
  std::optional<Vec> v0;
  if (red && !opts.x0.empty()) v0 = red->Restrict(opts.x0);
  if (!red || (!opts.x0.empty() && !v0)) return Nnls(*a, b, opts).x;
  // With x = v_g on group g's L_g cells and u_g = sqrt(L_g) v_g, the
  // objective, ||x|| and each FISTA step of a given size are those of the
  // cell problem.
  Vec root = red->lengths();
  for (double& l : root) l = std::sqrt(l);
  NnlsOptions reduced{.max_iters = opts.max_iters,
                      .tol = opts.tol,
                      .power_iters = opts.power_iters,
                      .x0 = {}};
  if (v0) {
    reduced.x0 = *std::move(v0);
    for (std::size_t g = 0; g < root.size(); ++g) reduced.x0[g] *= root[g];
  }
  std::unique_ptr<LinOp> op = red->Op(root);
  Vec u = Nnls(*op, b, reduced, red->cells()).x;
  for (std::size_t g = 0; g < root.size(); ++g) u[g] /= root[g];
  return red->Expand(u);
}

namespace {

obs::Histogram& MwSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call",
      "solver=\"mw\"");
  return h;
}

obs::Counter& MwIterations() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_solver_iterations", "Solver inner iterations run",
      "solver=\"mw\"");
  return c;
}

/// MW updates of the values v over the columns of m, column j standing
/// for len[j] cells holding v[j] each (len empty: one cell each), until
/// opts.iterations or the mass vanishes.  Returns the iterations run.
std::size_t MwIterate(const LinOp& m, const Vec& y, const Vec& len,
                      double total, const MwOptions& opts, Vec* v) {
  Vec& x = *v;
  Vec mass(len.empty() ? 0 : x.size());
  std::size_t it = 0;
  for (; it < opts.iterations; ++it) {
    // g = 0.5 M^T (y - M x): increase cells under-counted by x.
    for (std::size_t j = 0; j < mass.size(); ++j) mass[j] = len[j] * x[j];
    Vec res = m.Apply(len.empty() ? x : mass);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = y[i] - res[i];
    Vec g = m.ApplyT(res);
    double new_total = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      // Clamp the exponent for numerical robustness on extreme residuals.
      double e = opts.learning_rate * 0.5 * g[j] / total;
      e = std::clamp(e, -30.0, 30.0);
      x[j] *= std::exp(e);
      new_total += len.empty() ? x[j] : len[j] * x[j];
    }
    if (new_total <= 0.0) {
      ++it;
      break;
    }
    const double rescale = total / new_total;
    for (double& val : x) val *= rescale;
  }
  return it;
}

}  // namespace

Vec MultWeightsStep(const MeasurementSet& mset, Vec xhat,
                    const MwOptions& opts) {
  EK_CHECK(!mset.empty());
  const std::size_t n = mset.Domain();
  EK_CHECK_EQ(xhat.size(), n);
  double total = Sum(xhat);
  if (total <= 0.0) return xhat;
  obs::Span span("solver.mw", "solver", &MwSeconds());
  LinOpPtr stack = mset.StackedOp();
  Vec y = mset.StackedY();
  span.Attr("rows", static_cast<double>(y.size()));
  span.Attr("cols", static_cast<double>(n));
  // An indicator stack with xhat constant on its atoms keeps xhat so: the
  // update runs over the atoms, with exp once per atom.
  std::optional<AtomReduction> red = AtomReduction::Of(*stack);
  std::optional<Vec> v = red ? red->Restrict(xhat) : std::nullopt;
  std::size_t iterations = 0;
  if (v) {
    iterations = MwIterate(*red->Op(), y, red->lengths(), total, opts, &*v);
    xhat = red->Expand(*v);
  } else {
    iterations = MwIterate(*MaybeRewrite(stack), y, {}, total, opts, &xhat);
  }
  span.Attr("atoms", static_cast<double>(v ? red->groups() : n));
  span.Attr("iterations", static_cast<double>(iterations));
  MwIterations().Inc(iterations);
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

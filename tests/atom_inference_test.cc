// Atom-reduced iterative inference (ops/inference.h): MultWeightsStep and
// NnlsInference run over the atoms of an indicator stack when their start
// is constant on every atom, and over the cells otherwise.
//
//  * AtomReduction finds the atoms and the uncovered group, and its
//    operator is the stack restricted to them.
//  * MW over atoms equals the cell loop to 1e-10 relative, and bitwise
//    when every atom is one cell.
//  * Converged NNLS over atoms and over cells reach the same objective
//    and the same A x.
//  * A non-constant start, signed rows and dense operators run the cell
//    loop bit for bit.
//  * The MWEM variants give bitwise equal answers in the implicit and
//    sparse matrix modes.
//  * RangeSetOp::ApplyT equals the textbook difference array bitwise.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "kernel/kernel.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/nnls.h"
#include "matrix/partition.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "ops/inference.h"
#include "ops/tree_ls.h"
#include "plans/registry.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

bool BitwiseEqual(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The cell-space multiplicative-weights loop, as MultWeightsStep ran it
/// before the atom reduction: the reference for both paths.
Vec CellLoopMw(const MeasurementSet& mset, Vec xhat, const MwOptions& opts) {
  const double total = Sum(xhat);
  if (total <= 0.0) return xhat;
  LinOpPtr m = MaybeRewrite(mset.StackedOp());
  Vec y = mset.StackedY();
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    Vec res = m->Apply(xhat);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = y[i] - res[i];
    Vec g = m->ApplyT(res);
    double new_total = 0.0;
    for (std::size_t j = 0; j < xhat.size(); ++j) {
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

MeasurementSet WithTotal(const MeasurementSet& mset, double total) {
  MeasurementSet augmented = mset;
  augmented.Add(MakeTotalOp(mset.Domain()), Vec{total}, 0.0);
  return augmented;
}

/// NnlsInference's cell-space solve: Nnls on the unrewritten weighted
/// stack.
Vec CellNnls(const MeasurementSet& mset, double total,
             const NnlsOptions& opts) {
  const MeasurementSet augmented = WithTotal(mset, total);
  return Nnls(*augmented.WeightedOp(), augmented.WeightedY(), opts).x;
}

/// Noisy answers of `op` on a fixed positive data vector.
Vec Answers(const LinOp& op, Rng* rng) {
  Vec x(op.cols());
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = 20.0 * rng->Uniform();
  Vec y = op.Apply(x);
  for (double& v : y) v += 10.0 * (rng->Uniform() - 0.5);
  return y;
}

void AddMeasured(LinOpPtr op, double noise_scale, Rng* rng,
                 MeasurementSet* mset) {
  Vec y = Answers(*op, rng);
  mset->Add(std::move(op), std::move(y), noise_scale);
}

std::vector<Interval> RandomIntervals(std::size_t m, std::size_t n,
                                      Rng* rng) {
  std::vector<Interval> out;
  for (const RangeQuery& q : RandomRanges(m, n, 0, rng))
    out.push_back({q.lo, q.hi});
  return out;
}

void ExpectRelNear(const Vec& got, const Vec& want, double rel) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], rel * std::max(1.0, std::abs(want[i])))
        << i;
}

// ------------------------------------------------------------ reduction

TEST(AtomReductionTest, IntervalAtomsAndUncoveredGroup) {
  // [0,3] and [2,5] cut cells 0..5 into [0,1], [2,3], [4,5]; [2,3] adds
  // no cut; cells 6..9 form the uncovered group.
  LinOpPtr stack = MakeVStack(
      {MakeRangeSetOp({{0, 3}, {2, 5}}, 10), MakeRangeSetOp({{2, 3}}, 10)});
  std::optional<AtomReduction> red = AtomReduction::Of(*stack);
  ASSERT_TRUE(red.has_value());
  EXPECT_EQ(red->cells(), 10u);
  ASSERT_EQ(red->groups(), 4u);
  EXPECT_EQ(red->lengths(), (Vec{2, 2, 2, 4}));
  const DenseMatrix b = red->Op()->MaterializeDense();
  const double want[3][4] = {{1, 1, 0, 0}, {0, 1, 1, 0}, {0, 1, 0, 0}};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t g = 0; g < 4; ++g)
      EXPECT_EQ(b.RowPtr(r)[g], want[r][g]) << r << "," << g;

  const Vec v = {1.5, -2.0, 0.25, 7.0};
  const Vec x = red->Expand(v);
  EXPECT_EQ(x, (Vec{1.5, 1.5, -2, -2, 0.25, 0.25, 7, 7, 7, 7}));
  std::optional<Vec> back = red->Restrict(x);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
  Vec split = x;
  split[9] = 7.5;  // the uncovered group is no longer constant
  EXPECT_FALSE(red->Restrict(split).has_value());
  split = x;
  split[1] = -1.5;  // neither is a sign flip within an atom
  EXPECT_FALSE(red->Restrict(split).has_value());
}

TEST(AtomReductionTest, OperatorIsTheStackOverItsAtoms) {
  // For x = Expand(v): A x = Op(lengths) v, and A^T z is Op()^T z on
  // every cell of each group.  Intervals with weights, painted
  // rectangles, explicit rows and a partition reduction.
  Rng rng(3);
  std::vector<Triplet> t = {{0, 1, 2.0}, {0, 5, 2.0}, {0, 9, 2.0},
                            {1, 5, 1.0}, {1, 6, 1.0}, {2, 0, 0.5},
                            {2, 9, 0.5}, {2, 11, 0.5}};
  const Partition p = Partition::FromIntervals({0, 3, 4, 10, 17, 18}, 24);
  const std::vector<LinOpPtr> stacks = {
      MakeVStack({MakeScaled(MakeRangeSetOp(RandomIntervals(9, 40, &rng), 40),
                             3.0),
                  MakeRowWeight(MakeRangeSetOp({{0, 39}, {5, 5}}, 40),
                                Vec{0.5, 2.0}),
                  MakeTotalOp(40)}),
      MakeRectangleSetOp({{0, 3, 1, 4}, {2, 5, 0, 2}, {1, 4, 2, 6}}, 6, 7),
      MakeSparse(CsrMatrix::FromTriplets(3, 12, std::move(t))),
      MakeProduct(MakeRangeSetOp({{0, 3}, {2, 5}, {1, 2}}, 6), p.ReduceOp()),
  };
  for (std::size_t k = 0; k < stacks.size(); ++k) {
    SCOPED_TRACE("stack " + std::to_string(k));
    const LinOp& a = *stacks[k];
    std::optional<AtomReduction> red = AtomReduction::Of(a);
    ASSERT_TRUE(red.has_value());
    EXPECT_LT(red->groups(), a.cols());
    Vec v(red->groups()), z(a.rows());
    for (double& e : v) e = rng.Uniform() - 0.3;
    for (double& e : z) e = rng.Uniform() - 0.3;
    ExpectRelNear(red->Op(red->lengths())->Apply(v), a.Apply(red->Expand(v)),
                  1e-12);
    const Vec atz = a.ApplyT(z);
    const Vec btz = red->Op()->ApplyT(z);
    ExpectRelNear(red->Expand(btz), atz, 1e-12);
  }
}

TEST(AtomReductionTest, RejectsSignedDenseAndCostlyStacks) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, -1.0}, {1, 2, 1.0}};
  EXPECT_FALSE(AtomReduction::Of(
                   *MakeSparse(CsrMatrix::FromTriplets(2, 4, std::move(t))))
                   .has_value());
  LinOpPtr ranges = MakeRangeSetOp({{0, 3}, {2, 5}}, 8);
  EXPECT_FALSE(
      AtomReduction::Of(*MakeDense(ranges->MaterializeDense())).has_value());
  EXPECT_FALSE(
      AtomReduction::Of(*MakeRowWeight(ranges, Vec{1.0, -1.0})).has_value());
  // Painting 20 overlapping 7x7 rectangles costs more than a pass over
  // the rows and the 64 cells.
  EXPECT_FALSE(AtomReduction::Of(*MakeRectangleSetOp(
                                     std::vector<Rectangle>(20, {0, 6, 0, 6}),
                                     8, 8))
                   .has_value());
}

// ------------------------------------------------------------------- MW

TEST(AtomMwTest, MatchesCellLoopOverMwemRounds) {
  // MWEM's use: one measurement per round, each step warm-started from
  // the last.  The atoms shrink the loop; the answers stay within 1e-10.
  Rng rng(5);
  const std::size_t n = 300;
  const double total = 3000.0;
  MeasurementSet mset;
  Vec atom(n, total / double(n)), cell = atom;
  for (std::size_t round = 1; round <= 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    AddMeasured(MakeRangeSetOp(RandomIntervals(1 + round % 3, n, &rng), n),
                4.0, &rng, &mset);
    const std::optional<AtomReduction> red =
        AtomReduction::Of(*mset.StackedOp());
    ASSERT_TRUE(red.has_value());
    EXPECT_LT(red->groups(), n / 4);
    atom = MultWeightsStep(mset, std::move(atom), {.iterations = 40});
    cell = CellLoopMw(mset, std::move(cell), {.iterations = 40});
    ExpectRelNear(atom, cell, 1e-10);
  }
}

TEST(AtomMwTest, BitwiseWhenEveryAtomIsOneCell) {
  // Singletons on every cell plus overlapping ranges: n atoms of length
  // 1, all covered, so the atom loop does the cell loop's arithmetic.
  Rng rng(6);
  const std::size_t n = 64;
  std::vector<Interval> ranges = RandomIntervals(12, n, &rng);
  for (std::size_t j = 0; j < n; ++j) ranges.push_back({j, j});
  MeasurementSet mset;
  AddMeasured(MakeRangeSetOp(ranges, n), 2.0, &rng, &mset);
  ASSERT_EQ(AtomReduction::Of(*mset.StackedOp())->groups(), n);
  const Vec x0(n, 12.5);
  const Vec atom = MultWeightsStep(mset, x0, {.iterations = 30});
  const Vec cell = CellLoopMw(mset, x0, {.iterations = 30});
  EXPECT_TRUE(BitwiseEqual(atom, cell));
}

// ----------------------------------------------------------------- NNLS

double Objective(const MeasurementSet& weighted, const Vec& x) {
  Vec r = weighted.WeightedOp()->Apply(x);
  const Vec b = weighted.WeightedY();
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  return 0.5 * Dot(r, r);
}

TEST(AtomNnlsTest, ConvergedAtomAndCellRunsAgree) {
  // Six overlapping ranges over six equal atoms, measured three times at
  // different noise scales, plus the known total: more rows than atoms
  // and a well-conditioned Gram.  Both runs then stop at the minimum, to
  // within FISTA's floor (it cannot see a decrease below the rounding of
  // its objective), where the objective and A x are unique whichever
  // parametrization FISTA ran in.  Cold and warm (uniform) starts.
  Rng rng(7);
  const std::size_t n = 240;
  const double total = 240.0;
  const LinOpPtr ranges = MakeRangeSetOp(
      {{0, 59}, {60, 119}, {120, 179}, {0, 119}, {60, 179}, {30, 89}}, n);
  MeasurementSet mset;
  for (double noise_scale : {3.0, 1.0, 2.0}) {
    Vec y = ranges->Apply(Vec(n, 1.0));
    for (double& v : y) v += 40.0 * (rng.Uniform() - 0.5);
    mset.Add(ranges, std::move(y), noise_scale);
  }
  const MeasurementSet augmented = WithTotal(mset, total);
  ASSERT_EQ(AtomReduction::Of(*augmented.WeightedOp())->groups(), 6u);
  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    const NnlsOptions opts{.max_iters = 20000,
                           .tol = 1e-13,
                           .power_iters = 30,
                           .x0 = warm ? Vec(n, total / double(n)) : Vec{}};
    const Vec atom = NnlsInference(mset, total, opts);
    const Vec cell = CellNnls(mset, total, opts);
    for (double v : atom) EXPECT_GE(v, 0.0);
    const double f_atom = Objective(augmented, atom);
    const double f_cell = Objective(augmented, cell);
    EXPECT_NEAR(f_atom, f_cell, 1e-9 * f_cell);
    const Vec ax_cell = augmented.WeightedOp()->Apply(cell);
    Vec diff = augmented.WeightedOp()->Apply(atom);
    for (std::size_t i = 0; i < diff.size(); ++i) diff[i] -= ax_cell[i];
    EXPECT_LE(Norm2(diff), 1e-6 * Norm2(ax_cell));
  }
}

// ------------------------------------------------------------- fallback

TEST(AtomFallbackTest, OtherStacksAndStartsRunTheCellLoopBitwise) {
  Rng rng(8);
  const std::size_t n = 48;
  const double total = 600.0;
  LinOpPtr ranges = MakeRangeSetOp(RandomIntervals(7, n, &rng), n);
  std::vector<Triplet> t;
  for (std::size_t j = 0; j < n; ++j) {
    t.push_back({0, j, j % 5 == 0 ? -1.0 : 1.0});
    if (j >= 10 && j < 30) t.push_back({1, j, 1.0});
  }
  const LinOpPtr signed_rows =
      MakeSparse(CsrMatrix::FromTriplets(2, n, std::move(t)));
  const LinOpPtr dense = MakeDense(ranges->MaterializeDense());

  Vec uniform(n, total / double(n)), varied(n);
  for (std::size_t j = 0; j < n; ++j) varied[j] = 5.0 + double(j % 7);
  struct Case {
    const char* name;
    LinOpPtr op;
    const Vec* x0;
  };
  const Case cases[] = {
      {"non-constant start", ranges, &varied},
      {"signed rows", signed_rows, &uniform},
      {"dense operator", dense, &uniform},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MeasurementSet mset;
    AddMeasured(c.op, 2.0, &rng, &mset);
    EXPECT_TRUE(BitwiseEqual(MultWeightsStep(mset, *c.x0, {.iterations = 25}),
                             CellLoopMw(mset, *c.x0, {.iterations = 25})));
    const NnlsOptions opts{
        .max_iters = 200, .tol = 1e-8, .power_iters = 30, .x0 = *c.x0};
    EXPECT_TRUE(BitwiseEqual(NnlsInference(mset, total, opts),
                             CellNnls(mset, total, opts)));
  }
}

// ---------------------------------------------------------------- plans

TEST(AtomMwemTest, VariantsBitwiseEqualInImplicitAndSparseModes) {
  // The atoms depend on the measured rows alone, so the RangeSetOp and
  // materialized CSR forms of each round's queries give the same answer.
  for (const char* name :
       {"MWEM", "MWEM variant b", "MWEM variant c", "MWEM variant d"}) {
    SCOPED_TRACE(name);
    Vec out[2];
    int k = 0;
    for (MatrixMode mode : {MatrixMode::kImplicit, MatrixMode::kSparse}) {
      Rng rng(9);
      const std::size_t n = 256;
      Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n, 1e4, &rng);
      ProtectedKernel kernel(TableFromHistogram(hist, "v"), 0.5, 77);
      ProtectedTable root = ProtectedTable::Root(&kernel);
      auto x = root.Vectorize();
      ASSERT_TRUE(x.ok());
      BudgetScope scope(0.5);
      PlanInput in;
      in.dims = {n};
      in.mode = mode;
      in.ranges = RandomRanges(24, n, 0, &rng);
      in.known_total = Sum(hist);
      StatusOr<Vec> xhat =
          PlanRegistry::Global().MustFind(name).Execute(*x, scope, in);
      ASSERT_TRUE(xhat.ok()) << xhat.status().ToString();
      out[k++] = *xhat;
    }
    EXPECT_TRUE(BitwiseEqual(out[0], out[1]));
  }
}

// ------------------------------------------------------------ RangeSetOp

TEST(RangeSetOpTest, ApplyTEqualsDifferenceArrayBitwise) {
  Rng rng(12);
  const std::size_t n = 97;
  std::vector<Interval> ranges = RandomIntervals(40, n, &rng);
  ranges.push_back({0, n - 1});
  ranges.push_back({n - 1, n - 1});
  const RangeSetOp op(ranges, n);
  Vec z(ranges.size());
  for (double& v : z) v = rng.Uniform() - 0.5;
  Vec diff(n + 1, 0.0), want(n);
  for (std::size_t q = 0; q < ranges.size(); ++q) {
    diff[ranges[q].lo] += z[q];
    diff[ranges[q].hi + 1] -= z[q];
  }
  double run = 0.0;
  for (std::size_t i = 0; i < n; ++i) want[i] = run += diff[i];
  EXPECT_TRUE(BitwiseEqual(op.ApplyT(z), want));
}

}  // namespace
}  // namespace ektelo

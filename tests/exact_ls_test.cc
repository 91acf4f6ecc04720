// The exact least-squares solvers (ops/tree_ls.h) and their dispatch from
// LeastSquaresInference.
//
//  * Each solver equals the dense minimum-norm LS solution (the
//    pseudo-inverse of the weighted stack, via a long-double one-sided
//    Jacobi SVD) on every shape it accepts: the laminar and orthogonal-row
//    solvers to 1e-12 relative error, the row-space (dual) solver to 1e-10.
//  * Stacks none of them accepts fall through to LSMR, bit for bit.
//  * None of the 18 catalog plan cases runs an LSMR solve: each is counted
//    on the exact solver it is expected to take.
//  * Plan results are bitwise equal with a 0-worker and a 4-worker pool.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "matrix/partition.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "ops/selection.h"
#include "ops/tree_ls.h"
#include "plans/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

/// Minimum-norm solution of min ||A x - b|| by one-sided Jacobi SVD in
/// long double.  Jacobi orthogonalizes the columns of A, or of A^T when A
/// is wide (fewer, shorter columns): G V = U with G = A or A^T, then
///   G = A:    x = sum_j v_j (u_j . b) / |u_j|^2
///   G = A^T:  x = sum_j u_j (v_j . b) / |u_j|^2
/// over the numerically nonzero u_j.  Independent of the solvers under test.
Vec DenseMinNorm(const DenseMatrix& a, const Vec& b) {
  using LD = long double;
  const bool wide = a.rows() < a.cols();
  const std::size_t m = wide ? a.cols() : a.rows();  // G is m x n
  const std::size_t n = wide ? a.rows() : a.cols();
  std::vector<LD> u(m * n), v(n * n, 0.0L);  // column-major
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i)
      u[j * m + i] = wide ? a.RowPtr(j)[i] : a.RowPtr(i)[j];
    v[j * n + j] = 1.0L;
  }
  auto rotate = [](std::vector<LD>& w, std::size_t len, std::size_t p,
                   std::size_t q, LD c, LD s) {
    for (std::size_t i = 0; i < len; ++i) {
      const LD wp = w[p * len + i], wq = w[q * len + i];
      w[p * len + i] = c * wp - s * wq;
      w[q * len + i] = s * wp + c * wq;
    }
  };
  for (int sweep = 0; sweep < 100; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) {
        LD alpha = 0, beta = 0, gamma = 0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += u[p * m + i] * u[p * m + i];
          beta += u[q * m + i] * u[q * m + i];
          gamma += u[p * m + i] * u[q * m + i];
        }
        if (gamma == 0 ||
            std::fabs(gamma) <= 1e-18L * std::sqrt(alpha * beta))
          continue;
        rotated = true;
        const LD zeta = (beta - alpha) / (2 * gamma);
        const LD t = (zeta >= 0 ? 1 : -1) /
                     (std::fabs(zeta) + std::sqrt(1 + zeta * zeta));
        const LD c = 1 / std::sqrt(1 + t * t), s = c * t;
        rotate(u, m, p, q, c, s);
        rotate(v, n, p, q, c, s);
      }
    if (!rotated) break;
  }
  std::vector<LD> norm2(n, 0.0L);
  LD max_norm2 = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i)
      norm2[j] += u[j * m + i] * u[j * m + i];
    max_norm2 = std::max(max_norm2, norm2[j]);
  }
  std::vector<LD> x(a.cols(), 0.0L);
  for (std::size_t j = 0; j < n; ++j) {
    if (norm2[j] <= 1e-20L * max_norm2) continue;  // null direction
    const LD* in = wide ? &v[j * n] : &u[j * m];
    const LD* out = wide ? &u[j * m] : &v[j * n];
    LD dot = 0;
    for (std::size_t i = 0; i < b.size(); ++i) dot += in[i] * b[i];
    for (std::size_t k = 0; k < x.size(); ++k)
      x[k] += out[k] * dot / norm2[j];
  }
  return Vec(x.begin(), x.end());
}

/// Noisy answers y = M x + Lap for each (op, noise scale), added to a set.
MeasurementSet Measure(const std::vector<std::pair<LinOpPtr, double>>& ms,
                       Rng* rng) {
  const std::size_t n = ms[0].first->cols();
  Vec x(n);
  for (double& v : x) v = std::floor(rng->Uniform(0.0, 40.0));
  MeasurementSet mset;
  for (const auto& [op, scale] : ms) {
    Vec y = op->Apply(x);
    for (double& v : y) v += rng->Laplace(scale > 0.0 ? scale : 1e-3);
    mset.Add(op, std::move(y), scale);
  }
  return mset;
}

using ExactSolver = std::optional<Vec> (*)(const MeasurementSet&);

std::optional<Vec> RowSpace(const MeasurementSet& mset) {
  return RowSpaceLeastSquares(mset);
}

/// `solve` accepts the stack, and its answer equals the dense pseudo-
/// inverse solution of the weighted stack to `tol` relative error.
void ExpectExact(const MeasurementSet& mset,
                 ExactSolver solve = LaminarLeastSquares,
                 double tol = 1e-12) {
  std::optional<Vec> x = solve(mset);
  ASSERT_TRUE(x.has_value()) << "stack not recognized";
  const Vec ref =
      DenseMinNorm(mset.WeightedOp()->MaterializeDense(), mset.WeightedY());
  ASSERT_EQ(x->size(), ref.size());
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff += ((*x)[i] - ref[i]) * ((*x)[i] - ref[i]);
    norm += ref[i] * ref[i];
  }
  EXPECT_LE(std::sqrt(diff), tol * std::sqrt(norm));
  // The dispatch returns exactly this solver's answer.
  const Vec dispatched = LeastSquaresInference(mset);
  EXPECT_EQ(std::memcmp(dispatched.data(), x->data(),
                        x->size() * sizeof(double)),
            0);
}

/// A b-ary hierarchy with one positive weight per level.
LinOpPtr WeightedHierarchy(std::size_t n, std::size_t b, Rng* rng) {
  Hierarchy h = BuildHierarchy(n, b);
  Vec w;
  for (const auto& level : h.levels)
    w.insert(w.end(), level.size(), rng->Uniform(0.5, 3.0));
  return MakeRowWeight(HierarchyOp(h), std::move(w));
}

TEST(ExactLsTest, WeightedHierarchiesWithUnevenDomains) {
  Rng rng(1);
  for (std::size_t b : {2u, 3u, 5u}) {
    for (std::size_t n : {7u, 23u, 30u}) {
      SCOPED_TRACE("b=" + std::to_string(b) + " n=" + std::to_string(n));
      ExpectExact(Measure({{WeightedHierarchy(n, b, &rng), 2.0}}, &rng));
    }
  }
  // Greedy-H's workload-driven level weights.
  auto ranges = RandomRanges(12, 29, 10, &rng);
  ExpectExact(Measure({{GreedyHSelect(ranges, 29), 4.0}}, &rng));
}

TEST(ExactLsTest, QuadtreeOnNonSquareGrid) {
  Rng rng(2);
  ExpectExact(Measure({{QuadtreeSelect(5, 7), 1.0}}, &rng));
  ExpectExact(Measure({{QuadtreeSelect(9, 4), 3.0}}, &rng));
}

TEST(ExactLsTest, MemoizedQuadtreeReproducesBitwise) {
  // A deep rectangle family costs more than a linear pass to paint, so
  // its forest is memoized; the hit must reproduce the miss bitwise.
  Rng rng(3);
  MeasurementSet mset = Measure({{QuadtreeSelect(16, 12), 1.5}}, &rng);
  const std::size_t hits = OperatorCache::Global().stats().hits;
  std::optional<Vec> first = LaminarLeastSquares(mset);
  std::optional<Vec> second = LaminarLeastSquares(mset);
  ASSERT_TRUE(first.has_value() && second.has_value());
  if (RewriteEnabled()) {
    EXPECT_GT(OperatorCache::Global().stats().hits, hits);
  }
  EXPECT_EQ(std::memcmp(first->data(), second->data(),
                        first->size() * sizeof(double)),
            0);
  ExpectExact(mset);
}

TEST(ExactLsTest, KronStripesSolvedPerFiber) {
  Rng rng(4);
  for (std::size_t stripe : {0u, 1u}) {
    SCOPED_TRACE("stripe_dim=" + std::to_string(stripe));
    ExpectExact(Measure({{StripeKronSelect({6, 5}, stripe), 2.0}}, &rng));
  }
  // Identity factors on both sides, and a scaled Kron.
  ExpectExact(Measure({{StripeKronSelect({3, 5, 2}, 1), 1.0}}, &rng));
  ExpectExact(
      Measure({{MakeScaled(StripeKronSelect({4, 7}, 1), 0.5), 1.0}}, &rng));
}

TEST(ExactLsTest, TotalGridAndSparseBlocks) {
  // AdaptiveGrid's shape: Total, a coarse grid, and level-2 indicator
  // rows that refine some blocks fully (block 3, one sub-block not a
  // rectangle) and others partly (block 0 keeps uncovered cells), plus an
  // exact (scale 0) copy of the total.
  Rng rng(5);
  const std::size_t nx = 6, ny = 8, n = nx * ny;
  auto cell = [&](std::size_t i, std::size_t j) { return i * ny + j; };
  std::vector<std::vector<std::size_t>> sub = {
      {cell(0, 0), cell(0, 1)},
      {cell(1, 0), cell(1, 1), cell(2, 0)},
      {cell(3, 4), cell(3, 5), cell(4, 4)},
      {cell(3, 6), cell(3, 7), cell(4, 5), cell(4, 6), cell(4, 7),
       cell(5, 4), cell(5, 5), cell(5, 6), cell(5, 7)}};
  std::vector<Triplet> t;
  for (std::size_t r = 0; r < sub.size(); ++r)
    for (std::size_t c : sub[r]) t.push_back({r, c, 1.0});
  auto level2 =
      MakeSparse(CsrMatrix::FromTriplets(sub.size(), n, std::move(t)));
  ExpectExact(Measure({{MakeTotalOp(n), 3.0},
                       {GridCellsSelect(nx, ny, 2, 2), 1.0},
                       {level2, 0.5},
                       {MakeTotalOp(n), 0.0}},
                      &rng));
}

TEST(ExactLsTest, GreedyHOnIntervalPartition) {
  // DAWA's shape: Product(GreedyH over groups, interval ReduceOp).
  Rng rng(6);
  const std::size_t n = 40;
  Partition p = Partition::FromIntervals({0, 3, 4, 10, 17, 18, 25, 33}, n);
  auto ranges = RandomRanges(10, p.num_groups(), 4, &rng);
  auto strategy = GreedyHSelect(ranges, p.num_groups());
  ExpectExact(Measure({{MakeProduct(strategy, p.ReduceOp()), 2.0}}, &rng));
}

TEST(ExactLsTest, IdentityOnGroups) {
  // AHP's shape: Product(Identity(p), ReduceOp) for scattered groups.
  Rng rng(7);
  const std::size_t n = 30, groups = 5;
  std::vector<uint32_t> group_of(n);
  for (std::size_t c = 0; c < n; ++c)
    group_of[c] = uint32_t((c * 7) % groups);
  Partition p(group_of, groups);
  ExpectExact(Measure(
      {{MakeProduct(MakeIdentityOp(groups), p.ReduceOp()), 1.0}}, &rng));
}

TEST(ExactLsTest, DuplicateSupportsMergePrecisions) {
  // H2's leaves repeat Identity, its root repeats Total and Ones(3, n).
  Rng rng(8);
  const std::size_t n = 20;
  ExpectExact(Measure({{H2Select(n), 1.0},
                       {MakeIdentityOp(n), 3.0},
                       {MakeTotalOp(n), 0.5},
                       {MakeOnesOp(3, n), 2.0}},
                      &rng));
  // The same stack materialized: explicit interval rows.
  ExpectExact(Measure({{MakeSparse(H2Select(13)->MaterializeSparse()), 1.0},
                       {MakeTotalOp(13), 2.0}},
                      &rng));
}

TEST(ExactLsTest, UncoveredCells) {
  // Cells 0, 1, 6, 10, 11 lie in no support (min-norm: 0); [2, 5] has
  // cells 4, 5 no child covers; [7, 9] is measured twice.
  Rng rng(9);
  const std::size_t n = 12;
  MeasurementSet mset = Measure(
      {{MakeRangeSetOp({{2, 5}, {2, 3}, {7, 9}, {7, 9}}, n), 1.0},
       {MakeRangeSetOp({{4, 4}}, n), 2.0}},
      &rng);
  ExpectExact(mset);
  const Vec x = *LaminarLeastSquares(mset);
  for (std::size_t c : {0u, 1u, 6u, 10u, 11u}) EXPECT_EQ(x[c], 0.0) << c;
}

TEST(ExactLsTest, HaarWaveletsSolvedByOneSynthesis) {
  Rng rng(12);
  for (std::size_t n = 2; n <= 256; n *= 2) {
    SCOPED_TRACE("n=" + std::to_string(n));
    MeasurementSet mset = Measure({{MakeWaveletOp(n), 1.5}}, &rng);
    EXPECT_FALSE(LaminarLeastSquares(mset).has_value());
    ExpectExact(mset, OrthogonalLeastSquares);
  }
}

TEST(ExactLsTest, KronOfWaveletsAndIdentities) {
  Rng rng(13);
  ExpectExact(Measure({{MakeKronecker(MakeWaveletOp(8), MakeWaveletOp(16)),
                        2.0}},
                      &rng),
              OrthogonalLeastSquares);
  ExpectExact(Measure({{MakeKronecker(MakeIdentityOp(4), MakeWaveletOp(16)),
                        0.5}},
                      &rng),
              OrthogonalLeastSquares);
}

TEST(ExactLsTest, OrthogonalRowsWithNegativeAndZeroWeights) {
  // Zero-weight rows drop out of the pseudo-inverse; signs do not matter.
  Rng rng(14);
  Vec w(32);
  for (std::size_t r = 0; r < w.size(); ++r)
    w[r] = r % 5 == 3 ? 0.0 : (r % 2 ? -1.0 : 1.0) * rng.Uniform(0.5, 3.0);
  ExpectExact(Measure({{MakeRowWeight(MakeWaveletOp(32), w), 1.0}}, &rng),
              OrthogonalLeastSquares);
  ExpectExact(Measure({{MakeScaled(MakeKronecker(MakeRowWeight(
                                                     MakeWaveletOp(4),
                                                     Vec{1, -2, 0, 3}),
                                                 MakeWaveletOp(8)),
                                   -0.5),
                        1.0}},
                      &rng),
              OrthogonalLeastSquares);
}

TEST(ExactLsTest, DualSolvesOverlappingDuplicateAndDependentRanges) {
  // [0, 9] = [0, 4] + [5, 9] is linearly dependent, [2, 7] is listed
  // twice, [3, 12] and [6, 15] overlap partially; cells 16..19 lie in no
  // range (min-norm: 0).
  Rng rng(15);
  const std::size_t n = 20;
  MeasurementSet mset = Measure(
      {{MakeRangeSetOp({{0, 4}, {5, 9}, {0, 9}, {2, 7}, {2, 7}, {3, 12},
                        {6, 15}},
                       n),
        1.0}},
      &rng);
  EXPECT_FALSE(LaminarLeastSquares(mset).has_value());
  ExpectExact(mset, RowSpace, 1e-10);
  const Vec x = *RowSpaceLeastSquares(mset);
  for (std::size_t c = 16; c < n; ++c) EXPECT_EQ(x[c], 0.0) << c;
}

TEST(ExactLsTest, DualWeighsMeasurementsByNoiseScale) {
  // Two measurements of overlapping ranges at different noise scales,
  // one of them row-weighted, plus an exact (scale 0) total.
  Rng rng(16);
  const std::size_t n = 256;
  auto a = RangeQueryOp(RandomRanges(12, n, 120, &rng), n);
  Vec w(10);
  for (double& v : w) v = rng.Uniform(0.5, 2.0);
  auto b = MakeRowWeight(RangeQueryOp(RandomRanges(10, n, 160, &rng), n), w);
  ExpectExact(Measure({{a, 1.0}, {b, 4.0}}, &rng), RowSpace, 1e-10);
  ExpectExact(Measure({{a, 2.0}, {MakeTotalOp(n), 0.0}}, &rng), RowSpace,
              1e-10);
}

TEST(ExactLsTest, DualOnRectanglesAndPartitionGroups) {
  // Overlapping rectangles and scattered indicator rows are painted into
  // atoms; a partition reduction makes the atoms unions of groups.
  Rng rng(17);
  ExpectExact(Measure({{MakeRectangleSetOp(
                            {{0, 3, 1, 4}, {2, 5, 0, 2}, {1, 4, 2, 6},
                             {0, 5, 0, 6}, {1, 4, 2, 6}},
                            6, 7),
                        1.0}},
                      &rng),
              RowSpace, 1e-10);
  std::vector<Triplet> t = {{0, 1, 1.0}, {0, 5, 1.0}, {0, 9, 1.0},
                            {1, 5, 2.0}, {1, 6, 2.0}, {2, 0, 1.0},
                            {2, 9, 1.0}, {2, 11, 1.0}};
  ExpectExact(
      Measure({{MakeSparse(CsrMatrix::FromTriplets(3, 12, std::move(t))),
                1.0}},
              &rng),
      RowSpace, 1e-10);
  Partition p = Partition::FromIntervals({0, 3, 4, 10, 17, 18}, 24);
  ExpectExact(
      Measure({{MakeProduct(MakeRangeSetOp({{0, 3}, {2, 5}, {1, 2}}, 6),
                            p.ReduceOp()),
                1.0}},
              &rng),
      RowSpace, 1e-10);
}

TEST(ExactLsTest, UnrecognizedStacksKeepLsmrBitwise) {
  Rng rng(10);
  const std::size_t n = 64;
  const std::vector<std::vector<std::pair<LinOpPtr, double>>> stacks = {
      // A negative weight: not an indicator multiple, not orthogonal.
      {{MakeRowWeight(H2Select(8), Vec{1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                       1, 1, 1}),
        1.0}},
      // 300 overlapping ranges over 64 cells: past the dual cost gate.
      {{RangeQueryOp(RandomRanges(300, n, n / 2, &rng), n), 1.0}},
      // Haar stacked with a range set: signed rows, not orthogonal.
      {{MakeWaveletOp(16), 1.0}, {MakeRangeSetOp({{0, 5}, {3, 8}}, 16), 2.0}},
  };
  for (std::size_t k = 0; k < stacks.size(); ++k) {
    SCOPED_TRACE("stack " + std::to_string(k));
    MeasurementSet mset = Measure(stacks[k], &rng);
    EXPECT_FALSE(LaminarLeastSquares(mset).has_value());
    EXPECT_FALSE(OrthogonalLeastSquares(mset).has_value());
    EXPECT_FALSE(RowSpaceLeastSquares(mset).has_value());
    const Vec lsmr =
        Lsmr(*MaybeRewrite(mset.WeightedOp()), mset.WeightedY()).x;
    const Vec got = LeastSquaresInference(mset);
    ASSERT_EQ(got.size(), lsmr.size());
    EXPECT_EQ(
        std::memcmp(got.data(), lsmr.data(), got.size() * sizeof(double)), 0);
  }
}

// ------------------------------------------------------ plan coverage

struct PlanCase {
  const char* plan;
  std::vector<std::size_t> dims;
  std::size_t stripe_dim;
  const char* solver;  // the exact solver it is expected to take
};

const PlanCase kPlans[] = {
    {"H2", {256}, 0, "tree"},
    {"HB", {256}, 0, "tree"},
    {"Greedy-H", {256}, 0, "tree"},
    {"Uniform", {256}, 0, "tree"},
    {"AHP", {256}, 0, "tree"},
    {"DAWA", {256}, 0, "tree"},
    {"QuadTree", {16, 16}, 0, "tree"},
    {"UniformGrid", {16, 16}, 0, "tree"},
    {"AdaptiveGrid", {16, 16}, 0, "tree"},
    {"HB-Striped", {16, 16}, 0, "tree"},
    {"HB-Striped", {16, 16}, 1, "tree"},
    {"HB-Striped_kron", {16, 16}, 0, "tree"},
    {"HB-Striped_kron", {16, 16}, 1, "tree"},
    {"DAWA-Striped", {16, 16}, 0, "tree"},
    {"DAWA-Striped", {16, 16}, 1, "tree"},
    {"Privelet", {256}, 0, "orth"},
    {"Workload", {256}, 0, "dual"},
    {"WorkloadLS", {256}, 0, "dual"},
};

StatusOr<Vec> RunPlan(const PlanCase& c, uint64_t seed) {
  std::size_t n = 1;
  for (std::size_t d : c.dims) n *= d;
  Rng rng(11);
  Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n, 1e5, &rng);
  ProtectedKernel kernel(TableFromHistogram(hist, "v"), 1.0, seed);
  ProtectedTable root = ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(1.0);
  PlanInput in;
  in.dims = c.dims;
  in.ranges = RandomRanges(24, n, n / 4, &rng);
  in.stripe_dim = c.stripe_dim;
  return PlanRegistry::Global().MustFind(c.plan).Execute(*x, scope, in);
}

obs::Histogram& SolverSeconds(const char* labels) {
  return obs::Registry::Global().GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call", labels);
}

TEST(ExactLsTest, CatalogPlansNeverCallLsmr) {
  const bool timing = obs::TimingEnabled();
  obs::SetTimingEnabled(true);
  obs::Histogram& lsmr = SolverSeconds("solver=\"lsmr\"");
  uint64_t seed = 300;
  for (const PlanCase& c : kPlans) {
    SCOPED_TRACE(std::string(c.plan) + " stripe_dim=" +
                 std::to_string(c.stripe_dim));
    obs::Histogram& exact =
        SolverSeconds(("solver=\"" + std::string(c.solver) + "\"").c_str());
    const uint64_t lsmr0 = lsmr.Count(), exact0 = exact.Count();
    StatusOr<Vec> xhat = RunPlan(c, ++seed);
    ASSERT_TRUE(xhat.ok()) << xhat.status().ToString();
    EXPECT_EQ(lsmr.Count(), lsmr0);
    EXPECT_GT(exact.Count(), exact0);
  }
  obs::SetTimingEnabled(timing);
}

TEST(ExactLsTest, AdaptiveGridOnUnevenBlocksStaysLaminar) {
  // At 64 x 64 most level-1 grid sides do not divide 64.  The level-2
  // refinement must stay inside its level-1 rectangle, or the stack stops
  // being laminar and falls back to LSMR.
  const bool timing = obs::TimingEnabled();
  obs::SetTimingEnabled(true);
  obs::Histogram& lsmr = SolverSeconds("solver=\"lsmr\"");
  Rng rng(12);
  Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, 64 * 64, 1e5, &rng);
  for (int k = 1; k <= 10; ++k) {
    const double eps = 0.125 * k;
    SCOPED_TRACE("eps=" + std::to_string(eps));
    ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 500 + k);
    auto x = ProtectedTable::Root(&kernel).Vectorize();
    ASSERT_TRUE(x.ok());
    BudgetScope scope(eps);
    PlanInput in;
    in.dims = {64, 64};
    const uint64_t lsmr0 = lsmr.Count();
    ASSERT_TRUE(PlanRegistry::Global()
                    .MustFind("AdaptiveGrid")
                    .Execute(*x, scope, in)
                    .ok());
    EXPECT_EQ(lsmr.Count(), lsmr0);
  }
  obs::SetTimingEnabled(timing);
}

TEST(ExactLsTest, PlansBitwiseEqualAcrossPoolWidths) {
  uint64_t seed = 400;
  for (const PlanCase& c : kPlans) {
    SCOPED_TRACE(std::string(c.plan) + " stripe_dim=" +
                 std::to_string(c.stripe_dim));
    ++seed;
    ThreadPool::Global().Resize(0);
    StatusOr<Vec> serial = RunPlan(c, seed);
    ThreadPool::Global().Resize(4);
    StatusOr<Vec> pooled = RunPlan(c, seed);
    ASSERT_TRUE(serial.ok() && pooled.ok());
    ASSERT_EQ(serial->size(), pooled->size());
    EXPECT_EQ(std::memcmp(serial->data(), pooled->data(),
                          serial->size() * sizeof(double)),
              0);
  }
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
}

}  // namespace
}  // namespace ektelo

// Fig. 5: inference runtime vs data-vector size (google-benchmark).
//
// Measurements are a binary hierarchy (H2) over the domain with Laplace
// noise; we time least-squares inference under each physical
// representation x solver combination, plus NNLS and the exact laminar
// tree solver (ops/tree_ls.h, generalizing Hay et al.'s two-pass
// algorithm):
//
//   LS:   Dense+Direct, Dense+Iterative, Sparse+Iterative,
//         Implicit+Iterative, Tree-based
//   NNLS: Dense+Iterative, Sparse+Iterative, Implicit+Iterative
//
// The "Iterative" LS rows call LSMR directly on the weighted stack:
// LeastSquaresInference would route these laminar stacks to the tree
// solver.  Sizes are capped per representation (the paper's y-axis stops
// at 1000s; dense representations blow memory long before that).
// The reproduced observables: iterative+implicit extends the feasible
// domain by ~1000x over dense+direct, and the specialized tree solver
// beats the generic implicit iterative one at every size, by a margin
// that grows with n.  On a 4-core Xeon (AVX-512, GCC 12, Release):
// tree 4.5 ms vs implicit LSMR 36 ms at n = 65536, and 0.71 s vs 19 s at
// n = 4M.
//
// Two stacks the tree solver rejects get the same treatment, the exact
// solver LeastSquaresInference picks against LSMR on the same stack, at
// n = 4096, 16384 and 65536: Haar wavelets (Privelet's strategy; the
// orthogonal-row solve is one Haar synthesis) and 48 overlapping
// log-uniform ranges (the Workload plans; the row-space solve is a dense
// QR over at most 2 * 48 - 1 atoms).
#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "matrix/rewrite.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

struct Problem {
  LinOpPtr m_implicit;
  Vec y;
};

const Problem& GetProblem(std::size_t n) {
  static std::map<std::size_t, Problem> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(1234 + n);
    Problem p;
    p.m_implicit = HierarchyOp(BuildHierarchy(n, 2));
    Vec x = MakeHistogram1D(Shape1D::kGaussianMix, n, 1e6, &rng);
    p.y = p.m_implicit->Apply(x);
    for (auto& v : p.y) v += rng.Laplace(10.0);
    it = cache.emplace(n, std::move(p)).first;
  }
  return it->second;
}

MeasurementSet MakeSet(LinOpPtr m, const Vec& y) {
  MeasurementSet mset;
  mset.Add(std::move(m), y, 10.0);
  return mset;
}

/// The iterative rows time LSMR itself: LeastSquaresInference would hand
/// these laminar stacks to the exact tree solver.
Vec IterativeLs(const MeasurementSet& mset) {
  return Lsmr(*MaybeRewrite(mset.WeightedOp()), mset.WeightedY()).x;
}

void BM_LsDenseDirect(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(DirectLeastSquaresInference(mset));
}

void BM_LsDenseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(IterativeLs(mset));
}

void BM_LsSparseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeSparse(p.m_implicit->MaterializeSparse()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(IterativeLs(mset));
}

void BM_LsImplicitIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(IterativeLs(mset));
}

void BM_LsTreeBased(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(LaminarLeastSquares(mset));
}

/// Haar wavelet and 48-range measurements, one per size.
const MeasurementSet& ExactProblem(bool haar, std::size_t n) {
  static std::map<std::pair<bool, std::size_t>, MeasurementSet> cache;
  auto it = cache.find({haar, n});
  if (it == cache.end()) {
    Rng rng(4321 + n);
    LinOpPtr op = haar ? MakeWaveletOp(n)
                       : RangeQueryOp(LogUniformRanges(48, n, &rng), n);
    it = cache.emplace(std::make_pair(haar, n), NoisyMeasurement(op, &rng))
             .first;
  }
  return it->second;
}

void BM_HaarOrthogonal(benchmark::State& state) {
  const MeasurementSet& mset = ExactProblem(true, state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(OrthogonalLeastSquares(mset));
}

void BM_HaarLsmr(benchmark::State& state) {
  const MeasurementSet& mset = ExactProblem(true, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(IterativeLs(mset));
}

void BM_RangesRowSpace(benchmark::State& state) {
  const MeasurementSet& mset = ExactProblem(false, state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(RowSpaceLeastSquares(mset));
}

void BM_RangesLsmr(benchmark::State& state) {
  const MeasurementSet& mset = ExactProblem(false, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(IterativeLs(mset));
}

void BM_NnlsDenseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

void BM_NnlsSparseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeSparse(p.m_implicit->MaterializeSparse()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

void BM_NnlsImplicitIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

}  // namespace

// Size ladders: dense representations stop at 4096 (O(n^2) memory /
// O(n^3) direct solves); sparse at ~1M; implicit/tree continue to 4M+.
BENCHMARK(BM_LsDenseDirect)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsDenseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsSparseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsImplicitIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsTreeBased)->RangeMultiplier(4)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_HaarOrthogonal)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HaarLsmr)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangesRowSpace)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangesLsmr)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NnlsDenseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NnlsSparseIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 18)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NnlsImplicitIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();

// Ablation: inference-operator accuracy and runtime on identical
// measurements (DESIGN.md's design-choice ablation).
//
// Fixes the measurement set (H2 hierarchy at eps) and swaps only the
// inference operator: LSMR least squares, CGNR least squares, NNLS,
// multiplicative weights, the specialized tree solver, and raw leaf
// counts (no inference).  This isolates the claim of Sec. 5.5 / Thm. 5.3:
// consistent global inference improves every strategy, and the generic
// iterative solvers match the specialized one on its home turf.
//
// A second table times the two exact solvers that take the stacks the
// tree solver rejects against LSMR on the same weighted stack: the
// orthogonal-row solve on Haar wavelets (Privelet) and the row-space
// (dual) solve on 48 log-uniform ranges (Workload), at n = 4096, 16384
// and 65536.  Two more rows sit on either side of the dual solve's cost
// gate at n = 4096: the largest prefix of a range set the gate still
// accepts, and the smallest it hands to LSMR, both timed with the gate
// lifted.
#include "bench_util.h"
#include "matrix/rewrite.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2048;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.1;
  Rng rng(21);

  std::printf(
      "Ablation: inference operators on identical H2 measurements "
      "(n=%zu, eps=%.2g; mean scaled error over datasets)\n\n", n, eps);
  std::printf("%-24s %12s %12s\n", "inference", "err(ranges)", "time(s)");

  auto strategy = HierarchyOp(BuildHierarchy(n, 2));
  const double sens = strategy->SensitivityL1();

  struct Acc {
    double err = 0.0;
    double secs = 0.0;
  };
  Acc acc[6];
  const char* names[6] = {"raw leaves (none)", "tree-based LS",
                          "LS (LSMR)",         "LS (CGNR)",
                          "NNLS",              "mult-weights"};

  auto shapes = AllShapes1D();
  for (std::size_t d = 0; d < shapes.size(); ++d) {
    Vec hist = MakeHistogram1D(shapes[d], n, 1e5, &rng);
    auto w = RangeQueryOp(RandomRanges(500, n, n / 8, &rng), n);
    HistEnv env(hist, {n}, eps, 600 + d, &rng);
    auto y = env.kernel.VectorLaplace(env.ctx.x, *strategy, eps);
    if (!y.ok()) return 1;
    MeasurementSet mset;
    mset.Add(strategy, *y, sens / eps);
    const double total = Sum(hist);

    for (int v = 0; v < 6; ++v) {
      WallTimer t;
      Vec xhat;
      switch (v) {
        case 0: {
          // Leaf rows are the last n entries of the hierarchy answers.
          xhat.assign(y->end() - n, y->end());
          break;
        }
        case 1:
          xhat = *LaminarLeastSquares(mset);
          break;
        case 2:
          // LSMR itself: LeastSquaresInference would dispatch this
          // laminar stack to the tree solver of case 1.
          xhat = Lsmr(*MaybeRewrite(mset.WeightedOp()), mset.WeightedY()).x;
          break;
        case 3:
          xhat = CgLeastSquaresInference(mset);
          break;
        case 4:
          xhat = NnlsInference(mset);
          break;
        case 5:
          xhat = MultWeightsInference(mset, total, {.iterations = 80});
          break;
      }
      acc[v].secs += t.Elapsed();
      acc[v].err += ScaledWorkloadError(*w, xhat, hist);
    }
  }
  for (int v = 0; v < 6; ++v) {
    std::printf("%-24s %12.3e %12.3f\n", names[v],
                acc[v].err / double(shapes.size()), acc[v].secs);
  }
  std::printf(
      "\nexpected shape: every inference beats raw leaves (Thm 5.3); "
      "LSMR == CGNR == tree-based\n(same LS solution); NNLS at or below "
      "LS (adds the x >= 0 constraint).\n");

  std::printf(
      "\nExact LS against LSMR on the same weighted stack (best of 5)\n\n");
  std::printf("%-30s %7s %10s %10s %8s %12s\n", "stack", "n", "exact(ms)",
              "lsmr(ms)", "speedup", "|dx|/|x|");
  auto row = [](const char* name, const MeasurementSet& mset,
                const std::function<Vec()>& exact) {
    const LinOpPtr a = MaybeRewrite(mset.WeightedOp());
    const Vec b = mset.WeightedY();
    Vec xe, xl;
    const double te = BestSeconds(5, [&] { xe = exact(); });
    const double tl = BestSeconds(5, [&] { xl = Lsmr(*a, b).x; });
    double diff = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < xe.size(); ++i) {
      diff += (xe[i] - xl[i]) * (xe[i] - xl[i]);
      norm += xe[i] * xe[i];
    }
    std::printf("%-30s %7zu %10.3f %10.3f %7.1fx %12.1e\n", name,
                mset.Domain(), te * 1e3, tl * 1e3, tl / te,
                std::sqrt(diff / norm));
  };
  Rng srng(22);
  for (std::size_t sn : {4096u, 16384u, 65536u}) {
    MeasurementSet haar = NoisyMeasurement(MakeWaveletOp(sn), &srng);
    row("Haar (orthogonal rows)", haar,
        [&] { return *OrthogonalLeastSquares(haar); });
    MeasurementSet ranges = NoisyMeasurement(
        RangeQueryOp(LogUniformRanges(48, sn, &srng), sn), &srng);
    row("48 ranges (row-space)", ranges,
        [&] { return *RowSpaceLeastSquares(ranges); });
  }
  // The gate's crossover: grow the range count m until the gate hands
  // the stack to LSMR; time the last accepted and the first rejected m
  // with the gate lifted (an LSMR cap too large for any dense solve).
  // Each m draws its own log-uniform set from a seed of its own.
  const std::size_t gn = 4096;
  auto gate_set = [&](std::size_t m) {
    Rng grng(1000 + m);
    return NoisyMeasurement(
        RangeQueryOp(LogUniformRanges(m, gn, &grng), gn), &grng);
  };
  LsmrOptions lifted;
  lifted.max_iters = std::size_t(1) << 40;
  std::size_t m = 4;
  while (RowSpaceLeastSquares(gate_set(m)).has_value()) m += 4;
  for (std::size_t side : {m - 4, m}) {
    const MeasurementSet at = gate_set(side);
    const std::string name = std::to_string(side) + " ranges, gate: " +
                             (side < m ? "dual" : "lsmr");
    row(name.c_str(), at, [&] { return *RowSpaceLeastSquares(at, lifted); });
  }
  std::printf(
      "\nexpected shape: the exact solvers beat LSMR by a margin that grows "
      "with n and agree with it\nto LSMR's tolerance; at the gate the two "
      "solvers are within ~2x of each other.\n");
  return 0;
}

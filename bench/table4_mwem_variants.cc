// Table 4: MWEM variants — error-improvement factors and runtime.
//
// Setup matches the paper: 1D, W = RandomRange(1000), eps = 0.1,
// T = 10 rounds, over 10 (synthetic stand-ins for the DPBench) datasets.
// For variants (b) worst-approx + H2 selection, (c) NNLS known-total
// inference, and (d) both, we report the min/mean/max over datasets of
// error(MWEM) / error(variant) — the paper's "error improvement" — and the
// mean wall time of one plan run in ms, at n = 4096 (the paper's size) and
// n = 16384.  Times are absolute: plain MWEM's inference runs over the
// measured ranges' atoms, so a ratio to it says little about the others.
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  const double eps = 0.1;
  const std::size_t n_queries = 1000;
  const std::size_t rounds = 10;
  const double scale = argc > 1 ? std::atof(argv[1]) : 1e5;

  struct Variant {
    const char* selection;
    const char* inference;
    bool augment;
    bool nnls;
  };
  const Variant variants[] = {
      {"worst-approx", "MW", false, false},
      {"worst-approx + H2", "MW", true, false},
      {"worst-approx", "NNLS, known total", false, true},
      {"worst-approx + H2", "NNLS, known total", true, true},
  };
  const char* tags[] = {"(a)", "(b)", "(c)", "(d)"};

  for (std::size_t n : {std::size_t{4096}, std::size_t{16384}}) {
    Rng rng(4);
    auto shapes = AllShapes1D();
    double err[4][10];
    double time_s[4][10];

    for (std::size_t d = 0; d < shapes.size(); ++d) {
      Vec hist = MakeHistogram1D(shapes[d], n, scale, &rng);
      const double total = Sum(hist);
      auto ranges = RandomRanges(n_queries, n, 0, &rng);
      auto w_op = RangeQueryOp(ranges, n);
      for (int v = 0; v < 4; ++v) {
        HistEnv env(hist, {n}, eps, 1000 + 17 * d + v, &rng);
        WallTimer t;
        auto xhat = RunMwemPlan(env.ctx, ranges,
                                {.rounds = rounds,
                                 .augment_h2 = variants[v].augment,
                                 .nnls_inference = variants[v].nnls,
                                 .known_total = total});
        time_s[v][d] = t.Elapsed();
        if (!xhat.ok()) {
          std::fprintf(stderr, "variant %d failed on dataset %zu: %s\n", v,
                       d, xhat.status().ToString().c_str());
          err[v][d] = -1.0;
          continue;
        }
        err[v][d] = ScaledWorkloadError(*w_op, *xhat, hist);
      }
    }

    std::printf(
        "Table 4: MWEM variants (1D, n=%zu, W=RandomRange(1000), "
        "eps=0.1)\n",
        n);
    std::printf(
        "error improvement factor vs (a) over %zu datasets; mean wall time "
        "of one plan run\n\n",
        shapes.size());
    std::printf("%-4s %-20s %-20s %8s %8s %8s %10s\n", "", "Query Selection",
                "Inference", "min", "mean", "max", "ms");
    for (int v = 0; v < 4; ++v) {
      double mn = 1e300, mx = 0.0, mean = 0.0, tsum = 0.0;
      for (std::size_t d = 0; d < shapes.size(); ++d) {
        const double f = err[0][d] / err[v][d];
        mn = std::min(mn, f);
        mx = std::max(mx, f);
        mean += f;
        tsum += time_s[v][d];
      }
      mean /= double(shapes.size());
      std::printf("%-4s %-20s %-20s %8.2f %8.2f %8.2f %10.2f\n", tags[v],
                  variants[v].selection, variants[v].inference, mn, mean, mx,
                  1e3 * tsum / double(shapes.size()));
    }
    std::printf("\n");
  }
  std::printf(
      "paper (Table 4): (b) 1.03/2.80/7.93 @354.9x, (c) 0.78/1.08/1.54 "
      "@1.0x, (d) 0.89/2.64/8.13 @9.0x (runtime relative to (a))\n");
  return 0;
}

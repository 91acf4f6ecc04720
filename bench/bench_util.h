// Shared helpers for the benchmark harnesses: kernel/environment setup
// from a histogram, error metrics, time-capped execution, and a minimal
// machine-readable JSON emitter so benchmark runs leave a BENCH_*.json
// trail for the perf trajectory.
#ifndef EKTELO_BENCH_BENCH_UTIL_H_
#define EKTELO_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ektelo/ektelo.h"

namespace ektelo::bench {

/// A protected kernel wrapping a histogram, plus the matching PlanContext.
struct HistEnv {
  ProtectedKernel kernel;
  PlanContext ctx;

  HistEnv(const Vec& hist, std::vector<std::size_t> dims, double eps,
          uint64_t seed, Rng* client_rng,
          MatrixMode mode = MatrixMode::kImplicit)
      : kernel(TableFromHistogram(hist, "v"), eps, seed) {
    auto x = kernel.TVectorize(kernel.root());
    ctx.kernel = &kernel;
    ctx.x = x.value();
    ctx.dims = std::move(dims);
    ctx.eps = eps;
    ctx.mode = mode;
    ctx.rng = client_rng;
  }
};

/// Scaled per-query L2 error (DPBench's metric): RMSE over workload
/// answers divided by the total record count.
inline double ScaledWorkloadError(const LinOp& w, const Vec& xhat,
                                  const Vec& x_true) {
  const double scale = std::max(Sum(x_true), 1.0);
  return Rmse(w.Apply(xhat), w.Apply(x_true)) / scale;
}

/// m ranges over [0, n) with lengths stratified log-uniformly over 1 .. n
/// and uniform positions: every scale is equally represented, as in the
/// range sets the served mixed workload draws.
inline std::vector<RangeQuery> LogUniformRanges(std::size_t m, std::size_t n,
                                                Rng* rng) {
  std::vector<RangeQuery> ranges;
  for (std::size_t q = 0; q < m; ++q) {
    const double u = (double(q) + rng->Uniform(0.0, 1.0)) / double(m);
    const std::size_t len = std::clamp<std::size_t>(
        std::size_t(std::pow(double(n), u)), 1, n);
    const std::size_t lo = std::min<std::size_t>(
        std::size_t(rng->Uniform(0.0, double(n - len + 1))), n - len);
    ranges.push_back({lo, lo + len - 1});
  }
  return ranges;
}

/// One measurement of `op` on a Gaussian-mix histogram of 1e6 records
/// with Laplace(10) noise per answer.
inline MeasurementSet NoisyMeasurement(LinOpPtr op, Rng* rng) {
  Vec x = MakeHistogram1D(Shape1D::kGaussianMix, op->cols(), 1e6, rng);
  Vec y = op->Apply(x);
  for (double& v : y) v += rng->Laplace(10.0);
  MeasurementSet mset;
  mset.Add(std::move(op), std::move(y), 10.0);
  return mset;
}

/// Best-of-`reps` wall seconds of fn().
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.Elapsed());
  }
  return best;
}

/// Run fn, returning wall seconds; nullopt on Status failure.
inline std::optional<double> TimeIt(
    const std::function<ektelo::Status()>& fn) {
  WallTimer t;
  Status s = fn();
  if (!s.ok()) return std::nullopt;
  return t.Elapsed();
}

/// Accumulates flat records of string/number fields and writes them as a
/// JSON array of objects — just enough structure for the perf-tracking
/// scripts, with no external dependency.
class JsonRecords {
 public:
  void StartRecord() { records_.emplace_back(); }
  void Field(const std::string& key, const std::string& value) {
    records_.back().push_back("\"" + key + "\":\"" + value + "\"");
  }
  void Field(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(9);
    os << value;
    records_.back().push_back("\"" + key + "\":" + os.str());
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("[\n", f);
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fputs("  {", f);
      for (std::size_t i = 0; i < records_[r].size(); ++i) {
        if (i) std::fputs(",", f);
        std::fputs(records_[r][i].c_str(), f);
      }
      std::fputs(r + 1 < records_.size() ? "},\n" : "}\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::vector<std::string>> records_;
};

}  // namespace ektelo::bench

#endif  // EKTELO_BENCH_BENCH_UTIL_H_

// Self-tests for the benchmark's own logic (bench_core.h): the tail
// percentile rule, the cell-median latency, open-loop due-time
// accounting, and span self time.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_core.h"

namespace {

int g_failed = 0;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failed;
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

void TestTailRule() {
  using e2ebench::TailPercentile;
  // 1000 samples: p99 is rank 990 with exactly ten samples beyond it.
  e2ebench::Tail t = TailPercentile(Ramp(1000));
  Check(t.p == 0.99 && t.value == 990.0, "p99 at n=1000");
  // 999 samples leave only nine beyond p99 (rank 990): fall back to p90.
  t = TailPercentile(Ramp(999));
  Check(t.p == 0.9 && t.value == 900.0, "p90 at n=999");
  // 100 samples: p90 is rank 90, ten beyond.
  t = TailPercentile(Ramp(100));
  Check(t.p == 0.9 && t.value == 90.0, "p90 at n=100");
  // 30 samples: p90 (rank 27) has three beyond; the median (rank 15) has 15.
  t = TailPercentile(Ramp(30));
  Check(t.p == 0.5 && t.value == 15.0, "p50 at n=30");
  // A failed request is +inf and sorts last; it reaches the tail only
  // when more than ten have failed.
  std::vector<double> v = Ramp(1000);
  for (std::size_t i = 0; i < 10; ++i) v[i] = INFINITY;
  Check(std::isfinite(TailPercentile(v).value), "10 failures stay beyond p99");
  v[10] = INFINITY;
  Check(std::isinf(TailPercentile(v).value), "11 failures reach p99");
}

void TestCellMedian() {
  using e2ebench::CellMedianGeoMean;
  Check(CellMedianGeoMean({{"a", {3, 1, 2}}}) == 2.0,
        "one cell: its median");
  // Cells at 1 ms and 100 ms: geometric mean 10, however many samples
  // the fast cell has.
  std::vector<double> fast(90, 1.0);
  Check(std::fabs(CellMedianGeoMean({{"a", fast}, {"b", {100, 100}}}) - 10.0) <
            1e-12,
        "geometric mean of cell medians, one vote per cell");
  // A stall delaying 40% of the requests of every cell leaves each cell's
  // median where it was, while the pooled median jumps from the fast
  // cell's 1 ms to the stalled 50 ms.
  std::vector<double> a = {1, 1, 1, 1, 1}, b = {100, 100, 100, 100, 100};
  auto pooled = [&] {
    std::vector<double> v = a;
    v.insert(v.end(), b.begin(), b.end());
    return e2ebench::Median(v);
  };
  Check(pooled() == 1.0, "pooled median before the stall");
  a[3] = a[4] = 50;
  b[3] = b[4] = 500;
  Check(std::fabs(CellMedianGeoMean({{"a", a}, {"b", b}}) - 10.0) < 1e-12 &&
            pooled() == 50.0,
        "a stall moves the pooled median, not the cell medians");
  Check(std::isinf(CellMedianGeoMean({{"a", {1.0}}, {"b", {INFINITY}}})),
        "a failed cell makes the latency +inf");
}

void TestOpenLoopStall() {
  // 40 requests due every 2 ms on one connection.  Request 5 stalls the
  // "daemon" for 120 ms; every request due during the stall is sent late,
  // and its latency must count from its due time, not its send time.
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(0.002 * i);
  auto out = e2ebench::RunOpenLoop(due, 1, [](std::size_t, std::size_t i, e2ebench::Clock::time_point*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 5 ? 120 : 0));
    return true;
  });
  // Request 10 was due at 20 ms; the stall ends at >= 130 ms.
  Check(out[10].lat_s >= 0.100, "stalled request latency counts from due");
  Check(out[10].lag_s >= 0.100, "stalled request reports generator lag");
  Check(out[10].rtt_s < 0.050, "stalled request's own round trip is short");
  Check(out[2].lat_s < 0.050, "requests before the stall are unaffected");
  bool all = true;
  for (const auto& o : out) all = all && o.ok;
  Check(all, "every request completes");
}

void TestClosedLoop() {
  auto out = e2ebench::RunClosedLoop(2, 0.05, [](std::size_t, std::size_t, e2ebench::Clock::time_point*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  Check(out.size() >= 10 && out.size() <= 24, "closed loop paces on replies");
  bool ordered = true;
  for (std::size_t i = 0; i < out.size(); ++i) ordered &= out[i].index == i;
  Check(ordered, "closed-loop outcomes indexed in send order");
}

void TestSelfTime() {
  using e2ebench::SpanRec;
  // request [0,100] on the connection thread 1; execute [10,90] on worker
  // 2 with lsmr [20,60] inside it; parallel_for [30,50] inside lsmr with
  // shards on threads 2 [30,50] and 3 [31,49].
  std::vector<SpanRec> s = {
      {"serve.request", 0, 100, 1},  {"serve.execute", 10, 80, 2},
      {"solver.lsmr", 20, 40, 2},    {"parallel_for", 30, 20, 2},
      {"parallel_for.shard", 30, 20, 2}, {"parallel_for.shard", 31, 18, 3}};
  auto self = e2ebench::SelfTimesUs(s);
  Check(self["serve.request"] == 20.0, "request self = 100 - execute");
  Check(self["serve.execute"] == 40.0, "execute self = 80 - lsmr");
  Check(self["solver.lsmr"] == 20.0, "lsmr self = 40 - parallel_for");
  Check(self["parallel_for"] == 0.0, "parallel_for fully covered by shards");
  Check(self["parallel_for.shard"] == 38.0, "shards keep their own time");
}

void TestParsers() {
  auto prom = e2ebench::ParseProm(
      "# HELP x y\n# TYPE x counter\n"
      "ektelo_serve_requests_total{event=\"received\"} 42\n"
      "ektelo_solver_seconds_sum{solver=\"lsmr\"} 0.125\n");
  Check(prom["ektelo_serve_requests_total{event=\"received\"}"] == 42,
        "prom counter");
  Check(prom["ektelo_solver_seconds_sum{solver=\"lsmr\"}"] == 0.125,
        "prom histogram sum");
  std::map<uint64_t, std::vector<e2ebench::SpanRec>> traces;
  const bool ok = e2ebench::ParseChromeTrace(
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"request 7 tenant=a plan=H2\"}},"
      "{\"name\":\"serve.request\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":"
      "10.500,\"dur\":3.250,\"pid\":1,\"tid\":4,\"args\":{\"eps\":0.5}}]}",
      &traces);
  Check(ok && traces.size() == 1 && traces[7].size() == 1 &&
            traces[7][0].dur_us == 3.25 && traces[7][0].tid == 4,
        "chrome trace parse");
}

}  // namespace

int main() {
  TestTailRule();
  TestCellMedian();
  TestOpenLoopStall();
  TestClosedLoop();
  TestSelfTime();
  TestParsers();
  if (g_failed == 0) std::printf("e2e_selftest: all checks passed\n");
  return g_failed == 0 ? 0 : 1;
}

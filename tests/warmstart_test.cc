// Warm-start equivalence: with a persistent disk tier attached, every
// registry plan must produce BITWISE identical outputs (and identical
// budgets/transcripts) on (a) the memory-only baseline, (b) a cold run
// populating a fresh store, and (c) a warm run in a "fresh process"
// (memory cache cleared, store reopened from disk) — across two store
// open/close cycles, as a serving deployment would see them.  The warm
// run must actually hit the disk tier.
//
// An upgrade case opens a store holding only the canonical-tree records
// (artifact kind 9) that the retired rewrite search used to persist:
// the store must reopen read-write, nothing may serve those records, and
// every plan's reply must stay bitwise equal to the memory-only run.
//
// Also covers the Gram-memoization satellite: CG/NNLS derive their Gram
// (and NNLS its spectral-norm estimate) through the OperatorCache, so
// repeated solves of structurally identical stacks skip the per-solve
// re-derivation bitwise-invisibly.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/cg.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/nnls.h"
#include "matrix/rewrite.h"
#include "plans/registry.h"
#include "store/artifact_store.h"
#include "store/serialize.h"
#include "store/tree_codec.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ektelo_warmstart_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

void AttachTier(const std::string& dir) {
  store::DiskStoreOptions opts;
  opts.hash_version = kHashVersion;
  auto tier = store::DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(tier);
  OperatorCache::Global().SetDiskTier(std::move(tier));
}

void DetachTier() { OperatorCache::Global().SetDiskTier(nullptr); }

struct RunResult {
  Vec xhat;
  bool ok = false;
  std::string error;
  double budget = 0.0;
  std::vector<std::tuple<std::string, double, double>> transcript;
};

struct PlanEnv {
  Vec hist;
  std::vector<std::size_t> dims;
  std::vector<RangeQuery> ranges;
  LinOpPtr w;
};

/// The deterministic input every run of a plan over `domain` sees.
PlanEnv MakeEnv(DomainKind domain) {
  PlanEnv env;
  Rng rng(31);
  switch (domain) {
    case DomainKind::k1D:
      env.dims = {64};
      env.hist = MakeHistogram1D(Shape1D::kGaussianMix, 64, 2000.0, &rng);
      break;
    case DomainKind::k2D:
      env.dims = {8, 8};
      env.hist = MakeHistogram2D(8, 8, 2000.0, &rng);
      break;
    case DomainKind::kMultiDim:
      env.dims = {16, 2, 2};
      env.hist = MakeHistogram1D(Shape1D::kStep, 64, 2000.0, &rng);
      break;
  }
  const std::size_t n = env.hist.size();
  env.ranges = RandomRanges(20, n, 16, &rng);
  env.w = RangeQueryOp(env.ranges, n);
  return env;
}

/// One deterministic end-to-end execution (same environment every call,
/// mirroring rewrite_equivalence_test).
RunResult RunPlan(const Plan& plan) {
  const double eps = 0.5;
  PlanEnv env = MakeEnv(plan.domain());
  const Vec& hist = env.hist;
  const std::vector<std::size_t>& dims = env.dims;
  const auto& ranges = env.ranges;
  const LinOpPtr& w = env.w;

  ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 515151);
  ProtectedTable root = ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(eps);
  Rng client_rng(7);
  PlanInput in;
  in.dims = dims;
  in.ranges = ranges;
  in.workload = w;
  in.workload_factors = {w};
  in.known_total = Sum(hist);
  in.rng = &client_rng;
  in.stripe_dim = 0;

  RunResult r;
  StatusOr<Vec> xhat = plan.Execute(*x, scope, in);
  r.ok = xhat.ok();
  if (!r.ok) {
    r.error = xhat.status().ToString();
    return r;
  }
  r.xhat = std::move(*xhat);
  r.budget = kernel.BudgetConsumed();
  for (const auto& e : kernel.transcript())
    r.transcript.emplace_back(e.op, e.eps, e.noise_scale);
  std::sort(r.transcript.begin(), r.transcript.end());
  return r;
}

void ExpectBitwiseEqual(const RunResult& a, const RunResult& b,
                        const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.ok, b.ok) << a.error << " / " << b.error;
  if (!a.ok) return;
  ASSERT_EQ(a.xhat.size(), b.xhat.size());
  for (std::size_t i = 0; i < a.xhat.size(); ++i)
    ASSERT_TRUE(BitwiseEq(a.xhat[i], b.xhat[i]))
        << "component " << i << ": " << a.xhat[i] << " vs " << b.xhat[i];
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.transcript, b.transcript);
}

TEST(WarmStartTest, EveryPlanIsBitwiseIdenticalColdAndWarmAcrossTwoCycles) {
  const std::string dir = FreshDir("registry");
  const std::vector<const Plan*> catalog = PlanRegistry::Global().Catalog();
  ASSERT_FALSE(catalog.empty());

  // Baseline: memory-only, exactly the pre-store behavior.
  DetachTier();
  OperatorCache::Global().Clear();
  std::vector<RunResult> baseline;
  baseline.reserve(catalog.size());
  for (const Plan* plan : catalog) baseline.push_back(RunPlan(*plan));

  // Cycle 1 (cold): fresh store, empty memory cache — populates disk.
  AttachTier(dir);
  OperatorCache::Global().Clear();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const RunResult cold = RunPlan(*catalog[i]);
    ExpectBitwiseEqual(baseline[i], cold,
                       ("cold: " + catalog[i]->name()).c_str());
  }
  // Spills run on the write-behind consumer; barrier before counting.
  OperatorCache::Global().FlushDiskTier();
  const auto after_cold = OperatorCache::Global().stats();
  EXPECT_GT(after_cold.disk_writes, 0u);
  DetachTier();  // close cycle 1: flush + release the store

  // Cycle 2 (warm): reopen the same directory in a "fresh process" —
  // empty memory tier, artifacts come off disk.
  AttachTier(dir);
  OperatorCache::Global().Clear();
  const auto before_warm = OperatorCache::Global().stats();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const RunResult warm = RunPlan(*catalog[i]);
    ExpectBitwiseEqual(baseline[i], warm,
                       ("warm: " + catalog[i]->name()).c_str());
  }
  const auto after_warm = OperatorCache::Global().stats();
  EXPECT_GT(after_warm.disk_hits, before_warm.disk_hits)
      << "warm cycle never hit the disk tier";
  DetachTier();
  OperatorCache::Global().Clear();
  fs::remove_all(dir);
}

TEST(WarmStartTest, RetiredKind9RecordsAreNeverServed) {
  const std::string dir = FreshDir("kind9");
  const std::vector<const Plan*> catalog = PlanRegistry::Global().Catalog();
  ASSERT_FALSE(catalog.empty());

  DetachTier();
  OperatorCache::Global().Clear();
  std::vector<RunResult> baseline;
  baseline.reserve(catalog.size());
  for (const Plan* plan : catalog) baseline.push_back(RunPlan(*plan));

  // Write kind-9 records the way the search mode did: {rows, cols,
  // sub-kind 3} followed by the encoded canonical tree, keyed by the
  // structural hash of operators the plans really use.
  constexpr uint32_t kRetiredCanonTreeKind = 9;
  store::DiskStoreOptions opts;
  opts.hash_version = kHashVersion;
  auto writer = store::DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(writer);
  std::vector<store::ArtifactKey> keys;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<LinOpPtr> ops;
  for (DomainKind d :
       {DomainKind::k1D, DomainKind::k2D, DomainKind::kMultiDim}) {
    LinOpPtr w = MakeEnv(d).w;
    ops.push_back(w);
    ops.push_back(MakeVStack({MakeTotalOp(w->cols()), w}));
  }
  ops.push_back(MakeIdentityOp(64));
  for (const LinOpPtr& op : ops) {
    store::ByteWriter bw;
    bw.U64(op->rows());
    bw.U64(op->cols());
    bw.U8(3);
    ASSERT_TRUE(store::EncodeLinOpTree(*Rewrite(op), &bw));
    const store::ArtifactKey key{op->StructuralHash(), kRetiredCanonTreeKind};
    ASSERT_TRUE(writer->Put(key, bw.bytes()));
    keys.push_back(key);
    payloads.push_back(bw.bytes());
  }
  writer->Flush();

  // While `writer` holds the lock the cache's tier attaches read-only, so
  // the run's own spills never land: the store holds nothing but kind-9
  // records, and any disk hit would have been one of them.
  AttachTier(dir);
  OperatorCache::Global().Clear();
  ASSERT_NE(OperatorCache::Global().disk_tier(), nullptr);
  ASSERT_TRUE(OperatorCache::Global().disk_tier()->stats().read_only);
  const std::size_t hits_before = OperatorCache::Global().stats().disk_hits;
  for (std::size_t i = 0; i < catalog.size(); ++i)
    ExpectBitwiseEqual(baseline[i], RunPlan(*catalog[i]),
                       ("read-only: " + catalog[i]->name()).c_str());
  EXPECT_EQ(OperatorCache::Global().stats().disk_hits, hits_before);
  DetachTier();
  writer.reset();

  // Reopened by the cache alone, the store is read-write again and keeps
  // serving as a normal tier.
  AttachTier(dir);
  OperatorCache::Global().Clear();
  store::DiskArtifactStore* tier = OperatorCache::Global().disk_tier();
  ASSERT_NE(tier, nullptr);
  EXPECT_FALSE(tier->stats().read_only);
  EXPECT_EQ(tier->stats().entries, keys.size());
  const std::size_t writes_before = OperatorCache::Global().stats().disk_writes;
  for (std::size_t i = 0; i < catalog.size(); ++i)
    ExpectBitwiseEqual(baseline[i], RunPlan(*catalog[i]),
                       ("read-write: " + catalog[i]->name()).c_str());
  OperatorCache::Global().FlushDiskTier();
  EXPECT_GT(OperatorCache::Global().stats().disk_writes, writes_before);
  // Nothing read (and rejected) the kind-9 records either: a typed
  // decoder that rejects a record drops it, and the recompute re-stores
  // its own payload under the key.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    std::vector<uint8_t> payload;
    EXPECT_TRUE(tier->Get(keys[k], &payload));
    EXPECT_EQ(payload, payloads[k]);
  }
  DetachTier();
  OperatorCache::Global().Clear();
  fs::remove_all(dir);
}

// ---------------------------------------------------- Gram memoization

/// Wraps a sparse matrix and counts Gram() derivations.  As an unknown
/// LinOp subclass it hashes per-instance, so cache hits only occur for
/// the *same* shared instance — which is exactly the repeated-solve
/// pattern the satellite targets.
class CountingGramOp final : public LinOp {
 public:
  explicit CountingGramOp(CsrMatrix m)
      : LinOp(m.rows(), m.cols()), m_(std::move(m)) {}
  void ApplyRaw(const double* x, double* y) const override {
    m_.Matvec(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    m_.RmatVec(x, y);
  }
  LinOpPtr Gram() const override {
    ++gram_calls;
    return MakeSparse(m_.Transpose().Matmul(m_));
  }
  std::string DebugName() const override { return "CountingGram"; }
  mutable std::atomic<int> gram_calls{0};

 private:
  CsrMatrix m_;
};

CsrMatrix TestMatrix(std::size_t m, std::size_t n) {
  Rng rng(99);
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.Uniform() < 0.4) t.push_back({i, j, rng.Normal() + 2.0});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

TEST(GramMemoTest, NnlsDerivesTheGramOncePerStructure) {
  OperatorCache::Global().Clear();
  SetRewriteEnabled(1);
  auto op = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  Vec b(24);
  Rng rng(5);
  for (auto& v : b) v = rng.Normal() + 1.0;

  NnlsResult first = Nnls(*op, b);
  EXPECT_EQ(op->gram_calls.load(), 1);
  NnlsResult second = Nnls(*op, b);
  // Second solve: Gram and Lipschitz estimate both come from the cache.
  EXPECT_EQ(op->gram_calls.load(), 1);
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], second.x[i])) << i;

  // The cached path must be bitwise-identical to the uncached one.
  SetRewriteEnabled(0);
  auto fresh = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  NnlsResult uncached = Nnls(*fresh, b);
  SetRewriteEnabled(-1);
  EXPECT_EQ(uncached.iterations, first.iterations);
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], uncached.x[i])) << i;
  OperatorCache::Global().Clear();
}

TEST(GramMemoTest, CgLeastSquaresReusesTheCachedGram) {
  OperatorCache::Global().Clear();
  SetRewriteEnabled(1);
  auto op = std::make_shared<CountingGramOp>(TestMatrix(20, 8));
  Vec b(20);
  Rng rng(6);
  for (auto& v : b) v = rng.Normal();

  CgResult first = CgLeastSquares(*op, b);
  EXPECT_EQ(op->gram_calls.load(), 1);
  CgResult second = CgLeastSquares(*op, b);
  EXPECT_EQ(op->gram_calls.load(), 1);

  SetRewriteEnabled(0);
  CgResult uncached = CgLeastSquares(*op, b);
  SetRewriteEnabled(-1);
  ASSERT_EQ(first.x.size(), uncached.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i) {
    EXPECT_TRUE(BitwiseEq(first.x[i], second.x[i])) << i;
    EXPECT_TRUE(BitwiseEq(first.x[i], uncached.x[i])) << i;
  }
  OperatorCache::Global().Clear();
}

TEST(GramMemoTest, StackAllocatedOperatorsStayUncachedButCorrect) {
  // No shared ownership -> no safe cache key; the solver must fall back
  // to per-solve derivation without touching the cache.
  OperatorCache::Global().Clear();
  CountingGramOp op(TestMatrix(16, 6));
  Vec b(16, 1.0);
  NnlsResult r1 = Nnls(op, b);
  NnlsResult r2 = Nnls(op, b);
  EXPECT_EQ(op.gram_calls.load(), 2);
  for (std::size_t i = 0; i < r1.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(r1.x[i], r2.x[i])) << i;
}

}  // namespace
}  // namespace ektelo

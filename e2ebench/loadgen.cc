// End-to-end serving benchmark: spawns the real ektelo_served, drives it
// with one seeded workload from this single process, checks every reply,
// and prints the end-to-end metrics (--trace 0) or the per-layer split
// (--trace 1) as one JSON object on the last line of stdout.
//
//   e2e_loadgen --workload mixed_open --seed 1 --seconds 20 --trace 0
//               --served /abs/path/ektelo_served --workdir /abs/scratch
//
// Layers are measured from outside the daemon: this program's own timers
// around its calls into serve::Client, Plan::Execute and ProtectedKernel;
// the daemon's metrics registry and request traces through
// Client::StatsProm() / Client::Trace(); and /proc/<pid> for CPU and
// memory.  See README.md for the workloads and what each metric should
// move.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "bench_core.h"
#include "data/generators.h"
#include "kernel/budget.h"
#include "kernel/handles.h"
#include "kernel/kernel.h"
#include "linalg/simd/simd.h"
#include "plans/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/serialize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

extern char** environ;

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using ektelo::RangeQuery;
using ektelo::serve::Client;
using ektelo::serve::InvokeReply;
using ektelo::serve::InvokeRequest;
using ektelo::serve::ReplyCode;

constexpr double kTenantBudget = 1e9;
constexpr double kTenantRecords = 100000.0;
// Request ids carry their phase in the high bits, so traces fetched from
// the daemon can be matched to the timed phase.
constexpr uint64_t kProbeTag = 1, kWarmTag = 2, kTimedTag = 3;
constexpr std::size_t kProbeRequests = 4;
constexpr std::size_t kSetupSpawns = 9;
constexpr double kWarmupSeconds = 2.0;
// A failed or refused request's latency is +inf; JSON has no infinity,
// so a tail that lands on one prints as this many seconds.
constexpr double kInfLatencySeconds = 1e6;

/// Progress notes on stderr, stamped with seconds since start.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
const Clock::time_point g_start = Clock::now();
void Note(const char* fmt, ...) {
  std::fprintf(stderr, "[e2e %7.2fs] ", Seconds(Clock::now() - g_start));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

void Fail(const std::string& why) {
  std::fprintf(stderr, "e2e_loadgen: %s\n", why.c_str());
  std::exit(2);
}

// ------------------------------------------------------------- tenants

struct Tenant {
  std::string name;
  std::size_t n = 0;
  std::size_t side = 0;  // square side for 2D / striped plans
  uint64_t seed = 0;
  ektelo::Table table{ektelo::Schema({{"v", 1}})};
  std::vector<double> prefix;  // prefix sums of the true histogram
  double total = 0.0;

  std::string Spec() const {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s:%.0f:%" PRIu64 ":%zu:%.0f",
                  name.c_str(), kTenantBudget, seed, n, kTenantRecords);
    return buf;
  }
};

/// Regenerates the tenant's table exactly as ektelo_served does from its
/// --tenant spec (the daemon's public generator and seed).
Tenant MakeTenant(const std::string& name, std::size_t n, uint64_t seed) {
  Tenant t;
  t.name = name;
  t.n = n;
  t.side = std::size_t(std::llround(std::sqrt(double(n))));
  if (t.side * t.side != n) Fail("tenant domain must be a square");
  t.seed = seed;
  ektelo::Rng rng{seed};
  const ektelo::Vec hist = ektelo::MakeHistogram1D(
      ektelo::Shape1D::kGaussianMix, n, kTenantRecords, &rng);
  t.table = ektelo::TableFromHistogram(hist, "v");
  const ektelo::Vec x = t.table.Vectorize();
  t.prefix.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) t.prefix[i + 1] = t.prefix[i] + x[i];
  t.total = t.prefix[n];
  return t;
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  bool open_loop = true;
  double rate = 0.0;         // open loop: Poisson arrivals per second
  std::size_t clients = 0;   // sender threads / connections
  bool cache_dir = false;    // EKTELO_CACHE_DIR on a fresh directory
  std::vector<Tenant> tenants;
  // Range-set pools, per tenant.
  std::vector<std::vector<std::vector<RangeQuery>>> pools;
  // Request generator: (index, stream) -> request.  Pure in its inputs.
  std::function<InvokeRequest(uint64_t index, uint64_t stream)> make;
  // Tail percentile reported as latency_p99_ms, fixed per workload so a
  // faster daemon never switches which percentile is read.  p99 of a 40 s
  // run rests on 17-26 samples beyond it, so a single host stall moves it;
  // mixed_open reads p95 (128 beyond), iterative_closed p90 (~170).
  double tail = 0.99;
  std::string notes;
};

std::vector<std::vector<RangeQuery>> RangePool(uint64_t seed, std::size_t n,
                                               std::size_t sets,
                                               std::size_t per_set) {
  std::vector<std::vector<RangeQuery>> pool(sets);
  Prng rng(seed);
  for (auto& set : pool) {
    for (std::size_t q = 0; q < per_set; ++q) {
      // Lengths stratified log-uniformly over 1 .. n, so every set has the
      // same mix of scales and only the positions are random.
      const double u = (double(q) + rng.Uniform()) / double(per_set);
      const std::size_t len =
          std::clamp<std::size_t>(std::size_t(std::pow(double(n), u)), 1, n);
      const std::size_t lo = rng.Below(n - len + 1);
      set.push_back({lo, lo + len - 1});
    }
  }
  return pool;
}

/// Population index of the i-th request sent.  The request population is
/// fixed: entry j is a pure function of j and the stream, and entries
/// come in blocks of `cells` that visit every plan/tenant cell once
/// (cell = j % cells).  The seed shuffles the order within each block and
/// sets the arrival times, so every seed sends the same work in another
/// order, and the plan and tenant mix is identical in every block.
uint64_t Shuffled(uint64_t seed, uint64_t i, std::size_t cells) {
  std::vector<std::size_t> perm(cells);
  for (std::size_t c = 0; c < cells; ++c) perm[c] = c;
  Prng rng(Mix(seed, i / cells));
  for (std::size_t c = cells; c > 1; --c)
    std::swap(perm[c - 1], perm[rng.Below(c)]);
  return i - i % cells + perm[i % cells];
}

// Fixed key of the request population (see Shuffled).
constexpr uint64_t kPopulation = 0xEC7E10;

ektelo::DomainKind KindOf(const std::string& plan) {
  const ektelo::Plan* p = ektelo::PlanRegistry::Global().Find(plan);
  if (p == nullptr) Fail("plan not in the registry: " + plan);
  return p->domain();
}

InvokeRequest BaseRequest(const Workload& w, const std::string& plan,
                          std::size_t tenant, std::size_t range_set,
                          double eps, std::size_t stripe, bool coalesce) {
  const Tenant& t = w.tenants[tenant];
  InvokeRequest r;
  r.tenant = t.name;
  r.plan = plan;
  r.eps = eps;
  r.dims = KindOf(plan) == ektelo::DomainKind::k1D
               ? std::vector<std::size_t>{t.n}
               : std::vector<std::size_t>{t.side, t.side};
  r.ranges = w.pools[tenant][range_set];
  r.stripe_dim = stripe;
  r.mode = 2;
  r.coalesce = coalesce;
  return r;
}

// Every servable catalog plan except the iterative MWEM family and HDMM.
// HDMM is excluded because the wire format cannot carry its per-dimension
// workload factors, so every served HDMM invoke fails and is refunded.
const std::vector<std::string> kMixedPlans = {
    "Identity",    "Privelet",     "H2",           "HB",
    "Greedy-H",    "Uniform",      "AHP",          "DAWA",
    "Workload",    "WorkloadLS",   "QuadTree",     "UniformGrid",
    "AdaptiveGrid", "DAWA-Striped", "HB-Striped",  "HB-Striped_kron"};

const std::vector<std::string> kIterativePlans = {
    "MWEM", "MWEM variant b", "MWEM variant c", "MWEM variant d",
    "Greedy-H", "DAWA", "WorkloadLS"};

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  // Tenant data is fixed; the seed varies the requests.
  auto tenant = [&](const char* tname, std::size_t n) {
    w.tenants.push_back(MakeTenant(tname, n, 4100 + w.tenants.size()));
  };
  auto pools = [&](uint64_t salt, std::size_t sets, std::size_t per_set) {
    for (std::size_t t = 0; t < w.tenants.size(); ++t)
      w.pools.push_back(RangePool(Mix(kPopulation, salt + t), w.tenants[t].n,
                                  sets, per_set));
  };
  if (name == "mixed_open") {
    w.open_loop = true;
    w.rate = 64.0;
    w.clients = 4;
    w.tail = 0.95;
    tenant("t4k", 4096);
    tenant("t16k", 16384);
    tenant("t64k", 65536);
    pools(0x9001, 64, 48);
    w.notes = "16 catalog plans x 3 tenants less AdaptiveGrid at n=65536 "
              "(47 cells) in balanced blocks; 48-range sets drawn Zipf(1.1) "
              "from 64 per tenant; eps k/8, k in [2,10]; coalesce on";
  } else if (name == "iterative_closed") {
    w.open_loop = false;
    w.clients = 2;
    w.cache_dir = true;
    w.tail = 0.9;
    tenant("t4k", 4096);
    tenant("t16k", 16384);
    pools(0x9101, 2048, 32);
    w.notes = "MWEM, variants b/c/d (c/d at n=4096), Greedy-H, DAWA, "
              "WorkloadLS in balanced blocks; 32-range sets drawn Zipf(1.0) "
              "from 2048 per tenant; distinct eps per request; coalesce off; "
              "disk tier on";
  } else {
    Fail("unknown workload " + name);
  }

  // The generators share one immutable snapshot of the tenants and pools.
  auto snap = std::make_shared<const Workload>(w);
  auto stripe = [](const std::string& plan, Prng& rng) -> std::size_t {
    return KindOf(plan) == ektelo::DomainKind::kMultiDim ? rng.Below(2) : 0;
  };
  if (name == "mixed_open") {
    const Zipf zipf(64, 1.1);
    // Every plan at every tenant except AdaptiveGrid at n = 65536: at
    // ~0.3 s a request (15x the mean) its own service time alone set
    // p99, which then swung by a third between runs.
    std::vector<std::pair<std::string, std::size_t>> cells;
    for (const std::string& plan : kMixedPlans)
      for (std::size_t t = 0; t < w.tenants.size(); ++t)
        if (plan != "AdaptiveGrid" || w.tenants[t].n < 65536)
          cells.push_back({plan, t});
    w.make = [snap, seed, zipf, stripe, cells](uint64_t i, uint64_t stream) {
      const uint64_t j = Shuffled(seed ^ stream, i, cells.size());
      const auto& [plan, t] = cells[j % cells.size()];
      Prng rng(Mix(kPopulation ^ stream, j));
      const double eps = double(2 + rng.Below(9)) / 8.0;
      return BaseRequest(*snap, plan, t, zipf.Draw(rng), eps,
                         stripe(plan, rng), true);
    };
  } else {
    // Variants c and d (NNLS inference) run only at n = 4096: at 16384
    // one such request takes most of a second.
    std::vector<std::pair<std::string, std::size_t>> cells;
    for (const std::string& plan : kIterativePlans) {
      cells.push_back({plan, 0});
      if (plan != "MWEM variant c" && plan != "MWEM variant d")
        cells.push_back({plan, 1});
    }
    const Zipf zipf(2048, 1.0);
    w.make = [snap, seed, zipf, cells](uint64_t i, uint64_t stream) {
      const uint64_t j = Shuffled(seed ^ stream, i, cells.size());
      const auto& [plan, t] = cells[j % cells.size()];
      Prng rng(Mix(kPopulation ^ stream, j));
      // Dyadic and distinct per entry: every request executes fresh and
      // per-tenant sums of eps stay exact in double precision.
      const double eps = double(4096 + (j + stream) % 12288) / 16384.0;
      InvokeRequest r =
          BaseRequest(*snap, plan, t, zipf.Draw(rng), eps, 0, false);
      r.known_total = snap->tenants[t].total;
      return r;
    };
  }
  return w;
}

/// Arrival times of a Poisson process at `rate` over [0, seconds),
/// conditioned on its expected count: round(rate * seconds) uniform
/// times, sorted.  Fixing the count keeps the offered load and the
/// number of latency samples the same in every run.
std::vector<double> Schedule(uint64_t seed, double rate, double seconds,
                             uint64_t stream) {
  Prng rng(Mix(seed ^ stream, 0x5C4ED));
  std::vector<double> due(std::size_t(std::llround(rate * seconds)));
  for (double& t : due) t = rng.Uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

// --------------------------------------------------------------- daemon

/// One ektelo_served child process with its own socket, ledger and
/// (optionally) disk cache directory under the work directory.  The
/// child gets the parent's environment minus every EKTELO_* variable,
/// so it runs with its default knobs, plus EKTELO_TRACE / EKTELO_CACHE_DIR
/// when the workload asks for them.  It dies with this process.
class Daemon {
 public:
  Daemon(const std::string& served, int id, const std::vector<Tenant>& ts,
         bool trace, bool cache_dir) {
    const std::string tag = "d" + std::to_string(id);
    sock_ = tag + ".sock";
    fs::remove(sock_);
    fs::remove_all(tag + ".ledger");
    fs::remove_all(tag + ".cache");
    std::vector<std::string> args = {served, "--socket", sock_, "--ledger",
                                     tag + ".ledger"};
    for (const Tenant& t : ts) {
      args.push_back("--tenant");
      args.push_back(t.Spec());
    }
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "EKTELO_", 7) != 0) env.push_back(*e);
    if (trace) env.push_back("EKTELO_TRACE=1");
    if (cache_dir) env.push_back("EKTELO_CACHE_DIR=" + tag + ".cache");
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const std::string log = tag + ".log";
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    start_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) Fail("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (log_fd >= 0) {
        ::dup2(log_fd, 1);
        ::dup2(log_fd, 2);
      }
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
  }

  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return sock_; }
  Clock::time_point start() const { return start_; }

  /// Connects, retrying until the socket is bound (or the child died).
  Client Connect() const {
    ektelo::serve::ClientOptions opts;
    opts.connect_timeout_ms = 2000;
    opts.read_timeout_ms = 60000;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      auto c = Client::Connect(sock_, opts);
      if (c.ok()) return std::move(c).value();
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_)
        Fail("ektelo_served exited during startup; see its log beside " +
             sock_);
      if (Clock::now() > give_up) Fail("cannot connect to ektelo_served");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  /// Clean shutdown through the protocol; SIGKILL if it does not exit.
  void Stop() {
    if (pid_ <= 0) return;
    {
      Client c = Connect();
      (void)c.Shutdown();
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < give_up) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Kill();
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::string sock_;
  Clock::time_point start_;
};

struct ProcSample {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
};

ProcSample ReadProc(pid_t pid) {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t rp = text.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream in(text.substr(rp + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // Fields after "(comm)": state is field 3; utime/stime are 14/15.
    for (int f = 3; f <= 15 && (in >> field); ++f) {
      if (f == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (f == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    s.cpu_s = double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      s.hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return s;
}

// --------------------------------------------------------------- checks

/// What the load generator keeps of one reply: enough for the gates and
/// the accuracy metric, never the estimate itself.
struct ReplyRec {
  bool got = false;  // a reply frame arrived (any code)
  ReplyCode code = ReplyCode::kOk;
  bool coalesced = false;
  double eps_charged = 0.0;
  uint64_t digest = 0;
  double err = 0.0;  // RMSE over the request's ranges / ||x||_1
  std::size_t tenant = 0;
};

class Gates {
 public:
  void Failed(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (problems_.size() < 20) problems_.push_back(why);
    ++count_;
  }
  bool ok() const { return count_ == 0; }
  void Report() const {
    for (const std::string& p : problems_)
      std::fprintf(stderr, "e2e_loadgen: GATE FAILED: %s\n", p.c_str());
  }

 private:
  std::mutex mu_;
  std::vector<std::string> problems_;
  std::size_t count_ = 0;
};

/// Hash of a vector's exact bytes (FNV-1a over 64-bit words).
uint64_t Digest(const std::vector<double>& v) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (double d : v) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    h = (h ^ bits) * 0x100000001B3ull;
  }
  return h;
}

/// Sends one request and checks the reply: domain length, finite values,
/// zero charge on coalesced replies.  Returns true for a checked OK reply.
/// `replied` (optional) receives the reply's arrival time, taken before
/// the checks so they never count as daemon latency.
bool InvokeChecked(Client& c, const InvokeRequest& req,
                   const std::vector<Tenant>& tenants, ReplyRec* rec,
                   Gates* gates, Clock::time_point* replied = nullptr) {
  std::size_t t = 0;
  while (tenants[t].name != req.tenant) ++t;
  rec->tenant = t;
  auto r = c.Invoke(req);
  if (replied != nullptr) *replied = Clock::now();
  if (!r.ok()) return false;
  const InvokeReply& rep = *r;
  rec->got = true;
  rec->code = rep.code;
  rec->coalesced = rep.coalesced;
  rec->eps_charged = rep.eps_charged;
  if (rep.code != ReplyCode::kOk) return false;
  const Tenant& tn = tenants[t];
  bool good = true;
  if (rep.estimate.size() != tn.n) {
    gates->Failed("estimate length " + std::to_string(rep.estimate.size()) +
                  " != domain " + std::to_string(tn.n) + " (" + req.plan + ")");
    good = false;
  }
  for (double v : rep.estimate)
    if (!std::isfinite(v)) {
      gates->Failed("non-finite estimate value (" + req.plan + ")");
      good = false;
      break;
    }
  if (rep.coalesced && rep.eps_charged != 0.0) {
    gates->Failed("coalesced reply charged eps " +
                  std::to_string(rep.eps_charged));
    good = false;
  }
  if (!good) return false;
  rec->digest = Digest(rep.estimate);
  // Scaled L2 error on the request's own range set (DPBench).
  std::vector<double> ph(tn.n + 1, 0.0);
  for (std::size_t i = 0; i < tn.n; ++i) ph[i + 1] = ph[i] + rep.estimate[i];
  double sq = 0.0;
  for (const RangeQuery& q : req.ranges) {
    const double d = (ph[q.hi + 1] - ph[q.lo]) -
                     (tn.prefix[q.hi + 1] - tn.prefix[q.lo]);
    sq += d * d;
  }
  const double nq = double(std::max<std::size_t>(1, req.ranges.size()));
  rec->err = std::sqrt(sq / nq) / tn.total;
  return true;
}

/// Per-daemon accounting: sum of eps_charged over every reply this
/// process received, per tenant, checked against the daemon's ledger.
struct Accounting {
  std::vector<double> charged;
  explicit Accounting(std::size_t tenants) : charged(tenants, 0.0) {}
  void Add(const ReplyRec& r) {
    if (r.got) charged[r.tenant] += r.eps_charged;
  }
  void Add(const std::vector<ReplyRec>& rs) {
    for (const ReplyRec& r : rs) Add(r);
  }
  void Check(Client& c, const std::vector<Tenant>& ts, Gates* gates) const {
    auto st = c.Stats();
    if (!st.ok()) {
      gates->Failed("Stats() failed: " + st.status().ToString());
      return;
    }
    for (std::size_t t = 0; t < ts.size(); ++t) {
      bool found = false;
      for (const auto& bal : st->tenants) {
        if (bal.name != ts[t].name) continue;
        found = true;
        if (bal.spent != charged[t]) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "tenant %s: ledger spent %.17g != sum of "
                        "eps_charged %.17g",
                        ts[t].name.c_str(), bal.spent, charged[t]);
          gates->Failed(buf);
        }
      }
      if (!found) gates->Failed("tenant missing from Stats: " + ts[t].name);
    }
  }
};

// ---------------------------------------------------------------- phases

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<ReplyRec> replies;
  std::vector<InvokeRequest> requests;  // closed loop: as sent, by index
  double wall_s = 0.0;
  ProcSample before, after;
  std::map<std::string, double> prom_before, prom_after;
  std::map<uint64_t, std::vector<SpanRec>> traces;  // traced phase only

  std::size_t ok() const {
    std::size_t k = 0;
    for (const Outcome& o : outcomes) k += o.ok ? 1 : 0;
    return k;
  }
  double Delta(const std::string& key) const {
    auto a = prom_after.find(key);
    auto b = prom_before.find(key);
    return (a == prom_after.end() ? 0.0 : a->second) -
           (b == prom_before.end() ? 0.0 : b->second);
  }
};

std::map<std::string, double> Scrape(Client& c) {
  auto text = c.StatsProm();
  if (!text.ok()) Fail("StatsProm failed: " + text.status().ToString());
  return ParseProm(*text);
}

/// Runs one timed (or warm-up) phase of the workload against `d`.
PhaseResult RunPhase(const Workload& w, const Daemon& d, uint64_t seed,
                     double seconds, uint64_t tag, bool measure,
                     bool fetch_traces, Gates* gates) {
  PhaseResult res;
  std::vector<Client> conns;
  for (std::size_t i = 0; i < w.clients; ++i) conns.push_back(d.Connect());
  Client control = d.Connect();
  const uint64_t stream = tag << 32;
  auto stamp = [&](InvokeRequest r, uint64_t i) {
    r.request_id = (tag << 48) | i;
    if (tag == kWarmTag) r.coalesce = false;
    return r;
  };

  std::vector<double> due;
  if (w.open_loop) {
    due = Schedule(seed, w.rate, seconds, stream);
    for (std::size_t i = 0; i < due.size(); ++i)
      res.requests.push_back(stamp(w.make(i, stream), i));
    res.replies.resize(due.size());
  }
  if (measure) {
    res.before = ReadProc(d.pid());
    res.prom_before = Scrape(control);
  }

  std::atomic<bool> stop_fetch{false};
  std::thread fetcher;
  if (fetch_traces) {
    fetcher = std::thread([&] {
      Client tc = d.Connect();
      auto grab = [&] {
        auto json = tc.Trace();
        if (!json.ok()) return;
        std::map<uint64_t, std::vector<SpanRec>> got;
        if (!ParseChromeTrace(*json, &got)) {
          gates->Failed("unparsable trace export");
          return;
        }
        for (auto& [id, spans] : got)
          if ((id >> 48) == tag && res.traces.count(id) == 0)
            res.traces[id] = std::move(spans);
      };
      while (!stop_fetch.load()) {
        grab();
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      }
      grab();
    });
  }

  const Clock::time_point t0 = Clock::now();
  if (w.open_loop) {
    res.outcomes = RunOpenLoop(
        due, w.clients,
        [&](std::size_t k, std::size_t i, Clock::time_point* replied) {
          return InvokeChecked(conns[k], res.requests[i], w.tenants,
                               &res.replies[i], gates, replied);
        });
  } else {
    std::vector<std::vector<std::pair<std::size_t, ReplyRec>>> recs(w.clients);
    std::vector<std::vector<std::pair<std::size_t, InvokeRequest>>> sent(
        w.clients);
    res.outcomes = RunClosedLoop(w.clients, seconds, [&](std::size_t k,
                                                         std::size_t i,
                                                         Clock::time_point* replied) {
      InvokeRequest r = stamp(w.make(i, stream), i);
      ReplyRec rec;
      const bool ok =
          InvokeChecked(conns[k], r, w.tenants, &rec, gates, replied);
      recs[k].push_back({i, rec});
      sent[k].push_back({i, std::move(r)});
      return ok;
    });
    const std::size_t n = res.outcomes.size();
    res.replies.resize(n);
    res.requests.resize(n);
    for (std::size_t k = 0; k < w.clients; ++k) {
      for (auto& [i, rec] : recs[k]) res.replies[i] = rec;
      for (auto& [i, r] : sent[k]) res.requests[i] = std::move(r);
    }
  }
  res.wall_s = Seconds(Clock::now() - t0);
  if (fetch_traces) {
    stop_fetch.store(true);
    fetcher.join();
  }
  if (measure) {
    res.after = ReadProc(d.pid());
    res.prom_after = Scrape(control);
  }
  return res;
}

/// Warm-up before timing: the workload's own traffic shape from a request
/// stream disjoint from the timed one, uncoalesced, so no timed request is
/// answered from a warm-up reply.
void Warm(const Workload& w, const Daemon& d, uint64_t seed,
          Accounting* acct, Gates* gates) {
  PhaseResult warm =
      RunPhase(w, d, seed, kWarmupSeconds, kWarmTag, false, false, gates);
  acct->Add(warm.replies);
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Latencies of the timed requests, failed ones as +inf.
std::vector<double> Latencies(const PhaseResult& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes)
    v.push_back(o.ok ? o.lat_s : std::numeric_limits<double>::infinity());
  return v;
}

/// latency_p50_ms: each plan/tenant cell's median latency, geometric
/// mean over the cells (see CellMedianGeoMean).
double CellMedianLatency(const PhaseResult& p) {
  std::map<std::string, std::vector<double>> cells;
  const std::vector<double> lat = Latencies(p);
  for (std::size_t i = 0; i < lat.size(); ++i)
    cells[p.requests[i].plan + "@" + p.requests[i].tenant].push_back(lat[i]);
  return CellMedianGeoMean(cells);
}

double Finite(double s) {
  return std::isfinite(s) ? s : kInfLatencySeconds;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Share of requests whose content (everything the daemon's coalescing
/// key covers) equals an earlier request's.
double RepeatShare(const std::vector<InvokeRequest>& reqs) {
  std::set<uint64_t> seen;
  std::size_t repeats = 0;
  for (const InvokeRequest& r : reqs) {
    std::vector<double> key = {r.eps, double(r.stripe_dim), double(r.mode),
                               r.known_total};
    for (std::size_t d : r.dims) key.push_back(double(d));
    for (const RangeQuery& q : r.ranges) {
      key.push_back(double(q.lo));
      key.push_back(double(q.hi));
    }
    uint64_t h = Digest(key);
    for (char c : r.tenant + "/" + r.plan) h = Mix(h, uint64_t(c));
    repeats += seen.insert(h).second ? 0 : 1;
  }
  return reqs.empty() ? 0.0 : double(repeats) / double(reqs.size());
}

std::string MachineRecord(const Workload& w, uint64_t seed,
                          const PhaseResult& timed) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const ektelo::serve::ServerOptions defaults;
  std::ostringstream o;
  o << "{\"machine\": {\"cpu\": " << Quote(cpu)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd\": " << Quote(ektelo::simd::Active().name)
    << ", \"compiler\": " << Quote(E2EBENCH_COMPILER)
    << ", \"build_type\": " << Quote(E2EBENCH_BUILD_TYPE) << "}"
    << ", \"daemon\": {\"workers\": " << defaults.workers
    << ", \"queue\": " << defaults.queue_capacity
    << ", \"response_cache\": " << defaults.response_cache_entries
    << ", \"ektelo_threads\": " << ektelo::ThreadPool::DefaultThreadCount()
    << ", \"cache_dir\": " << (w.cache_dir ? "true" : "false") << "}"
    << ", \"workload\": {\"name\": " << Quote(w.name) << ", \"seed\": " << seed
    << ", \"loop\": " << Quote(w.open_loop ? "open" : "closed")
    << ", \"rate\": " << w.rate << ", \"clients\": " << w.clients
    << ", \"timed_requests\": " << timed.outcomes.size()
    << ", \"repeat_share\": " << RepeatShare(timed.requests)
    << ", \"notes\": " << Quote(w.notes) << "}}";
  return o.str();
}

struct Args {
  std::string workload, served, workdir;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--served") a.served = v;
    else if (k == "--workdir") a.workdir = v;
    else Fail("unknown argument " + k);
  }
  if (a.workload.empty() || a.served.empty() || a.workdir.empty() ||
      !(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
    Fail("usage: e2e_loadgen --workload W --seed N --seconds S --trace 0|1 "
         "--served PATH --workdir DIR");
  return a;
}

/// The daemon's structural hash of a request's content, byte for byte
/// as the server computes it to key coalescing and the noise seed.
uint64_t ContentHash(const InvokeRequest& req) {
  ektelo::store::ByteWriter w;
  w.U64(req.plan.size());
  w.Raw(reinterpret_cast<const uint8_t*>(req.plan.data()), req.plan.size());
  w.F64(req.eps);
  w.U64(req.dims.size());
  for (std::size_t d : req.dims) w.U64(d);
  w.U64(req.ranges.size());
  for (const RangeQuery& q : req.ranges) {
    w.U64(q.lo);
    w.U64(q.hi);
  }
  w.F64(req.known_total);
  w.U64(req.stripe_dim);
  w.U8(req.mode);
  return ektelo::store::Checksum64(w.bytes());
}

struct Replay {
  double kernel_s = 0.0;  // ProtectedKernel + Vectorize
  double plan_s = 0.0;    // Plan::Execute
  uint64_t digest = 0;    // of the estimate's bytes
};

/// One request replayed in this process as the server's Execute runs it:
/// kernel and client-side rng seeded from the tenant seed and the
/// request's content hash, so the replay does the daemon's work and
/// returns its estimate bit for bit.
Replay ReplayInProcess(const Tenant& t, const InvokeRequest& req) {
  const uint64_t exec_seed =
      ektelo::SplitMix64(t.seed ^ ektelo::SplitMix64(ContentHash(req)));
  const Clock::time_point a = Clock::now();
  ektelo::ProtectedKernel kernel(t.table, req.eps, exec_seed);
  ektelo::ProtectedTable root = ektelo::ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  const Clock::time_point b = Clock::now();
  if (!x.ok()) Fail("in-process Vectorize failed");
  ektelo::BudgetScope scope(req.eps);
  ektelo::Rng rng(ektelo::SplitMix64(exec_seed ^ 0xC11E57ull));
  ektelo::PlanInput in;
  in.dims = req.dims;
  in.mode = ektelo::MatrixMode(req.mode);
  in.rng = &rng;
  in.ranges = req.ranges;
  in.known_total = req.known_total;
  in.stripe_dim = req.stripe_dim;
  auto est = ektelo::PlanRegistry::Global().Find(req.plan)->Execute(*x, scope, in);
  const Clock::time_point c = Clock::now();
  if (!est.ok()) Fail("in-process replay failed: " + req.plan);
  return {Seconds(b - a), Seconds(c - b), Digest(*est)};
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // The daemon runs with its defaults; so does the in-process replay.
  std::vector<std::string> stripped;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "EKTELO_", 7) == 0)
      stripped.push_back(std::string(*e).substr(0, std::strcspn(*e, "=")));
  for (const std::string& k : stripped) ::unsetenv(k.c_str());

  fs::create_directories(args.workdir);
  fs::current_path(args.workdir);  // short, relative socket paths
  const Workload w = MakeWorkload(args.workload, args.seed);
  Gates gates;

  // ---- set-up: several spawns, each timed to its first OK reply, each
  // answering the same probe requests bit for bit.
  std::vector<double> setup_s, bound_s;  // to first OK reply / to connect
  std::vector<uint64_t> probe_digest;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Accounting> acct;
  int next_id = 0;
  for (std::size_t s = 0; s < kSetupSpawns; ++s) {
    daemon = std::make_unique<Daemon>(args.served, next_id++, w.tenants, false,
                                      w.cache_dir);
    acct = std::make_unique<Accounting>(w.tenants.size());
    Client c = daemon->Connect();
    bound_s.push_back(Seconds(Clock::now() - daemon->start()));
    const Tenant& small = *std::min_element(
        w.tenants.begin(), w.tenants.end(),
        [](const Tenant& a, const Tenant& b) { return a.n < b.n; });
    InvokeRequest first;
    first.tenant = small.name;
    first.plan = "Identity";
    first.eps = 1.0 / 64.0;
    first.dims = {small.n};
    first.coalesce = false;
    ReplyRec rec;
    if (!InvokeChecked(c, first, w.tenants, &rec, &gates))
      Fail("set-up request failed");
    setup_s.push_back(Seconds(Clock::now() - daemon->start()));
    acct->Add(rec);
    std::vector<uint64_t> digests;
    for (std::size_t i = 0; i < kProbeRequests; ++i) {
      InvokeRequest r = w.make(i, kTimedTag << 32);
      r.request_id = (kProbeTag << 48) | i;
      r.coalesce = false;
      ReplyRec pr;
      if (!InvokeChecked(c, r, w.tenants, &pr, &gates))
        gates.Failed("probe request failed: " + r.plan);
      acct->Add(pr);
      digests.push_back(pr.digest);
    }
    if (s == 0) probe_digest = digests;
    else if (digests != probe_digest)
      gates.Failed("probe replies differ between daemon runs of one seed");
    if (s + 1 < kSetupSpawns) {
      acct->Check(c, w.tenants, &gates);
      daemon->Stop();
    }
  }

  Note("set-up: %zu spawns, median %.4f s (socket bound at %.4f s)",
       setup_s.size(), Median(setup_s), Median(bound_s));
  // ---- untraced timed phase (every end-to-end metric comes from here).
  // A traced run splits --seconds between this phase and the traced one,
  // so it takes as long as an untraced run.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  Warm(w, *daemon, args.seed, acct.get(), &gates);
  PhaseResult timed =
      RunPhase(w, *daemon, args.seed, phase_s, kTimedTag, true, false,
               &gates);
  acct->Add(timed.replies);
  Note("timed phase: %zu requests, %zu ok, %.2f s", timed.outcomes.size(),
       timed.ok(), timed.wall_s);
  {
    std::vector<double> lat = Latencies(timed);
    std::sort(lat.begin(), lat.end());
    std::string q;
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
      char buf[48];
      std::snprintf(buf, sizeof buf, " p%g=%.2f", p * 100,
                    NearestRank(lat, p) * 1e3);
      q += buf;
    }
    Note("latency ms:%s; cell-median %.2f", q.c_str(),
         CellMedianLatency(timed) * 1e3);
  }
  {
    Client c = daemon->Connect();
    acct->Check(c, w.tenants, &gates);
  }
  daemon->Stop();
  for (std::size_t i = 0; i < kProbeRequests && i < timed.replies.size(); ++i)
    if (timed.outcomes[i].ok && timed.replies[i].digest != probe_digest[i])
      gates.Failed("timed reply differs from the probe of the same request");

  const std::size_t ok = timed.ok();
  std::vector<Metric> metrics;
  const std::vector<double> lat = Latencies(timed);
  const double p50 = CellMedianLatency(timed);
  const Tail tail = TailPercentile(lat, w.tail);
  std::size_t attempted = timed.outcomes.size();
  std::size_t failed = timed.outcomes.size() - ok;

  if (args.trace == 0) {
    std::vector<double> errs;
    for (std::size_t i = 0; i < timed.outcomes.size(); ++i)
      if (timed.outcomes[i].ok) errs.push_back(timed.replies[i].err);
    const double cpu_s = timed.after.cpu_s - timed.before.cpu_s;
    const double last_end = [&] {
      double m = 0.0;
      for (const Outcome& o : timed.outcomes) m = std::max(m, o.end_s);
      return m;
    }();
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", Finite(p50) * 1e3, "ms"},
        {"latency_p99_ms", Finite(tail.value) * 1e3, "ms"},
        {"throughput_rps", double(ok) / std::max(last_end, 1e-9), "req/s"},
        {"ok_share", double(ok) / double(std::max<std::size_t>(1, timed.outcomes.size())), "ratio"},
        {"scaled_l2_error", Median(errs), "ratio"},
        {"cpu_ms_per_req", cpu_s * 1e3 / double(std::max<std::size_t>(1, ok)), "ms"},
        {"peak_rss_mb", timed.after.hwm_mb, "MiB"},
    };
  } else {
    // ---- traced phase on a fresh daemon: same seed, same requests.
    Daemon traced(args.served, next_id++, w.tenants, true, w.cache_dir);
    Accounting tacct(w.tenants.size());
    Warm(w, traced, args.seed, &tacct, &gates);
    PhaseResult tp = RunPhase(w, traced, args.seed, phase_s, kTimedTag,
                              true, true, &gates);
    tacct.Add(tp.replies);
    Note("traced phase: %zu requests, %zu traced", tp.outcomes.size(),
         tp.traces.size());
    {
      Client c = traced.Connect();
      tacct.Check(c, w.tenants, &gates);
    }
    traced.Stop();
    attempted += tp.outcomes.size();
    failed += tp.outcomes.size() - tp.ok();
    const std::size_t both = std::min(tp.outcomes.size(), timed.outcomes.size());
    for (std::size_t i = 0; i < both; ++i)
      if (tp.outcomes[i].ok && timed.outcomes[i].ok &&
          tp.replies[i].digest != timed.replies[i].digest) {
        gates.Failed("reply " + std::to_string(i) +
                     " differs between the untraced and traced daemons");
        break;
      }

    // Registry deltas over the untraced timed phase, per request.
    const double received = std::max(1.0, timed.Delta(
        "ektelo_serve_requests_total{event=\"received\"}"));
    auto per_req_ms = [&](const std::string& key) {
      return timed.Delta(key) * 1e3 / received;
    };
    auto stage = [&](const char* s) {
      return per_req_ms(std::string("ektelo_serve_stage_seconds_sum{stage=\"") +
                        s + "\"}");
    };
    auto plan_stage = [&](const char* s) {
      return per_req_ms(std::string("ektelo_plan_stage_seconds_sum{stage=\"") +
                        s + "\"}");
    };
    const double lsmr_calls =
        timed.Delta("ektelo_solver_seconds_count{solver=\"lsmr\"}");
    const double pf_sum = timed.Delta("ektelo_parallel_for_seconds_sum");
    const double width = double(ektelo::ThreadPool::DefaultThreadCount() + 1);
    const double hits =
        timed.Delta("ektelo_cache_requests_total{tier=\"mem\",event=\"hit\"}");
    const double misses =
        timed.Delta("ektelo_cache_requests_total{tier=\"mem\",event=\"miss\"}");
    const double coalesced =
        timed.Delta("ektelo_serve_requests_total{event=\"coalesced\"}");
    double rtt_sum = 0.0;
    std::vector<double> lags;
    for (const Outcome& o : timed.outcomes) {
      rtt_sum += o.rtt_s;
      lags.push_back(o.lag_s);
    }
    const double transport_ms =
        rtt_sum * 1e3 / double(std::max<std::size_t>(1, timed.outcomes.size())) -
        stage("total");

    // In-process replay of a systematic sample of the timed requests; each
    // must reproduce the daemon's reply bit for bit.
    std::vector<std::size_t> sample;
    const std::size_t want = w.name == "iterative_closed" ? 16 : 32;
    const std::size_t stride =
        std::max<std::size_t>(1, timed.requests.size() / want);
    for (std::size_t i = 0; i < timed.requests.size() && sample.size() < want;
         i += stride)
      sample.push_back(i);
    std::vector<double> inproc;
    for (int pass = 0; pass < 2; ++pass) {  // first pass warms the caches
      for (std::size_t i : sample) {
        const InvokeRequest& r = timed.requests[i];
        std::size_t t = 0;
        while (w.tenants[t].name != r.tenant) ++t;
        const Replay rp = ReplayInProcess(w.tenants[t], r);
        if (timed.outcomes[i].ok && rp.digest != timed.replies[i].digest)
          gates.Failed("in-process replay of request " + std::to_string(i) +
                       " (" + r.plan + ") differs from the daemon's reply");
        if (pass == 1) inproc.push_back(rp.plan_s);
      }
    }
    std::vector<double> ksetup;
    const Tenant& big = *std::max_element(
        w.tenants.begin(), w.tenants.end(),
        [](const Tenant& a, const Tenant& b) { return a.n < b.n; });
    for (int rep = 0; rep < 21; ++rep) {
      InvokeRequest r;
      r.plan = "Uniform";
      r.eps = 1.0;
      r.dims = {big.n};
      ksetup.push_back(ReplayInProcess(big, r).kernel_s);
    }

    Note("in-process replay done");
    // Trace attribution over the covered timed requests.
    std::map<std::string, double> self_us;
    double request_us = 0.0, stages_us = 0.0;
    for (const auto& [id, spans] : tp.traces) {
      for (const auto& [name, us] : SelfTimesUs(spans)) self_us[name] += us;
      for (const SpanRec& s : spans) {
        if (s.name == "serve.request") request_us += s.dur_us;
        if (s.name == "serve.validate" || s.name == "serve.queue_wait" ||
            s.name == "serve.charge" || s.name == "serve.execute")
          stages_us += s.dur_us;
      }
    }
    auto share = [&](const char* name) {
      return request_us > 0.0 ? self_us[name] / request_us : 0.0;
    };
    const double traced_p50 = CellMedianLatency(tp);

    metrics = {
        {"matrix.solver.lsmr_ms",
         per_req_ms("ektelo_solver_seconds_sum{solver=\"lsmr\"}"), "ms"},
        {"matrix.solver.lsmr_iters_per_call",
         lsmr_calls > 0
             ? timed.Delta("ektelo_solver_iterations_total{solver=\"lsmr\"}") /
                   lsmr_calls
             : 0.0,
         "count"},
        {"plans.infer_ms", plan_stage("infer"), "ms"},
        {"plans.select_ms", plan_stage("select"), "ms"},
        {"plans.measure_ms", plan_stage("measure"), "ms"},
        {"plans.partition_ms", plan_stage("partition"), "ms"},
        {"serve.queue_wait_ms", stage("queue_wait"), "ms"},
        {"loadgen.lag_p99_ms", TailPercentile(lags).value * 1e3, "ms"},
        {"loadgen.pooled_p50_ms", Finite(Median(lat)) * 1e3, "ms"},
        {"util.parallel_for_ms", pf_sum * 1e3 / received, "ms"},
        {"util.parallel_for_calls",
         timed.Delta("ektelo_parallel_for_seconds_count"), "count"},
        {"util.parallel_for.shard_fill",
         pf_sum > 0 ? timed.Delta("ektelo_parallel_for_shard_seconds_sum") /
                          (pf_sum * width)
                    : 0.0,
         "ratio"},
        {"kernel.setup_ms", Median(ksetup) * 1e3, "ms"},
        {"serve.validate_ms", stage("validate"), "ms"},
        {"serve.charge_ms", stage("charge"), "ms"},
        {"serve.ledger_append_ms",
         per_req_ms("ektelo_ledger_io_seconds_sum{op=\"append\"}"), "ms"},
        {"serve.transport_ms", transport_ms, "ms"},
        {"serve.coalesce_ratio", coalesced / received, "ratio"},
        {"serve.executions",
         timed.Delta("ektelo_serve_requests_total{event=\"executed\"}"),
         "count"},
        {"serve.coalesced", coalesced, "count"},
        {"matrix.cache.hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"matrix.cache.misses", misses, "count"},
        {"matrix.cache.evictions",
         timed.Delta("ektelo_cache_evictions_total"), "count"},
        {"matrix.cache.probe_ms", per_req_ms("ektelo_cache_probe_seconds_sum"),
         "ms"},
        {"matrix.rewrite.searches",
         timed.Delta("ektelo_rewrite_searches_total"), "count"},
        {"matrix.solver.nnls_ms",
         per_req_ms("ektelo_solver_seconds_sum{solver=\"nnls\"}"), "ms"},
        {"matrix.solver.cg_calls",
         timed.Delta("ektelo_solver_seconds_count{solver=\"cg\"}"), "count"},
        {"store.disk_hits",
         timed.Delta("ektelo_cache_requests_total{tier=\"disk\",event=\"hit\"}"),
         "count"},
        {"store.disk_writes",
         timed.Delta(
             "ektelo_cache_requests_total{tier=\"disk\",event=\"write\"}"),
         "count"},
        {"store.write_behind_dropped",
         timed.Delta("ektelo_store_write_behind_dropped_total"), "count"},
        {"store.write_behind_enqueued",
         timed.Delta("ektelo_store_write_behind_enqueued_total"), "count"},
        {"serve.execute_ms", stage("execute"), "ms"},
        {"serve.total_ms", stage("total"), "ms"},
        {"plans.inproc_execute_ms", Median(inproc) * 1e3, "ms"},
        {"serve.overhead_ms", (Finite(p50) - Median(inproc)) * 1e3, "ms"},
        {"trace.self_share.serve.execute", share("serve.execute"), "ratio"},
        {"trace.self_share.plan.infer", share("plan.infer"), "ratio"},
        {"trace.self_share.solver.lsmr", share("solver.lsmr"), "ratio"},
        {"trace.self_share.parallel_for", share("parallel_for"), "ratio"},
        {"trace.self_share.cache.probe", share("cache.probe"), "ratio"},
        {"trace.coverage",
         double(tp.traces.size()) /
             double(std::max<std::size_t>(1, tp.outcomes.size())),
         "ratio"},
        {"trace.overhead_p50",
         p50 > 0 ? Finite(traced_p50) / Finite(p50) - 1.0 : 0.0,
         "ratio"},
        {"trace.stage_reconcile",
         request_us > 0 ? stages_us / request_us : 0.0, "ratio"},
    };
  }

  std::printf("%s\n", MachineRecord(w, args.seed, timed).c_str());
  // Digest of (index, reply bytes) over the first timed requests: equal
  // for every run of one seed and build.
  uint64_t digest = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(256, timed.replies.size());
       ++i)
    digest = Mix(digest ^ i, timed.replies[i].digest);
  std::printf("{\"samples\": {\"timed\": %zu, \"ok\": %zu, \"tail\": \"p%g\", "
              "\"setup_spawns\": %zu, \"digest\": \"%016" PRIx64 "\"}}\n",
              timed.outcomes.size(), ok, tail.p * 100, setup_s.size(), digest);
  gates.Report();
  std::string js = "{\"correct\": ";
  js += gates.ok() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, attempted));
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) js += ", ";
    js += Quote(metrics[i].name) + ": {\"value\": " +
          FormatNumber(metrics[i].value) + ", \"unit\": " +
          Quote(metrics[i].unit) + "}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return gates.ok() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }

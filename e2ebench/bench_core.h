// Pure building blocks of the end-to-end serving benchmark: seeded input
// generation, the tail-percentile rule, the open- and closed-loop request
// loops, span self-time attribution, and small parsers for the
// daemon's Prometheus and Chrome-trace text.  Everything here is free of
// sockets and processes so selftest.cc can exercise it directly.
#ifndef E2EBENCH_BENCH_CORE_H_
#define E2EBENCH_BENCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2ebench {

// ------------------------------------------------------------ randomness

/// SplitMix64 stream.  The benchmark draws every input from its own
/// generator so a change to the library's Rng never changes which
/// requests a seed produces.
struct Prng {
  uint64_t state;
  explicit Prng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return double(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t Below(std::size_t n) { return std::size_t(Next() % n); }
};

inline uint64_t Mix(uint64_t a, uint64_t b) {
  return Prng(a * 0xD1B54A32D192ED03ull ^ b).Next();
}

/// Zipf(s) over ranks 0..k-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t k, double s) : cdf_(k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      acc += 1.0 / std::pow(double(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t Draw(Prng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(std::size_t(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ----------------------------------------------------------- percentiles

/// Nearest-rank percentile of an ascending sample (p in (0, 1]).
inline double NearestRank(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t k = std::size_t(std::ceil(p * double(n)));
  k = std::clamp<std::size_t>(k, 1, n);
  return sorted[k - 1];
}

struct Tail {
  double p = 0.0;      // the percentile reported, e.g. 0.99
  double value = 0.0;  // +inf when a failed request sits at that rank
};

/// The tail rule: the highest percentile, up to `cap`, that still has at
/// least ten samples beyond it.  The ladder is cap, 0.9, 0.5; with too
/// few samples even for the median it reports the median anyway.
inline Tail TailPercentile(std::vector<double> samples, double cap = 0.99) {
  Tail t;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (double p : {cap, 0.9, 0.5}) {
    if (p > cap) continue;
    const std::size_t rank = std::size_t(std::ceil(p * double(n)));
    if (n >= rank + 10) return {p, NearestRank(samples, p)};
  }
  return {0.5, NearestRank(samples, 0.5)};
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return NearestRank(v, 0.5);
}

/// The median of a mix of request types: each cell's (one plan at one
/// tenant) median latency, combined as the geometric mean over cells.
/// A pooled median of a mix spanning 1 to 100 ms sits where few requests
/// fall, so a host stall that delays a share of all requests moves it by
/// far more than it moves any cell's median.  Every cell counts once,
/// whatever its sample count.  A cell whose median is +inf (half its
/// requests failed) makes the result +inf.
inline double CellMedianGeoMean(
    const std::map<std::string, std::vector<double>>& cells) {
  if (cells.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [cell, lat] : cells) {
    const double m = Median(lat);
    if (!std::isfinite(m)) return m;
    log_sum += std::log(m);
  }
  return std::exp(log_sum / double(cells.size()));
}

// ---------------------------------------------------------- request loops

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One request as the load generator saw it.  Latency runs from the time
/// the request was due (its scheduled send time in an open loop, its
/// actual send time in a closed loop), so a stall that delays later sends
/// shows up in their latency.
struct Outcome {
  std::size_t index = 0;
  bool ok = false;     // kOk reply that passed every check
  double lat_s = 0.0;  // completion - due
  double lag_s = 0.0;  // actual send - due
  double rtt_s = 0.0;  // completion - actual send
  double end_s = 0.0;  // completion, relative to the phase start
};

/// send(worker, index, &replied) sends one request, sets `replied` to
/// the moment the reply arrived (before any checking of it), and returns
/// true for an OK reply.  A sender that leaves `replied` unset is timed
/// to its return.
template <class Send>
bool TimedSend(Send& send, std::size_t w, std::size_t i,
               Clock::time_point* end) {
  *end = Clock::time_point{};
  const bool ok = send(w, i, end);
  if (*end == Clock::time_point{}) *end = Clock::now();
  return ok;
}

/// Open loop: request i is due at start + due_s[i] whatever happened to
/// earlier requests.  `threads` senders each own one connection; when all
/// of them are busy the next request goes out late and its lateness
/// counts in its latency.
template <class Send>
std::vector<Outcome> RunOpenLoop(const std::vector<double>& due_s,
                                 std::size_t threads, Send&& send) {
  std::vector<Outcome> out(due_s.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  auto body = [&](std::size_t w) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_s.size()) return;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Clock::time_point end;
      const bool ok = TimedSend(send, w, i, &end);
      out[i] = {i,
                ok,
                Seconds(end - due),
                Seconds(sent - due),
                Seconds(end - sent),
                Seconds(end - t0)};
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(body, w);
  for (std::thread& t : pool) t.join();
  return out;
}

/// Closed loop: each of `clients` callers sends its next request only
/// after the previous reply, until `seconds` have passed.  Requests are
/// numbered in send order across clients; the result is sorted by index.
/// Latency runs from the actual send; lag is the caller's own turnaround
/// from its previous reply to this send.
template <class Send>
std::vector<Outcome> RunClosedLoop(std::size_t clients, double seconds,
                                   Send&& send) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Outcome>> per(clients);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto body = [&](std::size_t w) {
    Clock::time_point prev = t0;
    while (Clock::now() < stop) {
      const std::size_t i = next.fetch_add(1);
      const Clock::time_point sent = Clock::now();
      Clock::time_point end;
      const bool ok = TimedSend(send, w, i, &end);
      const double rtt = Seconds(end - sent);
      per[w].push_back(
          {i, ok, rtt, Seconds(sent - prev), rtt, Seconds(end - t0)});
      prev = end;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < clients; ++w) pool.emplace_back(body, w);
  for (std::thread& t : pool) t.join();
  std::vector<Outcome> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(),
            [](const Outcome& a, const Outcome& b) { return a.index < b.index; });
  return out;
}

// ---------------------------------------------------------- attribution

/// One completed span of one request, as exported by the daemon.
struct SpanRec {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
};

/// Self time per span name for one request's spans: each span's
/// duration minus the part of its interval its child spans cover.  A
/// span's parent is the shortest span that contains its interval,
/// preferring one on the same thread; a span with no container on its
/// own thread (queue wait and execute on a serve worker, ParallelFor
/// shards on pool threads) hangs under the shortest containing span of
/// another name on any thread.
inline std::map<std::string, double> SelfTimesUs(
    const std::vector<SpanRec>& spans) {
  const std::size_t n = spans.size();
  // Longest first; a parent always precedes its children in this order,
  // which also breaks ties between equal intervals without cycles.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].dur_us > spans[b].dur_us;
  });
  auto contains = [&](const SpanRec& p, const SpanRec& c) {
    return p.ts_us <= c.ts_us && c.ts_us + c.dur_us <= p.ts_us + p.dur_us;
  };
  std::vector<std::vector<std::pair<double, double>>> kids(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const SpanRec& c = spans[order[pos]];
    std::size_t same = n, other = n;
    for (std::size_t q = pos; q-- > 0;) {
      const SpanRec& p = spans[order[q]];
      if (!contains(p, c)) continue;
      if (p.tid == c.tid) {
        same = order[q];
        break;  // scanning from shortest upward: the first hit is tightest
      }
      if (other == n && p.name != c.name) other = order[q];
    }
    const std::size_t parent = same != n ? same : other;
    if (parent != n) kids[parent].push_back({c.ts_us, c.ts_us + c.dur_us});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < n; ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[spans[i].name] += std::max(0.0, spans[i].dur_us - covered);
  }
  return self;
}

// --------------------------------------------------------------- parsers

/// Prometheus text exposition -> {"name{labels}": value}.  Comment lines
/// are skipped; the key is the series text exactly as the daemon prints
/// it.
inline std::map<std::string, double> ParseProm(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Minimal JSON reader for the daemon's Chrome trace_event export.
struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* Get(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}
  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool Lit(const char* w) {
    const std::size_t len = std::char_traits<char>::length(w);
    if (s_.compare(i_, len, w) != 0) return false;
    i_ += len;
    return true;
  }
  bool Str(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'n') c = '\n';
        else if (e == 't') c = '\t';
        else if (e == 'r') c = '\r';
        else if (e == 'u') {
          if (i_ + 4 > s_.size()) return false;
          c = char(std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
          i_ += 4;
        } else {
          c = e;
        }
      }
      out->push_back(c);
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool Value(Json* v) {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      v->kind = Json::kObj;
      ++i_;
      Ws();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      for (;;) {
        Ws();
        std::string key;
        if (!Str(&key)) return false;
        Ws();
        if (i_ >= s_.size() || s_[i_++] != ':') return false;
        Json item;
        if (!Value(&item)) return false;
        v->obj.emplace_back(std::move(key), std::move(item));
        Ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') { ++i_; continue; }
        if (s_[i_] == '}') return ++i_, true;
        return false;
      }
    }
    if (c == '[') {
      v->kind = Json::kArr;
      ++i_;
      Ws();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      for (;;) {
        Json item;
        if (!Value(&item)) return false;
        v->arr.push_back(std::move(item));
        Ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') { ++i_; continue; }
        if (s_[i_] == ']') return ++i_, true;
        return false;
      }
    }
    if (c == '"') {
      v->kind = Json::kStr;
      return Str(&v->str);
    }
    if (Lit("true")) { v->kind = Json::kBool; v->num = 1; return true; }
    if (Lit("false")) { v->kind = Json::kBool; return true; }
    if (Lit("null")) { v->kind = Json::kNull; return true; }
    char* end = nullptr;
    v->num = std::strtod(s_.c_str() + i_, &end);
    if (end == s_.c_str() + i_) return false;
    v->kind = Json::kNum;
    i_ = std::size_t(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Chrome trace export -> spans grouped by request id.  The daemon emits
/// one synthetic process per request, named "request <id> ...".
inline bool ParseChromeTrace(const std::string& text,
                             std::map<uint64_t, std::vector<SpanRec>>* out) {
  Json root;
  if (!JsonParser(text).Parse(&root)) return false;
  const Json* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != Json::kArr) return false;
  std::map<double, uint64_t> pid_to_id;
  for (const Json& ev : events->arr) {
    const Json* ph = ev.Get("ph");
    const Json* name = ev.Get("name");
    const Json* pid = ev.Get("pid");
    if (ph == nullptr || name == nullptr || pid == nullptr) continue;
    if (ph->str == "M" && name->str == "process_name") {
      const Json* args = ev.Get("args");
      const Json* pname = args != nullptr ? args->Get("name") : nullptr;
      if (pname == nullptr) continue;
      const std::string& s = pname->str;
      if (s.rfind("request ", 0) != 0) continue;
      pid_to_id[pid->num] = std::strtoull(s.c_str() + 8, nullptr, 10);
      (*out)[pid_to_id[pid->num]];
    }
  }
  for (const Json& ev : events->arr) {
    const Json* ph = ev.Get("ph");
    if (ph == nullptr || ph->str != "X") continue;
    const Json* pid = ev.Get("pid");
    const Json* name = ev.Get("name");
    const Json* ts = ev.Get("ts");
    const Json* dur = ev.Get("dur");
    const Json* tid = ev.Get("tid");
    if (pid == nullptr || name == nullptr || ts == nullptr ||
        dur == nullptr || tid == nullptr)
      return false;
    const auto it = pid_to_id.find(pid->num);
    if (it == pid_to_id.end()) continue;
    (*out)[it->second].push_back(
        {name->str, ts->num, dur->num, uint32_t(tid->num)});
  }
  return true;
}

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_CORE_H_

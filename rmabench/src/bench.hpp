// Shared pieces of the rmabench binary: seeded inputs, per-call spans,
// the closed-loop client, round results and metric tables.
//
// Two clocks appear everywhere and are never mixed:
//   * virtual time ("v"): SimWorld's modeled clock, read via comm.now_ns().
//     Deterministic: a round repeated with the same seed must reproduce
//     every virtual-time value bit for bit, traced or not.
//   * host time: std::chrono::steady_clock on the machine running the
//     benchmark. Noisy; reported as medians over repeated rounds.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "rma/comm.hpp"
#include "rma/world.hpp"

namespace rmabench {

using rmalock::i32;
using rmalock::i64;
using rmalock::Nanos;
using rmalock::Rank;
using rmalock::u32;
using rmalock::u64;
using rmalock::u8;
using rmalock::usize;

/// A failed correctness check: main() prints it and exits non-zero
/// without a result line.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Host wall clock.
class HostTimer {
 public:
  HostTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Input generator. Deliberately independent of the library's RNGs so a
/// library revision cannot change the benchmark's inputs.
class InputRng {
 public:
  explicit InputRng(u64 seed) : state_(seed ^ 0x6a09e667f3bcc909ULL) {}
  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  u64 state_;
};

/// FNV-1a over 64-bit words: digests of inputs and of virtual outputs.
class Digest {
 public:
  void add(u64 word) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((word >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ULL;
};

enum class Kind : u8 { kRead, kWrite };

/// One pre-generated client request: read or write, its key or value, and
/// the think time the client spends before issuing it.
struct Request {
  Kind kind = Kind::kRead;
  i64 arg = 0;
  Nanos think_ns = 0;
};

/// Per-rank request streams (empty for ranks that issue nothing).
struct Streams {
  std::vector<std::vector<Request>> per_rank;
  std::vector<u32> first_id;  // global id of each rank's first request
  u64 total = 0;
  u64 reads = 0;
  u64 writes = 0;

  void finish();  // fills first_id and the counts
  [[nodiscard]] u64 digest() const;
};

// --- spans -------------------------------------------------------------------

/// The layer calls the benchmark times. kRequest is the client's request
/// itself (the parent span of every call below it).
enum class Call : u8 {
  kRequest,
  kAcquireRead,
  kReleaseRead,
  kAcquireWrite,
  kReleaseWrite,
  kDhtContains,
  kDhtInsert,
  kLsAcquire,
  kLsWritePayload,
  kLsRelease,
  kLsOptimisticRead,
  kCount,
};

[[nodiscard]] const char* call_name(Call call);   // e.g. "locks.acquire_read"
[[nodiscard]] const char* call_layer(Call call);  // e.g. "locks"

struct Span {
  Nanos start = 0;
  Nanos end = 0;
  u32 req = 0;
  i32 rank = 0;
  u32 remote_ops = 0;  // ops of distance class >= 2 issued during the call
  Call call = Call::kRequest;
};

/// In-memory span log of a traced round. Disabled (the untraced rounds),
/// call() only invokes the function.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Offset added to every request id recorded from now on: a round made
  /// of several worlds numbers its requests consecutively across them.
  void set_request_base(u32 base) { base_ = base; }

  template <typename F>
  auto call(rmalock::rma::RmaComm& comm, Call call, u32 req, F&& fn) {
    if (!enabled_) return fn();
    const Nanos start = comm.now_ns();
    const u64 remote = comm.stats().total_at_least(2);
    auto out = fn();
    record(call, comm.rank(), req, start, comm.now_ns(),
           comm.stats().total_at_least(2) - remote);
    return out;
  }

  void record(Call call, Rank rank, u32 req, Nanos start, Nanos end,
              u64 remote_ops) {
    spans_.push_back(Span{start, end, base_ + req, rank,
                          static_cast<u32>(remote_ops), call});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  u32 base_ = 0;
  std::vector<Span> spans_;
};

/// Distribution of one call's spans.
struct CallStats {
  u64 count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double remote_per_call = 0;
};
[[nodiscard]] CallStats call_stats(const SpanLog& log, Call call);

/// Checks that every request's traced latency equals the one measured in
/// an untraced round (`latency[req]`) and that its child spans nest inside
/// it without overlapping; the per-layer self times then sum exactly to
/// that latency. Returns the per-layer table (layer -> total self virtual
/// ns).
std::map<std::string, i64> check_self_times(const SpanLog& log,
                                            const std::vector<Nanos>& latency);

/// Writes the spans of requests with id < max_requests as Chrome
/// trace-event JSON (loadable in Perfetto); returns the number written.
usize write_perfetto(const SpanLog& log, const std::string& path,
                     u32 max_requests);

/// Human-readable per-call and per-layer table built from the spans.
[[nodiscard]] std::string layer_table(const SpanLog& log,
                                      const std::map<std::string, i64>& self,
                                      const std::vector<Nanos>& latency);

// --- closed-loop client ------------------------------------------------------

/// Outcome of one closed-loop World::run.
struct LoopResult {
  std::vector<Nanos> latency;  // virtual ns, indexed by request id
  Nanos makespan_ns = 0;       // first barrier to last barrier
  rmalock::rma::RunResult run;
  double run_s = 0;            // host seconds inside World::run
};

/// Runs every rank's stream closed-loop: think, issue, serve, record the
/// latency, next. `serve(comm, request, id)` performs one request through
/// the layer under test. A barrier brackets the measured phase.
template <typename Serve>
LoopResult run_closed_loop(rmalock::rma::World& world, const Streams& streams,
                           SpanLog& spans, Serve&& serve) {
  LoopResult out;
  out.latency.assign(streams.total, 0);
  Nanos t0 = 0;
  Nanos t1 = 0;
  const HostTimer timer;
  out.run = world.run([&](rmalock::rma::RmaComm& comm) {
    const auto rank = static_cast<usize>(comm.rank());
    const std::vector<Request>& mine = streams.per_rank[rank];
    const u32 base = streams.first_id[rank];
    comm.barrier();
    if (rank == 0) t0 = comm.now_ns();
    for (usize i = 0; i < mine.size(); ++i) {
      const Request& req = mine[i];
      const u32 id = base + static_cast<u32>(i);
      if (req.think_ns > 0) comm.compute(req.think_ns);
      const Nanos issue = comm.now_ns();
      const u64 remote =
          spans.enabled() ? comm.stats().total_at_least(2) : 0;
      serve(comm, req, id);
      const Nanos done = comm.now_ns();
      out.latency[id] = done - issue;
      if (spans.enabled()) {
        spans.record(Call::kRequest, comm.rank(), id, issue, done,
                     comm.stats().total_at_least(2) - remote);
      }
    }
    comm.barrier();
    if (rank == 0) t1 = comm.now_ns();
  });
  out.run_s = timer.seconds();
  out.makespan_ns = t1 - t0;
  return out;
}

/// Serial critical-section log of one reader/writer lock. SimWorld runs
/// every process on one OS thread, so plain counters see the engine's
/// serial order.
struct RwCsLog {
  i32 readers = 0;
  i32 writers = 0;
  u64 violations = 0;
  u64 read_entries = 0;
  u64 write_entries = 0;
  u64 writer_runs = 0;  // maximal runs of consecutive writer entries
  u64 readers_sum = 0;  // readers inside (self included) at each read entry
  bool last_was_writer = false;

  void enter_read() {
    if (writers != 0) ++violations;
    ++readers;
    ++read_entries;
    readers_sum += static_cast<u64>(readers);
    last_was_writer = false;
  }
  void exit_read() { --readers; }
  void enter_write() {
    if (writers != 0 || readers != 0) ++violations;
    ++writers;
    ++write_entries;
    if (!last_was_writer) ++writer_runs;
    last_was_writer = true;
  }
  void exit_write() { --writers; }
};

// --- rounds and metrics ------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// Nearest-rank percentile of an ascending-sorted sample, p in (0, 1].
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);
[[nodiscard]] double median(std::vector<double> values);

/// One reader/writer-lock request: acquire in the request's mode, run the
/// critical section `cs` between the serial CS log's enter and exit, and
/// release; each lock call is recorded as a span.
template <typename Lock, typename Cs>
void rw_request(rmalock::rma::RmaComm& comm, Lock& lock, const Request& req,
                u32 id, SpanLog& spans, RwCsLog& log, Cs&& cs) {
  if (req.kind == Kind::kWrite) {
    spans.call(comm, Call::kAcquireWrite, id, [&] {
      lock.acquire_write(comm);
      return 0;
    });
    log.enter_write();
    cs();
    log.exit_write();
    spans.call(comm, Call::kReleaseWrite, id, [&] {
      lock.release_write(comm);
      return 0;
    });
  } else {
    spans.call(comm, Call::kAcquireRead, id, [&] {
      lock.acquire_read(comm);
      return 0;
    });
    log.enter_read();
    cs();
    log.exit_read();
    spans.call(comm, Call::kReleaseRead, id, [&] {
      lock.release_read(comm);
      return 0;
    });
  }
}

/// One execution of a workload: set-up, measured calls, checks.
struct Round {
  std::vector<double> setup_s;  // host seconds of each set-up performed
  double work_s = 0;            // host seconds in World::run / mc::check_*
  u64 requests = 0;             // lock requests completed in those calls
  u64 attempted = 0;
  u64 failed = 0;
  Metrics virt;  // virtual-time values and exact counts: identical per seed
  Metrics host;  // host-time per-layer values of this round
  Metrics traced;  // per-layer values only a traced round yields
  u64 vdigest = 0;  // digest of every virtual output of the round
};

/// Accumulates the closed-loop runs of one round — a workload may split a
/// round into several independent worlds — into the shared metrics.
class LoopTotals {
 public:
  /// Adds one loop that ran `streams` on `world`; `tracer` is the world's
  /// armed tracer in a traced round, else null.
  void add(const rmalock::rma::World& world, const Streams& streams,
           const LoopResult& loop, const rmalock::obs::Tracer* tracer);

  /// Writes the latency and throughput metrics, the sample counts and the
  /// rma.* metrics into `round` (and work_s / requests / attempted), and
  /// folds every virtual output into `digest`. Fails a check if a latency
  /// class has fewer than `min_samples` samples.
  void report(u64 min_samples, Round& round, Digest& digest) const;

  /// The obs.* metrics and park/wake rates from the tracers of traced
  /// loops.
  void report_tracer(Metrics& out) const;

  /// Per-request virtual latencies, concatenated in add() order.
  [[nodiscard]] const std::vector<Nanos>& latency() const { return latency_; }

 private:
  std::vector<double> reads_us_;
  std::vector<double> writes_us_;
  std::vector<Nanos> latency_;
  Nanos makespan_ns_ = 0;
  u64 steps_ = 0;
  u64 ops_ = 0;
  u64 remote_ops_ = 0;
  u64 atomic_ops_ = 0;
  double run_s_ = 0;
  Digest stats_digest_;  // every op count by kind and distance class
  // Tracer counts of traced loops.
  u64 emitted_ = 0;
  u64 dropped_ = 0;
  u64 parks_ = 0;
  u64 wakes_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Prints the input description and digest.
  virtual void describe() const = 0;
  /// One-off work before the measured rounds (a correctness gate).
  virtual void prepare() {}
  /// Runs the workload once. A traced round arms an obs::Tracer, records
  /// spans and writes its artifacts under `out_dir`.
  virtual Round run_round(bool traced, const std::string& out_dir) = 0;
};

std::unique_ptr<Workload> make_dht_volume(u64 seed);
std::unique_ptr<Workload> make_kv_zipf(u64 seed);
std::unique_ptr<Workload> make_mc_check(u64 seed);

/// locks.* per-call metrics of a reader/writer lock's traced spans.
void rw_lock_metrics(const SpanLog& spans, Metrics& traced);

/// Shared by the traced rounds of the closed-loop workloads. `traced` ran
/// with the tracer armed, `untraced_latency` comes from an untraced round
/// of the same inputs. Checks that the two agree bit for bit and that the
/// spans account for every request exactly, writes
/// <out_dir>/<workload>.perfetto.json and <workload>.layers.txt, prints the
/// per-layer table, and adds the obs.* and tracer-count metrics to `out`.
void finish_traced(const std::string& out_dir, const std::string& workload,
                   const SpanLog& spans, const LoopTotals& traced,
                   const std::vector<Nanos>& untraced_latency, Metrics& out);

}  // namespace rmabench

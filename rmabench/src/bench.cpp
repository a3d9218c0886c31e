#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace rmabench {

void Streams::finish() {
  first_id.assign(per_rank.size(), 0);
  total = reads = writes = 0;
  for (usize r = 0; r < per_rank.size(); ++r) {
    first_id[r] = static_cast<u32>(total);
    for (const Request& req : per_rank[r]) {
      ++total;
      ++(req.kind == Kind::kRead ? reads : writes);
    }
  }
}

u64 Streams::digest() const {
  Digest d;
  for (const auto& stream : per_rank) {
    d.add(stream.size());
    for (const Request& req : stream) {
      d.add(static_cast<u64>(req.kind));
      d.add(static_cast<u64>(req.arg));
      d.add(static_cast<u64>(req.think_ns));
    }
  }
  return d.value();
}

// --- spans -------------------------------------------------------------------

namespace {

struct CallInfo {
  const char* name;
  const char* layer;
};

constexpr CallInfo kCalls[] = {
    {"request", "request"},
    {"locks.acquire_read", "locks"},
    {"locks.release_read", "locks"},
    {"locks.acquire_write", "locks"},
    {"locks.release_write", "locks"},
    {"dht.contains_locked", "dht"},
    {"dht.insert_locked", "dht"},
    {"lockspace.acquire", "lockspace"},
    {"lockspace.write_payload", "lockspace"},
    {"lockspace.release", "lockspace"},
    {"lockspace.optimistic_read", "lockspace"},
};
static_assert(std::size(kCalls) == static_cast<usize>(Call::kCount));

double to_us(Nanos ns) { return static_cast<double>(ns) / 1e3; }

/// Exact decimal microseconds of a nanosecond count ("12.345").
std::string us_text(Nanos ns) {
  std::ostringstream os;
  os << ns / 1000 << '.';
  const Nanos frac = ns % 1000;
  os << (frac < 100 ? "0" : "") << (frac < 10 ? "0" : "") << frac;
  return os.str();
}

}  // namespace

const char* call_name(Call call) {
  return kCalls[static_cast<usize>(call)].name;
}
const char* call_layer(Call call) {
  return kCalls[static_cast<usize>(call)].layer;
}

CallStats call_stats(const SpanLog& log, Call call) {
  std::vector<double> durations;
  u64 remote = 0;
  for (const Span& span : log.spans()) {
    if (span.call != call) continue;
    durations.push_back(to_us(span.end - span.start));
    remote += span.remote_ops;
  }
  CallStats stats;
  stats.count = durations.size();
  if (durations.empty()) return stats;
  std::sort(durations.begin(), durations.end());
  double sum = 0;
  for (const double d : durations) sum += d;
  const auto n = static_cast<double>(durations.size());
  stats.mean_us = sum / n;
  stats.p50_us = percentile(durations, 0.50);
  stats.p99_us = percentile(durations, 0.99);
  stats.remote_per_call = static_cast<double>(remote) / n;
  return stats;
}

std::map<std::string, i64> check_self_times(const SpanLog& log,
                                            const std::vector<Nanos>& latency) {
  // Group spans by request: the parent plus its children in start order.
  std::vector<const Span*> parent(latency.size(), nullptr);
  std::vector<std::vector<const Span*>> children(latency.size());
  for (const Span& span : log.spans()) {
    require(span.req < latency.size(), "span of an unknown request");
    if (span.call == Call::kRequest) {
      require(parent[span.req] == nullptr, "request span recorded twice");
      parent[span.req] = &span;
    } else {
      children[span.req].push_back(&span);
    }
  }
  std::map<std::string, i64> self;
  for (usize req = 0; req < latency.size(); ++req) {
    const Span* p = parent[req];
    require(p != nullptr, "request " + std::to_string(req) + " has no span");
    require(p->end - p->start == latency[req],
            "request " + std::to_string(req) +
                ": traced latency differs from the untraced round");
    std::map<std::string, i64> mine;
    Nanos cursor = p->start;
    for (const Span* c : children[req]) {
      require(c->rank == p->rank && c->start >= cursor && c->end >= c->start &&
                  c->end <= p->end,
              "request " + std::to_string(req) + ": " + call_name(c->call) +
                  " span does not nest inside its request");
      cursor = c->end;
      mine[call_layer(c->call)] += c->end - c->start;
    }
    i64 children_total = 0;
    for (const auto& [layer, ns] : mine) children_total += ns;
    // The children are disjoint and inside the request, so the request's
    // own time is what they leave and the layer self times sum exactly to
    // the request's latency, which equals the untraced one (checked above).
    mine["request"] += (p->end - p->start) - children_total;
    for (const auto& [layer, ns] : mine) self[layer] += ns;
  }
  return self;
}

usize write_perfetto(const SpanLog& log, const std::string& path,
                     u32 max_requests) {
  std::ofstream out(path, std::ios::binary);
  require(static_cast<bool>(out), "cannot write " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  usize written = 0;
  for (const Span& span : log.spans()) {
    if (span.req >= max_requests) continue;
    ++written;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << call_name(span.call) << "\",\"cat\":\""
        << call_layer(span.call) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.rank << ",\"ts\":" << us_text(span.start)
        << ",\"dur\":" << us_text(span.end - span.start)
        << ",\"args\":{\"req\":" << span.req
        << ",\"remote_ops\":" << span.remote_ops << "}}";
  }
  out << "\n]}\n";
  require(static_cast<bool>(out), "write failed: " + path);
  return written;
}

std::string layer_table(const SpanLog& log,
                        const std::map<std::string, i64>& self,
                        const std::vector<Nanos>& latency) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %9s %11s %11s %11s %9s\n", "call",
                "count", "mean_vus", "p50_vus", "p99_vus", "remote");
  os << line;
  for (usize c = 0; c < static_cast<usize>(Call::kCount); ++c) {
    const CallStats s = call_stats(log, static_cast<Call>(c));
    if (s.count == 0) continue;
    std::snprintf(line, sizeof line, "%-28s %9llu %11.3f %11.3f %11.3f %9.3f\n",
                  call_name(static_cast<Call>(c)),
                  static_cast<unsigned long long>(s.count), s.mean_us,
                  s.p50_us, s.p99_us, s.remote_per_call);
    os << line;
  }
  i64 total = 0;
  for (const Nanos l : latency) total += l;
  std::snprintf(line, sizeof line, "%-12s %16s %9s\n", "layer", "self_vns",
                "share");
  os << line;
  for (const auto& [layer, ns] : self) {
    std::snprintf(line, sizeof line, "%-12s %16lld %8.4f%%\n", layer.c_str(),
                  static_cast<long long>(ns),
                  total > 0 ? 100.0 * static_cast<double>(ns) /
                                  static_cast<double>(total)
                            : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-12s %16lld (sum of request latencies)\n",
                "total", static_cast<long long>(total));
  os << line;
  return os.str();
}

// --- metrics -----------------------------------------------------------------

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<usize>(std::ceil(p * n));
  rank = std::clamp<usize>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const usize n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void LoopTotals::add(const rmalock::rma::World& world, const Streams& streams,
                     const LoopResult& loop,
                     const rmalock::obs::Tracer* tracer) {
  using rmalock::rma::OpKind;
  for (usize r = 0; r < streams.per_rank.size(); ++r) {
    const auto& stream = streams.per_rank[r];
    for (usize i = 0; i < stream.size(); ++i) {
      const double us = to_us(loop.latency[streams.first_id[r] + i]);
      (stream[i].kind == Kind::kRead ? reads_us_ : writes_us_).push_back(us);
    }
  }
  latency_.insert(latency_.end(), loop.latency.begin(), loop.latency.end());
  require(loop.makespan_ns > 0, "empty measured phase");
  makespan_ns_ += loop.makespan_ns;
  steps_ += loop.run.steps;
  run_s_ += loop.run_s;
  const rmalock::rma::OpStats stats = world.aggregate_stats();
  ops_ += stats.total_ops();
  remote_ops_ += stats.total_at_least(2);
  for (usize k = 0; k < rmalock::rma::kOpKindCount; ++k) {
    const auto kind = static_cast<OpKind>(k);
    if (rmalock::rma::is_atomic_op(kind)) atomic_ops_ += stats.total(kind);
    for (i32 d = 0; d <= stats.num_distance_classes(); ++d) {
      stats_digest_.add(stats.count(kind, d));
    }
  }
  stats_digest_.add(static_cast<u64>(loop.makespan_ns));
  stats_digest_.add(loop.run.steps);
  if (tracer != nullptr) {
    emitted_ += tracer->total_emitted();
    dropped_ += tracer->total_dropped();
    parks_ += tracer->count(rmalock::obs::EventCode::kPark);
    wakes_ += tracer->count(rmalock::obs::EventCode::kWake);
  }
}

void LoopTotals::report(u64 min_samples, Round& round, Digest& digest) const {
  require(reads_us_.size() >= min_samples && writes_us_.size() >= min_samples,
          "too few latency samples for a p99 with ten beyond it");
  std::vector<double> reads = reads_us_;
  std::vector<double> writes = writes_us_;
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  const auto requests = static_cast<double>(latency_.size());
  Metrics& virt = round.virt;
  virt["read_vlat_p50_us"] = percentile(reads, 0.50);
  virt["read_vlat_p99_us"] = percentile(reads, 0.99);
  virt["write_vlat_p50_us"] = percentile(writes, 0.50);
  virt["write_vlat_p99_us"] = percentile(writes, 0.99);
  virt["read_samples"] = static_cast<double>(reads.size());
  virt["write_samples"] = static_cast<double>(writes.size());
  virt["vthroughput_mops"] =
      requests / (static_cast<double>(makespan_ns_) / 1e9) / 1e6;
  virt["rma.steps_per_req"] = static_cast<double>(steps_) / requests;
  virt["rma.ops_per_req"] = static_cast<double>(ops_) / requests;
  virt["rma.remote_ops_per_req"] = static_cast<double>(remote_ops_) / requests;
  virt["rma.atomic_ops_per_req"] = static_cast<double>(atomic_ops_) / requests;
  round.host["rma.run_s"] = run_s_;
  round.host["rma.host_ns_per_step"] =
      run_s_ * 1e9 / static_cast<double>(steps_);
  round.work_s += run_s_;
  round.requests += latency_.size();
  round.attempted += latency_.size();
  for (const Nanos l : latency_) digest.add(static_cast<u64>(l));
  digest.add(stats_digest_.value());
}

void LoopTotals::report_tracer(Metrics& out) const {
  const auto requests = static_cast<double>(latency_.size());
  out["obs.events_per_req"] = static_cast<double>(emitted_) / requests;
  out["obs.dropped"] = static_cast<double>(dropped_);
  out["rma.parks_per_req"] = static_cast<double>(parks_) / requests;
  out["rma.wakes_per_req"] = static_cast<double>(wakes_) / requests;
}

void rw_lock_metrics(const SpanLog& spans, Metrics& traced) {
  const CallStats acq_r = call_stats(spans, Call::kAcquireRead);
  const CallStats acq_w = call_stats(spans, Call::kAcquireWrite);
  traced["locks.acquire_read_vus_p50"] = acq_r.p50_us;
  traced["locks.acquire_read_vus_p99"] = acq_r.p99_us;
  traced["locks.acquire_write_vus_p50"] = acq_w.p50_us;
  traced["locks.acquire_write_vus_p99"] = acq_w.p99_us;
  traced["locks.release_read_vus_mean"] =
      call_stats(spans, Call::kReleaseRead).mean_us;
  traced["locks.release_write_vus_mean"] =
      call_stats(spans, Call::kReleaseWrite).mean_us;
  traced["locks.remote_ops_per_acquire_read"] = acq_r.remote_per_call;
  traced["locks.remote_ops_per_acquire_write"] = acq_w.remote_per_call;
}

void finish_traced(const std::string& out_dir, const std::string& workload,
                   const SpanLog& spans, const LoopTotals& traced,
                   const std::vector<Nanos>& untraced_latency, Metrics& out) {
  require(traced.latency() == untraced_latency,
          "armed tracer changed a request latency");
  const auto self = check_self_times(spans, untraced_latency);
  const std::string table = layer_table(spans, self, untraced_latency);
  std::cout << "per-layer table (traced round, virtual time):\n" << table;
  const std::string base = out_dir + "/" + workload;
  // The export keeps the first kPerfettoRequests requests (whole ranks'
  // streams in id order) so the file stays loadable; the table above is
  // built from every span.
  constexpr u32 kPerfettoRequests = 32768;
  const usize exported =
      write_perfetto(spans, base + ".perfetto.json", kPerfettoRequests);
  {
    std::ofstream file(base + ".layers.txt");
    file << table;
    require(static_cast<bool>(file), "write failed: " + base + ".layers.txt");
  }
  std::cout << "trace artifacts: " << base << ".perfetto.json (" << exported
            << " of " << spans.spans().size() << " spans), " << base
            << ".layers.txt\n";

  traced.report_tracer(out);
}

}  // namespace rmabench

// Figure 7 (beyond the paper): LockSpace — a sharded named-lock service
// under synthetic keyed workloads.
//
// The paper's benches contend on ONE lock; a lock service multiplexes
// millions of named locks with skewed popularity (the DHT of §5.3 writ
// large). This figure sweeps the workload engine over the LockSpace:
//
//   panel A  key-space scaling — throughput vs P for key counts from 1k to
//            1M named locks (Zipfian s = 0.99, 95% reads, closed loop);
//   panel B  popularity skew — uniform vs Zipf(0.5/0.99/1.2) at a
//            write-heavy mix (50% reads), where slot contention bites;
//   panel C  sharding payoff — the sharded space vs the same backend
//            collapsed to a single global lock (shards = slots = 1), plus
//            an open-loop (Poisson arrivals) series;
//   panel D  cross-world smoke — the same 131072-key service on
//            ThreadWorld (real threads), small P. Its metrics are real
//            wall clock — the only series that legitimately varies across
//            runs and --jobs values; every SimWorld series is virtual
//            time and bit-identical.
//
// Campaign parallelism: --jobs N measures sweep points on the TaskPool;
// virtual-time metrics are bit-identical to --jobs 1 (order-preserving
// merge), and the binary additionally self-checks one point measured
// inline against the same point measured on a 2-worker pool.
#include "fig_helpers.hpp"
#include "lockspace/lockspace.hpp"
#include "rma/thread_world.hpp"
#include "workload/engine.hpp"

namespace rmalock::bench {
namespace {

using harness::FigureReport;

/// 131072 named locks — the "100k+" service size every mode must sustain.
constexpr u64 kServiceKeys = u64{1} << 17;

struct SpaceSpec {
  locks::Backend backend = locks::Backend::kRmaRw;
  i32 shards = 0;  // 0 = one per compute node
  i32 slots_per_shard = 16;
};

workload::WorkloadConfig base_workload(const BenchEnv& env, i32 p,
                                       u64 num_keys, double zipf_s,
                                       double read_fraction) {
  workload::WorkloadConfig wc;
  wc.keys.num_keys = num_keys;
  wc.keys.dist = zipf_s <= 0.0 ? workload::KeyDist::kUniform
                               : workload::KeyDist::kZipfian;
  wc.keys.zipf_s = zipf_s;
  wc.read_fraction = read_fraction;
  wc.ops_per_proc = env.ops_for(p, env.quick ? 4000 : 12000, /*min_ops=*/8);
  return wc;
}

FigureReport::SeriesPoint point_of(const std::string& series, i32 p,
                                   const workload::WorkloadResult& result) {
  FigureReport::SeriesPoint point;
  point.series = series;
  point.p = p;
  point.metrics = {{"throughput_mops_s", result.throughput_mops_s},
                   {"latency_us_mean", result.latency_us.mean},
                   {"latency_us_p50", result.latency_us.median},
                   {"latency_us_p95", result.latency_us.p95},
                   {"total_ops", static_cast<double>(result.total_ops)},
                   {"instantiated_slots",
                    static_cast<double>(result.instantiated_slots)}};
  return point;
}

/// Measures one SimWorld sweep point (pure function of its arguments —
/// safe on a TaskPool worker).
FigureReport::SeriesPoint measure_sim_point(
    const BenchEnv& env, i32 p, const std::string& series,
    const SpaceSpec& spec, const workload::WorkloadConfig& wc) {
  auto world = rma::SimWorld::create(env.sim_options_for(p));
  lockspace::LockSpaceConfig sc;
  sc.backend = spec.backend;
  sc.shards = spec.shards;
  sc.slots_per_shard = spec.slots_per_shard;
  lockspace::LockSpace space(*world, sc);
  return point_of(series, p, workload::run_workload(*world, space, wc));
}

/// ThreadWorld leg: the same service on real threads (small P — the
/// container is tiny; this is a cross-backend smoke, not a scaling run).
FigureReport::SeriesPoint measure_thread_point(const BenchEnv& env, i32 p,
                                               const std::string& series) {
  rma::ThreadOptions opts;
  opts.topology = topo::Topology::uniform({2}, p / 2);
  opts.seed = env.seed;
  auto world = rma::ThreadWorld::create(std::move(opts));
  lockspace::LockSpaceConfig sc;
  sc.backend = locks::Backend::kRmaRw;
  sc.slots_per_shard = 16;
  lockspace::LockSpace space(*world, sc);
  workload::WorkloadConfig wc = base_workload(env, p, kServiceKeys,
                                              /*zipf_s=*/0.99,
                                              /*read_fraction=*/0.95);
  wc.ops_per_proc = env.quick ? 40 : 150;
  return point_of(series, p, workload::run_workload(*world, space, wc));
}

/// One traced probe run: the self-check configuration with the event
/// tracer armed, returning everything the determinism claim covers —
/// the Chrome trace bytes, the latency histogram, and the per-shard
/// gauges. Byte-identical across --jobs settings by construction.
struct TracedProbe {
  std::string trace_json;
  obs::LogHistogram latency_hist_us;
  std::vector<lockspace::LockSpace::ShardMetrics> shards;
};

TracedProbe traced_probe(const BenchEnv& env, i32 p) {
  obs::Tracer tracer(p, /*capacity_per_rank=*/4096);
  rma::SimOptions opts = env.sim_options_for(p);
  opts.tracer = &tracer;
  auto world = rma::SimWorld::create(opts);
  lockspace::LockSpaceConfig sc;  // sharded rma-rw defaults
  lockspace::LockSpace space(*world, sc);
  const workload::WorkloadResult result = workload::run_workload(
      *world, space,
      base_workload(env, p, kServiceKeys, /*zipf_s=*/0.99,
                    /*read_fraction=*/0.95));
  TracedProbe probe;
  probe.trace_json = obs::chrome_trace_json(tracer);
  probe.latency_hist_us = result.latency_hist_us;
  probe.shards = space.metrics();
  return probe;
}

/// Exact byte rendering of a histogram (hex floats: bit-for-bit moments),
/// so "histogram output identical across jobs" is a byte comparison too.
std::string hist_bytes(const obs::LogHistogram& h) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%llu min=%a max=%a mean=%a sd=%a",
                static_cast<unsigned long long>(h.count()), h.min(), h.max(),
                h.mean(), h.stddev());
  std::string out = buf;
  for (const auto& b : h.buckets()) {
    std::snprintf(buf, sizeof buf, " [%a,%a)=%llu", b.lo, b.hi,
                  static_cast<unsigned long long>(b.count));
    out += buf;
  }
  return out;
}

}  // namespace
}  // namespace rmalock::bench

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv, /*writes_trace=*/true);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      "fig7",
      "LockSpace: named-lock service throughput [mln ops/s] and latency "
      "[us] under keyed workloads",
      "throughput must survive 100k+ named locks, degrade gracefully with "
      "popularity skew, and beat the single-global-lock regime");

  const SpaceSpec sharded_rw;  // rma-rw, one shard per node, 16 slots
  SpaceSpec single_lock;
  single_lock.backend = locks::Backend::kFompiRw;
  single_lock.shards = 1;
  single_lock.slots_per_shard = 1;
  SpaceSpec sharded_fompi = single_lock;
  sharded_fompi.shards = 0;
  sharded_fompi.slots_per_shard = 16;

  std::vector<std::function<FigureReport::SeriesPoint()>> points;
  for (const i32 p : env.ps) {
    // Panel A — key-space scaling (95% reads, Zipf 0.99, closed loop).
    std::vector<u64> key_counts{u64{1} << 10, kServiceKeys};
    if (!env.quick) key_counts.push_back(u64{1} << 20);
    for (const u64 keys : key_counts) {
      const std::string series = "K=" + std::to_string(keys);
      points.push_back({[&env, p, keys, series, sharded_rw] {
        return measure_sim_point(
            env, p, series, sharded_rw,
            base_workload(env, p, keys, /*zipf_s=*/0.99,
                          /*read_fraction=*/0.95));
      }});
    }
    // Panel B — popularity skew at a write-heavy mix (50% reads).
    const std::pair<const char*, double> skews[] = {{"skew=uniform", 0.0},
                                                    {"skew=zipf0.5", 0.5},
                                                    {"skew=zipf0.99", 0.99},
                                                    {"skew=zipf1.2", 1.2}};
    for (const auto& [series_name, s] : skews) {
      const std::string series = series_name;
      points.push_back({[&env, p, s, series, sharded_rw] {
        return measure_sim_point(
            env, p, series, sharded_rw,
            base_workload(env, p, kServiceKeys, s, /*read_fraction=*/0.5));
      }});
    }
    // Panel C — sharding payoff and the open-loop arrival discipline.
    points.push_back({[&env, p, single_lock] {
      return measure_sim_point(
          env, p, "fompi-rw/1-lock", single_lock,
          base_workload(env, p, kServiceKeys, 0.99, /*read_fraction=*/0.5));
    }});
    points.push_back({[&env, p, sharded_fompi] {
      return measure_sim_point(
          env, p, "fompi-rw/sharded", sharded_fompi,
          base_workload(env, p, kServiceKeys, 0.99, /*read_fraction=*/0.5));
    }});
    points.push_back({[&env, p, sharded_rw] {
      workload::WorkloadConfig wc = base_workload(env, p, kServiceKeys, 0.99,
                                                  /*read_fraction=*/0.95);
      wc.arrival = workload::Arrival::kOpen;
      wc.poisson_arrivals = true;
      wc.interarrival_ns = 4000;
      return measure_sim_point(env, p, "open-loop", sharded_rw, wc);
    }});
  }
  run_point_tasks(env, report, points);

  // Panel D — the same 131072-key service on ThreadWorld (sequentially:
  // ThreadWorld spawns its own threads and must not share the pool).
  const i32 thread_p = 8;
  report.add_points({measure_thread_point(env, thread_p, "thread-world")});

  const i32 p0 = env.ps.front();
  check_jobs_invariant(report, [&] {
    return measure_sim_point(
        env, p0, "probe", sharded_rw,
        base_workload(env, p0, kServiceKeys, 0.99, /*read_fraction=*/0.95));
  });

  // The same claim extended to the observability outputs: the Chrome trace
  // BYTES, the latency-histogram bytes (hex-float moments + buckets), and
  // the per-shard gauges from one traced probe must be identical whether
  // the probe ran inline or on a 2-worker pool.
  const TracedProbe traced_inline = traced_probe(env, p0);
  std::vector<TracedProbe> traced_pooled(2);
  harness::TaskPool trace_pool(2);
  trace_pool.run(
      2, [&](u64 i) { traced_pooled[static_cast<usize>(i)] = traced_probe(env, p0); });
  bool traces_equal = true;
  bool hists_equal = true;
  for (const TracedProbe& t : traced_pooled) {
    traces_equal = traces_equal && t.trace_json == traced_inline.trace_json;
    hists_equal = hists_equal && hist_bytes(t.latency_hist_us) ==
                                     hist_bytes(traced_inline.latency_hist_us);
  }
  report.check("trace bytes identical across jobs", traces_equal,
               "chrome_trace_json of the traced probe, inline vs 2 pool "
               "workers (" +
                   std::to_string(traced_inline.trace_json.size()) +
                   " bytes)");
  report.check("histogram bytes identical across jobs", hists_equal,
               "hex-float moments and log-buckets of the probe latency "
               "histogram, inline vs 2 pool workers");

  // v2 JSON: the probe's histogram plus the service's per-shard gauges.
  report.add_histogram("probe_latency_us", traced_inline.latency_hist_us);
  for (const auto& sm : traced_inline.shards) {
    const std::string prefix = "probe_shard" + std::to_string(sm.shard) + "_";
    report.add_metric(prefix + "write_acquires",
                      static_cast<double>(sm.write_acquires));
    report.add_metric(prefix + "read_acquires",
                      static_cast<double>(sm.read_acquires));
    report.add_metric(prefix + "instantiated_slots",
                      static_cast<double>(sm.instantiated_slots));
  }
  // --trace-out: the probe's trace bytes are already in hand — write them
  // verbatim (the same bytes the determinism check just compared).
  if (!harness::bench_trace_out_path().empty()) {
    const std::string& out = harness::bench_trace_out_path();
    if (std::FILE* f = std::fopen(out.c_str(), "wb")) {
      std::fwrite(traced_inline.trace_json.data(), 1,
                  traced_inline.trace_json.size(), f);
      std::fclose(f);
      std::printf("trace written to %s (%zu bytes)\n", out.c_str(),
                  traced_inline.trace_json.size());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
    }
  }

  const i32 pmax = env.ps.back();
  const std::string big = "K=" + std::to_string(kServiceKeys);
  report.check("sustains 100k+ named locks",
               report.value(big, pmax, "throughput_mops_s") > 0.0 &&
                   report.value(big, pmax, "total_ops") > 0.0,
               std::to_string(kServiceKeys) +
                   " named locks served at max P (SimWorld)");
  report.check("sustains 100k+ named locks on ThreadWorld",
               report.value("thread-world", thread_p, "total_ops") > 0.0,
               "same service size on real threads");
  report.check(
      "sharding beats the single global lock",
      report.value("fompi-rw/sharded", pmax, "throughput_mops_s") >
          report.value("fompi-rw/1-lock", pmax, "throughput_mops_s"),
      "fompi-rw sharded vs collapsed to one lock at max P");
  if (env.quick) {
    // Quick/smoke sweeps run a handful of ops per process — too little
    // contention for skew to separate from noise; the meaningful claim is
    // that no skew level collapses the service.
    report.check(
        "skew levels comparable at low contention",
        report.value("skew=zipf1.2", pmax, "throughput_mops_s") >
            0.5 * report.value("skew=uniform", pmax, "throughput_mops_s"),
        "Zipf 1.2 within 2x of uniform on the small sweep");
  } else {
    report.check(
        "heavy skew costs throughput vs uniform",
        report.value("skew=zipf1.2", pmax, "throughput_mops_s") <=
            1.10 * report.value("skew=uniform", pmax, "throughput_mops_s"),
        "Zipf 1.2 concentrates writes on few slots (10% tolerance)");
  }
  report.check(
      "lazy instantiation touches a fraction of the grid at small K",
      report.value("K=1024", pmax, "instantiated_slots") > 0.0,
      "small key spaces must still instantiate slots on demand");
  report.print();
  return 0;  // report-only, like the other figure benches; tests/ asserts
}

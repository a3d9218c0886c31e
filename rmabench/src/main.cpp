// rmabench — one command for the repository benchmark (see ../BENCH.md).
//
//   rmabench --workload <dht-volume|kv-zipf|mc-check> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Runs the named workload in repeated rounds for --seconds host seconds.
// Every round rebuilds the system from the same seeded inputs, so every
// virtual-time value and count must repeat exactly across rounds; host-time
// values are medians over rounds. With --trace 1 one more round runs with
// the tracer armed and spans recorded, and the per-layer metrics are
// printed instead of the end-to-end ones. The last stdout line is the JSON
// result; any failed correctness check exits 1 without it.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>

#include "bench.hpp"

namespace rmabench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload prints with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_host_s", "req/s"},
    {"read_vlat_p50_us", "v_us"},
    {"read_vlat_p99_us", "v_us"},
    {"write_vlat_p50_us", "v_us"},
    {"write_vlat_p99_us", "v_us"},
    {"vthroughput_mops", "Mreq/v_s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics every workload prints with --trace 1; a layer the
// workload does not drive reports 0. Units "s", "req/s", "MB" and "host_*"
// are host measurements; every other value is virtual time or an exact
// count and must repeat bit for bit for a given seed.
constexpr MetricDef kPerLayer[] = {
    {"rma.create_s", "s"},
    {"rma.run_s", "s"},
    {"rma.steps_per_req", "steps/req"},
    {"rma.host_ns_per_step", "host_ns"},
    {"rma.ops_per_req", "ops/req"},
    {"rma.remote_ops_per_req", "ops/req"},
    {"rma.atomic_ops_per_req", "ops/req"},
    {"rma.parks_per_req", "parks/req"},
    {"rma.wakes_per_req", "wakes/req"},
    {"locks.construct_s", "s"},
    {"locks.acquire_read_vus_p50", "v_us"},
    {"locks.acquire_read_vus_p99", "v_us"},
    {"locks.acquire_write_vus_p50", "v_us"},
    {"locks.acquire_write_vus_p99", "v_us"},
    {"locks.release_read_vus_mean", "v_us"},
    {"locks.release_write_vus_mean", "v_us"},
    {"locks.remote_ops_per_acquire_read", "ops/call"},
    {"locks.remote_ops_per_acquire_write", "ops/call"},
    {"locks.writer_run_mean", "entries"},
    {"locks.readers_in_cs_mean", "readers"},
    {"dht.construct_s", "s"},
    {"dht.insert_vus_mean", "v_us"},
    {"dht.overflow_insert_frac", "ratio"},
    {"dht.remote_ops_per_insert", "ops/call"},
    {"dht.lookup_vus_mean", "v_us"},
    {"dht.remote_ops_per_lookup", "ops/call"},
    {"dht.duplicate_frac", "ratio"},
    {"dht.heap_full", "count"},
    {"lockspace.construct_s", "s"},
    {"lockspace.instantiated_slots", "count"},
    {"lockspace.acquire_vus_p50", "v_us"},
    {"lockspace.acquire_vus_p99", "v_us"},
    {"lockspace.write_payload_vus_mean", "v_us"},
    {"lockspace.shard_imbalance", "ratio"},
    {"lockspace.optimistic_read_vus_p50", "v_us"},
    {"lockspace.optimistic_read_vus_p99", "v_us"},
    {"lockspace.optimistic_retries_per_read", "retries/read"},
    {"lockspace.optimistic_fallback_frac", "ratio"},
    {"lockspace.remote_ops_per_read", "ops/req"},
    {"lockspace.remote_ops_per_write", "ops/req"},
    {"mc.exhaustive_s", "s"},
    {"mc.random_s", "s"},
    {"mc.planted_s", "s"},
    {"mc.us_per_schedule_exhaustive", "host_us"},
    {"mc.us_per_schedule_random", "host_us"},
    {"mc.exhaustive_schedules", "count"},
    {"mc.random_schedules", "count"},
    {"mc.cs_entries", "count"},
    {"mc.planted_raw_trace_len", "picks"},
    {"mc.planted_shrunk_trace_len", "picks"},
    {"mc.violations", "count"},
    {"obs.events_per_req", "events/req"},
    {"obs.dropped", "count"},
    {"obs.traced_over_untraced_run", "host_ratio"},
};

// Values the rounds report that are printed but are not metrics.
const std::set<std::string> kInformational = {"read_samples",
                                              "write_samples"};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "rmabench: " << error
            << "\nusage: rmabench --workload <dht-volume|kv-zipf|mc-check> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& text) {
  try {
    usize used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return v;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + text);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median of one host-time key over the rounds that report it.
double host_median(const std::vector<Round>& rounds, const std::string& key) {
  std::vector<double> values;
  for (const Round& r : rounds) {
    const auto it = r.host.find(key);
    if (it != r.host.end()) values.push_back(it->second);
  }
  return median(values);
}

void print_metrics(const Metrics& values, const MetricDef* defs, usize n) {
  for (usize i = 0; i < n; ++i) {
    std::printf("  %-38s %16.6f %s\n", defs[i].name, values.at(defs[i].name),
                defs[i].unit);
  }
}

std::string json_result(u64 attempted, u64 failed, const Metrics& values,
                        const MetricDef* defs, usize n) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char number[64];
  for (usize i = 0; i < n; ++i) {
    const double v = values.at(defs[i].name);
    require(std::isfinite(v), std::string("metric ") + defs[i].name +
                                  " is not finite");
    std::snprintf(number, sizeof number, "%.17g", v);
    out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
           "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}}";
}

int run(int argc, char** argv) {
  std::string workload;
  u64 seed = 0;
  u64 seconds = 0;
  u64 trace = 2;
  std::string out_dir = ".bench_build/out";
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_u64(flag, value);
    } else if (flag == "--trace") {
      trace = parse_u64(flag, value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (seconds < 1 || seconds > 120) usage("--seconds must be in [1, 120]");
  if (trace > 1) usage("--trace must be 0 or 1");

  std::unique_ptr<Workload> w;
  if (workload == "dht-volume") {
    w = make_dht_volume(seed);
  } else if (workload == "kv-zipf") {
    w = make_kv_zipf(seed);
  } else if (workload == "mc-check") {
    w = make_mc_check(seed);
  } else {
    usage("unknown workload '" + workload + "'");
  }
  std::filesystem::create_directories(out_dir);
  w->describe();
  w->prepare();

  // Measured rounds: at least one, then more until --seconds have passed.
  std::vector<Round> rounds;
  const HostTimer measuring;
  while (rounds.empty() || measuring.seconds() < static_cast<double>(seconds)) {
    Round round = w->run_round(false, out_dir);
    std::printf("round %zu: setup %.6f s (median of %zu), work %.6f s, "
                "%llu requests, virtual digest %016llx\n",
                rounds.size(), median(round.setup_s), round.setup_s.size(),
                round.work_s, static_cast<unsigned long long>(round.requests),
                static_cast<unsigned long long>(round.vdigest));
    if (!rounds.empty()) {
      require(round.vdigest == rounds[0].vdigest &&
                  round.virt == rounds[0].virt,
              "virtual-time results differ between two rounds of one seed");
    }
    rounds.push_back(std::move(round));
  }
  const Round& first = rounds[0];
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> setup;
  std::vector<double> throughput;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    throughput.push_back(static_cast<double>(r.requests) / r.work_s);
  }
  std::printf("samples: %.0f reads, %.0f writes per round; %zu rounds\n",
              first.virt.at("read_samples"), first.virt.at("write_samples"),
              rounds.size());

  // Every value a round reports must be a listed metric (or informational).
  std::set<std::string> known(kInformational);
  for (const MetricDef& d : kEndToEnd) known.insert(d.name);
  for (const MetricDef& d : kPerLayer) known.insert(d.name);
  const auto require_listed = [&known](const Round& r) {
    for (const Metrics* m : {&r.virt, &r.host, &r.traced}) {
      for (const auto& [key, value] : *m) {
        require(known.count(key) == 1, "unlisted metric " + key);
      }
    }
  };
  require_listed(first);

  if (trace == 0) {
    Metrics e2e;
    e2e["setup_s"] = median(setup);
    e2e["ops_per_host_s"] = median(throughput);
    for (const char* key : {"read_vlat_p50_us", "read_vlat_p99_us",
                            "write_vlat_p50_us", "write_vlat_p99_us",
                            "vthroughput_mops"}) {
      e2e[key] = first.virt.at(key);
    }
    e2e["peak_rss_mb"] = peak_rss_mb();
    std::printf("end-to-end metrics (%s, seed %llu):\n", workload.c_str(),
                static_cast<unsigned long long>(seed));
    print_metrics(e2e, kEndToEnd, std::size(kEndToEnd));
    std::cout << json_result(attempted, failed, e2e, kEndToEnd,
                             std::size(kEndToEnd))
              << std::endl;
    return 0;
  }

  const Round traced = w->run_round(true, out_dir);
  require(traced.vdigest == first.vdigest && traced.virt == first.virt,
          "armed tracer changed a virtual-time result");
  require_listed(traced);
  Metrics layer;
  for (const MetricDef& d : kPerLayer) layer[d.name] = 0;
  for (const auto& [key, value] : first.virt) {
    if (layer.count(key) == 1) layer[key] = value;
  }
  for (const auto& [key, value] : first.host) {
    layer[key] = host_median(rounds, key);
  }
  for (const auto& [key, value] : traced.traced) layer[key] = value;
  layer["obs.traced_over_untraced_run"] =
      traced.host.at("rma.run_s") / host_median(rounds, "rma.run_s");
  std::printf("per-layer metrics (%s, seed %llu):\n", workload.c_str(),
              static_cast<unsigned long long>(seed));
  print_metrics(layer, kPerLayer, std::size(kPerLayer));
  std::cout << json_result(attempted, failed, layer, kPerLayer,
                           std::size(kPerLayer))
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace rmabench

int main(int argc, char** argv) {
  try {
    return rmabench::run(argc, argv);
  } catch (const rmabench::CheckFailure& failure) {
    std::cout.flush();
    std::cerr << "rmabench: CHECK FAILED: " << failure.what() << "\n";
  } catch (const std::exception& error) {
    std::cout.flush();
    std::cerr << "rmabench: error: " << error.what() << "\n";
  }
  return 1;
}

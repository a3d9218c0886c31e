// kv-zipf: the named-lock service. 256 closed-loop clients (16 nodes x 16)
// use a LockSpace with the RMA-RW backend, one shard per node and 16 slots
// per shard, over 131072 keys drawn Zipf(0.99). 20% of requests write
// (acquire, write_payload stamping all 4 words with one value, release);
// 80% are lock-free optimistic_reads. Load spreads over 256 physical locks,
// so LockSpace's directory, lazy slot instantiation, versioned payload and
// validate/retry do most of the work. Readers and writers share slots, so a
// change that helps optimistic readers at writers' expense shows.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"

namespace rmabench {
namespace {

using namespace rmalock;

constexpr i32 kNodes = 16;
constexpr i32 kProcsPerNode = 16;
constexpr i32 kSlotsPerShard = 16;
constexpr i32 kPayloadWords = 4;
constexpr u64 kKeys = 131072;
constexpr double kZipfS = 0.99;
constexpr i32 kRequestsPerClient = 1024;
constexpr u64 kWritePermille = 200;
constexpr Nanos kThinkMinNs = 1000;
constexpr Nanos kThinkMaxNs = 5000;
constexpr u64 kMinSamples = 1000;

class KvZipf final : public Workload {
 public:
  explicit KvZipf(u64 seed) : seed_(seed) {
    // Zipf CDF over key ranks; rank k (0-based) is key k.
    std::vector<double> cdf(kKeys);
    double sum = 0;
    for (u64 k = 0; k < kKeys; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      cdf[k] = sum;
    }
    InputRng rng(seed * 0x100000001b3ULL + 2);
    streams_.per_rank.resize(kNodes * kProcsPerNode);
    for (auto& stream : streams_.per_rank) {
      for (i32 i = 0; i < kRequestsPerClient; ++i) {
        Request req;
        req.kind =
            rng.below(1000) < kWritePermille ? Kind::kWrite : Kind::kRead;
        const double u = rng.unit() * sum;
        req.arg = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        req.arg = std::min<i64>(req.arg, kKeys - 1);
        req.think_ns =
            kThinkMinNs +
            static_cast<Nanos>(rng.below(kThinkMaxNs - kThinkMinNs + 1));
        stream.push_back(req);
      }
    }
    streams_.finish();
  }

  void describe() const override {
    std::cout << "kv-zipf: P=" << kNodes * kProcsPerNode << " (" << kNodes
              << " nodes x " << kProcsPerNode
              << "), LockSpace RMA-RW backend, " << kNodes << " shards x "
              << kSlotsPerShard << " slots, payload_words=" << kPayloadWords
              << "; " << streams_.total << " requests from "
              << kNodes * kProcsPerNode << " closed-loop clients ("
              << streams_.reads << " optimistic_read, " << streams_.writes
              << " acquire+write_payload+release) over " << kKeys
              << " keys, Zipf s=" << kZipfS << ", think " << kThinkMinNs / 1000
              << "-" << kThinkMaxNs / 1000 << " v us\n"
              << "input digest: " << std::hex << streams_.digest() << std::dec
              << " (seed " << seed_ << ")\n";
  }

  Round run_round(bool traced, const std::string& out_dir) override {
    Round round;
    const i32 nprocs = kNodes * kProcsPerNode;
    std::unique_ptr<obs::Tracer> tracer;
    rma::SimOptions opts;
    opts.topology = topo::Topology::uniform({kNodes}, kProcsPerNode);
    opts.seed = seed_;
    if (traced) {
      tracer = std::make_unique<obs::Tracer>(nprocs);
      opts.tracer = tracer.get();
    }

    HostTimer create_timer;
    auto world = rma::SimWorld::create(opts);
    const double create_s = create_timer.seconds();
    HostTimer space_timer;
    lockspace::LockSpaceConfig config;
    config.slots_per_shard = kSlotsPerShard;
    config.backend = locks::Backend::kRmaRw;
    config.payload_words = kPayloadWords;
    lockspace::LockSpace space(*world, config);
    const double space_s = space_timer.seconds();
    round.setup_s.push_back(create_s + space_s);
    round.host["rma.create_s"] = create_s;
    round.host["lockspace.construct_s"] = space_s;

    // The directory is a pure function of the configuration; resolving it
    // here keeps it out of the measured run.
    std::vector<u32> slot_of(streams_.total);
    for (usize r = 0; r < streams_.per_rank.size(); ++r) {
      for (usize i = 0; i < streams_.per_rank[r].size(); ++i) {
        slot_of[streams_.first_id[r] + i] =
            space.resolve(static_cast<u64>(streams_.per_rank[r][i].arg))
                .global_slot;
      }
    }
    const u32 slots = space.total_slots();
    std::vector<i32> writers_in(slots, 0);
    std::vector<u64> writes_to(slots, 0);
    u64 violations = 0;
    u64 torn = 0;
    u64 retries = 0;
    u64 fallbacks = 0;

    SpanLog spans(traced);
    const LoopResult loop = run_closed_loop(
        *world, streams_, spans,
        [&](rma::RmaComm& comm, const Request& req, u32 id) {
          const auto key = static_cast<u64>(req.arg);
          const u32 slot = slot_of[id];
          std::array<i64, kPayloadWords> words{};
          if (req.kind == Kind::kWrite) {
            spans.call(comm, Call::kLsAcquire, id, [&] {
              space.acquire(comm, key);
              return 0;
            });
            if (writers_in[slot]++ != 0) ++violations;
            words.fill(static_cast<i64>(id) + 1);  // this write's stamp
            const i64 version =
                spans.call(comm, Call::kLsWritePayload, id, [&] {
                  return space.write_payload(comm, key, words.data(),
                                             words.size());
                });
            // Each write session advances the slot's version by two.
            const auto writes = static_cast<i64>(++writes_to[slot]);
            if (version != 2 * writes) ++violations;
            --writers_in[slot];
            spans.call(comm, Call::kLsRelease, id, [&] {
              space.release(comm, key);
              return 0;
            });
          } else {
            const auto res = spans.call(comm, Call::kLsOptimisticRead, id, [&] {
              return space.optimistic_read(comm, key, words.data(),
                                           words.size());
            });
            retries += res.retries;
            if (res.fell_back) ++fallbacks;
            if (!consistent(words, slot, slot_of) || !res.ok) ++torn;
          }
        });

    require(loop.run.ok(), "kv-zipf: run deadlocked or hit its step limit");
    require(violations == 0,
            "kv-zipf: overlapping writers or a wrong payload version");
    require(torn == 0, "kv-zipf: a reader accepted an inconsistent payload");

    LoopTotals totals;
    totals.add(*world, streams_, loop, tracer.get());
    Digest digest;
    totals.report(kMinSamples, round, digest);

    // Final payload versions, read after the measured run: one probe key
    // per slot.
    std::vector<u64> probe(slots, kKeys);
    for (u64 key = 0; key < kKeys; ++key) {
      const u32 slot = space.resolve(key).global_slot;
      if (probe[slot] == kKeys) probe[slot] = key;
    }
    std::vector<i64> version(slots, -1);
    const rma::RunResult check_run = world->run([&](rma::RmaComm& comm) {
      if (comm.rank() != 0) return;
      for (u32 s = 0; s < slots; ++s) {
        if (probe[s] != kKeys) {
          version[s] = space.payload_version(comm, probe[s]);
        }
      }
    });
    require(check_run.ok(), "kv-zipf: version check run failed");
    for (u32 s = 0; s < slots; ++s) {
      require(probe[s] == kKeys ||
                  version[s] == 2 * static_cast<i64>(writes_to[s]),
              "kv-zipf: slot " + std::to_string(s) +
                  " payload_version does not match its write count");
      digest.add(static_cast<u64>(version[s]));
    }
    digest.add(retries);
    digest.add(fallbacks);
    round.vdigest = digest.value();

    const auto reads = static_cast<double>(streams_.reads);
    round.virt["lockspace.instantiated_slots"] =
        static_cast<double>(space.instantiated_slots());
    round.virt["lockspace.optimistic_retries_per_read"] =
        static_cast<double>(retries) / reads;
    round.virt["lockspace.optimistic_fallback_frac"] =
        static_cast<double>(fallbacks) / reads;
    u64 max_acquires = 0;
    u64 sum_acquires = 0;
    const auto shard_metrics = space.metrics();
    for (const auto& m : shard_metrics) {
      const u64 acquires = m.write_acquires + m.read_acquires;
      max_acquires = std::max(max_acquires, acquires);
      sum_acquires += acquires;
    }
    round.virt["lockspace.shard_imbalance"] =
        static_cast<double>(max_acquires) /
        (static_cast<double>(sum_acquires) /
         static_cast<double>(shard_metrics.size()));

    if (!traced) {
      if (untraced_latency_.empty()) untraced_latency_ = totals.latency();
      return round;
    }
    finish_traced(out_dir, "kv-zipf", spans, totals, untraced_latency_,
                  round.traced);
    const CallStats acquire = call_stats(spans, Call::kLsAcquire);
    const CallStats read = call_stats(spans, Call::kLsOptimisticRead);
    round.traced["lockspace.acquire_vus_p50"] = acquire.p50_us;
    round.traced["lockspace.acquire_vus_p99"] = acquire.p99_us;
    round.traced["lockspace.write_payload_vus_mean"] =
        call_stats(spans, Call::kLsWritePayload).mean_us;
    round.traced["lockspace.optimistic_read_vus_p50"] = read.p50_us;
    round.traced["lockspace.optimistic_read_vus_p99"] = read.p99_us;
    // Remote ops per request by kind, from the request spans.
    u64 remote[2] = {0, 0};
    for (const Span& span : spans.spans()) {
      if (span.call != Call::kRequest) continue;
      remote[request_kind(span.req) == Kind::kRead ? 0 : 1] += span.remote_ops;
    }
    round.traced["lockspace.remote_ops_per_read"] =
        static_cast<double>(remote[0]) / reads;
    round.traced["lockspace.remote_ops_per_write"] =
        static_cast<double>(remote[1]) / static_cast<double>(streams_.writes);
    return round;
  }

 private:
  /// A snapshot is consistent iff all words carry one stamp, and that stamp
  /// is 0 (never written) or a write request whose key shares the slot.
  bool consistent(const std::array<i64, kPayloadWords>& words, u32 slot,
                  const std::vector<u32>& slot_of) const {
    for (const i64 w : words) {
      if (w != words[0]) return false;
    }
    if (words[0] == 0) return true;
    const i64 id = words[0] - 1;
    return id >= 0 && static_cast<u64>(id) < streams_.total &&
           request_kind(static_cast<u32>(id)) == Kind::kWrite &&
           slot_of[static_cast<usize>(id)] == slot;
  }

  [[nodiscard]] Kind request_kind(u32 id) const {
    const auto it = std::upper_bound(streams_.first_id.begin(),
                                     streams_.first_id.end(), id);
    const auto rank = static_cast<usize>(it - streams_.first_id.begin()) - 1;
    return streams_.per_rank[rank][id - streams_.first_id[rank]].kind;
  }

  u64 seed_;
  Streams streams_;
  std::vector<Nanos> untraced_latency_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_zipf(u64 seed) {
  return std::make_unique<KvZipf>(seed);
}

}  // namespace rmabench

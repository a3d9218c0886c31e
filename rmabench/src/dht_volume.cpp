// dht-volume: the paper's §5.3 distributed-hashtable case study at its
// largest scale. 1023 closed-loop clients (no think time, as in §5.3) hit
// one DHT volume on rank 0 through one RMA-RW lock: 5% insert_locked under
// the write lock, 95% contains_locked under the read lock. All modeled
// time goes into the hot lock (writer mode switch, reader drain, T_W/T_R
// hand-overs) and into the engine's P=1024 scheduling and parking.
//
// A round runs kWorlds independent worlds, each with its own inputs: more
// samples per round without a larger volume (the DHT allocates its heap on
// every rank, so memory grows with P x inserts per world).
#include <algorithm>
#include <iostream>

#include "bench.hpp"
#include "dht/dht.hpp"
#include "locks/rma_rw.hpp"
#include "rma/sim_world.hpp"

namespace rmabench {
namespace {

using namespace rmalock;

constexpr i32 kNodes = 64;
constexpr i32 kProcsPerNode = 16;
constexpr i32 kProcs = kNodes * kProcsPerNode;
constexpr Rank kVolumeOwner = 0;
constexpr i32 kWorlds = 2;
constexpr i32 kRequestsPerClient = 128;
constexpr u64 kInsertPermille = 50;
constexpr i64 kValueRange = i64{1} << 16;
constexpr i32 kTableBuckets = 256;  // chains grow over the run, as in §5.3
constexpr u64 kMinSamples = 1000;

/// The inputs of one world.
struct Part {
  Streams streams;
  std::vector<i64> inserted;  // distinct values the streams insert, sorted
};

class DhtVolume final : public Workload {
 public:
  explicit DhtVolume(u64 seed) : seed_(seed), parts_(kWorlds) {
    InputRng rng(seed * 0x100000001b3ULL + 1);
    for (Part& part : parts_) {
      part.streams.per_rank.resize(kProcs);
      for (usize r = 0; r < part.streams.per_rank.size(); ++r) {
        if (static_cast<Rank>(r) == kVolumeOwner) continue;
        for (i32 i = 0; i < kRequestsPerClient; ++i) {
          Request req;
          req.kind = rng.below(1000) < kInsertPermille ? Kind::kWrite
                                                       : Kind::kRead;
          req.arg = static_cast<i64>(rng.below(kValueRange)) + 1;
          part.streams.per_rank[r].push_back(req);
          if (req.kind == Kind::kWrite) part.inserted.push_back(req.arg);
        }
      }
      part.streams.finish();
      std::sort(part.inserted.begin(), part.inserted.end());
      part.inserted.erase(
          std::unique(part.inserted.begin(), part.inserted.end()),
          part.inserted.end());
    }
  }

  void describe() const override {
    Digest digest;
    u64 reads = 0;
    u64 writes = 0;
    for (const Part& part : parts_) {
      digest.add(part.streams.digest());
      reads += part.streams.reads;
      writes += part.streams.writes;
    }
    std::cout << "dht-volume: " << kWorlds << " worlds per round, each P="
              << kProcs << " (" << kNodes << " nodes x " << kProcsPerNode
              << "), RMA-RW defaults, DHT volume on rank " << kVolumeOwner
              << " with " << kTableBuckets << " buckets; " << kProcs - 1
              << " closed-loop clients x " << kRequestsPerClient
              << " requests per world (" << reads << " contains_locked, "
              << writes << " insert_locked in total)\n"
              << "input digest: " << std::hex << digest.value() << std::dec
              << " (seed " << seed_ << ")\n";
  }

  Round run_round(bool traced, const std::string& out_dir) override {
    Round round;
    LoopTotals totals;
    SpanLog spans(traced);
    RwCsLog cs;
    Digest digest;
    u64 inserted = 0;
    u64 duplicates = 0;
    u64 heap_full = 0;
    u64 overflow = 0;
    u64 writes = 0;
    u32 request_base = 0;
    for (usize k = 0; k < parts_.size(); ++k) {
      const Part& part = parts_[k];
      std::unique_ptr<obs::Tracer> tracer;
      rma::SimOptions opts;
      opts.topology = topo::Topology::uniform({kNodes}, kProcsPerNode);
      opts.seed = seed_ * kWorlds + k;
      if (traced) {
        tracer = std::make_unique<obs::Tracer>(kProcs);
        opts.tracer = tracer.get();
      }

      HostTimer create_timer;
      auto world = rma::SimWorld::create(opts);
      const double create_s = create_timer.seconds();
      HostTimer lock_timer;
      locks::RmaRw lock(*world, locks::RmaRwParams::defaults(opts.topology));
      const double lock_s = lock_timer.seconds();
      HostTimer dht_timer;
      dht::DhtConfig config;
      config.table_buckets = kTableBuckets;
      // Every insert could land in the overflow heap: it can never fill.
      config.heap_entries = static_cast<i32>(part.streams.writes);
      const dht::DistributedHashTable table(*world, config);
      const double dht_s = dht_timer.seconds();
      round.setup_s.push_back(create_s + lock_s + dht_s);
      round.host["rma.create_s"] += create_s / kWorlds;
      round.host["locks.construct_s"] += lock_s / kWorlds;
      round.host["dht.construct_s"] += dht_s / kWorlds;

      std::vector<u8> present(static_cast<usize>(kValueRange) + 1, 0);
      u64 wrong_lookups = 0;
      u64 world_heap_full = 0;
      cs.last_was_writer = false;
      spans.set_request_base(request_base);
      const LoopResult loop = run_closed_loop(
          *world, part.streams, spans,
          [&](rma::RmaComm& comm, const Request& req, u32 id) {
            rw_request(comm, lock, req, id, spans, cs, [&] {
              const auto value = static_cast<usize>(req.arg);
              if (req.kind == Kind::kWrite) {
                const auto status = spans.call(comm, Call::kDhtInsert, id, [&] {
                  return table.insert_locked(comm, kVolumeOwner, req.arg);
                });
                if (status == dht::InsertStatus::kInserted) {
                  ++inserted;
                  present[value] = 1;
                } else if (status == dht::InsertStatus::kDuplicate) {
                  ++duplicates;
                } else {
                  ++world_heap_full;
                }
                return;
              }
              const bool found = spans.call(comm, Call::kDhtContains, id, [&] {
                return table.contains_locked(comm, kVolumeOwner, req.arg);
              });
              // Readers exclude writers, so the set is stable here.
              if (found != (present[value] != 0)) ++wrong_lookups;
            });
          });

      require(loop.run.ok(),
              "dht-volume: run deadlocked or hit its step limit");
      require(cs.violations == 0,
              "dht-volume: a writer overlapped another lock holder");
      require(wrong_lookups == 0,
              "dht-volume: contains_locked disagreed with the inserted set");
      require(world_heap_full == 0, "dht-volume: DHT heap filled up");
      std::vector<i64> snapshot = table.snapshot(*world, kVolumeOwner);
      std::sort(snapshot.begin(), snapshot.end());
      require(snapshot == part.inserted,
              "dht-volume: volume contents differ from the inserted values");
      for (const i64 v : snapshot) digest.add(static_cast<u64>(v));
      heap_full += world_heap_full;
      overflow += static_cast<u64>(table.overflow_used(*world, kVolumeOwner));
      writes += part.streams.writes;
      totals.add(*world, part.streams, loop, tracer.get());
      request_base += static_cast<u32>(part.streams.total);
    }
    require(inserted + duplicates == writes,
            "dht-volume: insert outcomes do not match the inputs");

    round.failed = heap_full;
    totals.report(kMinSamples, round, digest);
    round.vdigest = digest.value();
    round.virt["locks.writer_run_mean"] =
        static_cast<double>(cs.write_entries) /
        static_cast<double>(cs.writer_runs);
    round.virt["locks.readers_in_cs_mean"] =
        static_cast<double>(cs.readers_sum) /
        static_cast<double>(cs.read_entries);
    round.virt["dht.overflow_insert_frac"] =
        static_cast<double>(overflow) / static_cast<double>(inserted);
    round.virt["dht.duplicate_frac"] =
        static_cast<double>(duplicates) / static_cast<double>(writes);
    round.virt["dht.heap_full"] = static_cast<double>(heap_full);

    if (!traced) {
      if (untraced_latency_.empty()) untraced_latency_ = totals.latency();
      return round;
    }
    finish_traced(out_dir, "dht-volume", spans, totals, untraced_latency_,
                  round.traced);
    rw_lock_metrics(spans, round.traced);
    const CallStats insert = call_stats(spans, Call::kDhtInsert);
    const CallStats lookup = call_stats(spans, Call::kDhtContains);
    round.traced["dht.insert_vus_mean"] = insert.mean_us;
    round.traced["dht.remote_ops_per_insert"] = insert.remote_per_call;
    round.traced["dht.lookup_vus_mean"] = lookup.mean_us;
    round.traced["dht.remote_ops_per_lookup"] = lookup.remote_per_call;
    return round;
  }

 private:
  u64 seed_;
  std::vector<Part> parts_;
  std::vector<Nanos> untraced_latency_;
};

}  // namespace

std::unique_ptr<Workload> make_dht_volume(u64 seed) {
  return std::make_unique<DhtVolume>(seed);
}

}  // namespace rmabench

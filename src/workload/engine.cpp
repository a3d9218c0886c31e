#include "workload/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "harness/phases.hpp"

namespace rmalock::workload {

namespace {

/// What one process carries from request to request.
struct RankState {
  std::vector<i64> snapshot;  // versioned-payload read/write buffer
  Nanos arrival = 0;          // open loop: last scheduled arrival
  u64 optimistic_fallbacks = 0;
  u64 optimistic_retries = 0;
};

/// Exponential inter-arrival with the given mean (inverse-CDF over the
/// process's deterministic stream).
[[nodiscard]] Nanos exponential_gap(Xoshiro256& rng, Nanos mean) {
  const double u = rng.uniform();
  return static_cast<Nanos>(-static_cast<double>(mean) *
                            std::log1p(-u));
}

}  // namespace

WorkloadResult run_workload(rma::World& world, lockspace::LockSpace& space,
                            const WorkloadConfig& config) {
  RMALOCK_CHECK(config.read_fraction >= 0.0 && config.read_fraction <= 1.0);
  RMALOCK_CHECK(config.think_max_ns >= config.think_min_ns);
  const bool open_loop = config.arrival == Arrival::kOpen;
  RMALOCK_CHECK(!open_loop || config.interarrival_ns >= 1);
  const bool versioned = config.versioned_payload;
  if (config.optimistic_reads) {
    RMALOCK_CHECK_MSG(versioned,
                      "optimistic_reads requires versioned_payload");
  }
  if (versioned) {
    RMALOCK_CHECK_MSG(space.optimistic_capable(),
                      "versioned_payload needs a space with payload_words > 0");
  }
  const usize payload_words =
      versioned ? static_cast<usize>(space.payload_words()) : 0;
  const i32 nprocs = world.nprocs();
  const KeyGenerator keygen(config.keys);
  const u64 read_permille = static_cast<u64>(
      std::lround(config.read_fraction * 1000.0));

  // Payload word: one per rank; the holder touches the word of the key's
  // shard home, so payload traffic follows lock placement.
  const WinOffset payload = world.allocate(1);
  for (Rank r = 0; r < nprocs; ++r) world.write_word(r, payload, 0);

  std::vector<RankState> per(static_cast<usize>(nprocs),
                             RankState{std::vector<i64>(payload_words, 0)});

  // One request, end to end; its latency is measured from its call time in
  // the closed loop and from its scheduled arrival in the open loop.
  harness::PhaseResult phases = harness::run_phases(
      world, {config.ops_per_proc, 0},
      [&](rma::RmaComm& comm, harness::PhaseRecorder& rec) {
        RankState& me = per[static_cast<usize>(comm.rank())];
        Nanos latency_from = comm.now_ns();
        if (open_loop && rec.measured()) {
          // Open loop: requests arrive on a completion-independent
          // schedule that starts with the measured phase; a late process
          // drains its backlog, and each request's latency starts at its
          // *scheduled* arrival, so queueing delay is charged (no
          // coordinated omission).
          me.arrival =
              std::max(me.arrival, rec.start_ns()) +
              (config.poisson_arrivals
                   ? exponential_gap(comm.rng(), config.interarrival_ns)
                   : config.interarrival_ns);
          if (latency_from < me.arrival) {
            comm.compute(me.arrival - latency_from);
          }
          latency_from = me.arrival;
        }
        const bool read = comm.rng().chance(read_permille, 1000);
        const u64 key = keygen.next(comm.rng());
        const lockspace::LockRef ref = space.resolve(key);
        if (versioned) {
          if (read && config.optimistic_reads) {
            const lockspace::LockSpace::OptimisticResult r =
                space.optimistic_read(comm, key, me.snapshot.data(),
                                      payload_words);
            if (r.fell_back) ++me.optimistic_fallbacks;
            me.optimistic_retries += r.retries;
          } else if (read) {
            space.locked_read(comm, key, me.snapshot.data(), payload_words);
          } else {
            std::fill(me.snapshot.begin(), me.snapshot.end(),
                      static_cast<i64>(key));
            space.acquire(comm, key);
            space.write_payload(comm, key, me.snapshot.data(), payload_words);
            space.release(comm, key);
          }
        } else if (read) {
          space.acquire_read(comm, key);
          if (config.payload) {
            comm.get(ref.home, payload);
            comm.flush(ref.home);
          }
          space.release_read(comm, key);
        } else {
          space.acquire(comm, key);
          if (config.payload) {
            comm.put(static_cast<i64>(key), ref.home, payload);
            comm.flush(ref.home);
          }
          space.release(comm, key);
        }
        rec.record(!read, latency_from);
        if (!open_loop && config.think_max_ns > 0) {
          comm.compute(comm.rng().range(config.think_min_ns,
                                        config.think_max_ns));
        }
      });

  WorkloadResult result;
  for (const RankState& me : per) {
    result.optimistic_fallbacks += me.optimistic_fallbacks;
    result.optimistic_retries += me.optimistic_retries;
  }
  result.read_ops = phases.read_us.count();
  result.write_ops = phases.write_us.count();
  result.total_ops = phases.all_us.count();
  result.elapsed_ns = phases.elapsed_ns;
  result.throughput_mops_s = phases.mops_per_s();
  result.latency_us = harness::summarize(phases.all_us);
  result.read_latency_us = harness::summarize(phases.read_us);
  result.write_latency_us = harness::summarize(phases.write_us);
  result.latency_hist_us = std::move(phases.all_us);
  result.read_latency_hist_us = std::move(phases.read_us);
  result.write_latency_hist_us = std::move(phases.write_us);
  result.instantiated_slots = space.instantiated_slots();
  return result;
}

}  // namespace rmalock::workload

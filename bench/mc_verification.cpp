// §4.4 verification campaign.
//
// The paper model-checks RMA-RW with SPIN: machines of N in {1..4} levels
// with equal fan-out per level, up to 256 processes, every process randomly
// a reader or writer, 20 acquires each; checked properties are mutual
// exclusion and deadlock freedom. This binary runs the equivalent campaign
// against the actual C++ implementations, in three modes:
//
//   (default)     randomized (uniform + PCT) schedules across the paper's
//                 topologies, plus the reader-reset race demonstration
//                 (DESIGN.md §2.5): the literal Listing 6/9 composition is
//                 exercised under the same schedules;
//   --exhaustive  bounded-exhaustive DFS (iterative preemption deepening)
//                 over small topologies — the SPIN-shaped systematic sweep;
//   --replay <f>  deterministic re-execution of a recorded counterexample
//                 trace file ("rmalock-trace v5", or v1-v4 for traces
//                 recorded before the crash / torn-read / gray-failure /
//                 clock-drift fault models; see docs/TESTING.md).
//
// --jobs N (RMALOCK_JOBS; 0 = all cores) runs the randomized and
// exhaustive campaigns on the work-stealing parallel campaign runtime.
// Reports, counterexample coordinates, shrunk traces, and trace files are
// bit-identical to the sequential run (docs/PERF.md, "Parallel
// campaigns"); --replay is a single deterministic re-execution and
// ignores the knob.
//
// Counterexamples: any first failure is ddmin-shrunk and, when a trace
// directory is configured (--trace-dir DIR or RMALOCK_TRACE_DIR), written
// as a replayable trace file whose path is printed in the summary — that is
// what the nightly CI job uploads as build artifacts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "harness/bench_common.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/schedule.hpp"

namespace {

using namespace rmalock;

// ---------------------------------------------------------------------------
// Workload registry: every campaign runs under a stable workload id that
// --replay maps back to the identical lock factory (trace files record the
// id, so a counterexample is replayable long after the campaign finished).
// ---------------------------------------------------------------------------

mc::RwLockFactory make_rw_factory(const std::string& id) {
  if (id == "rw:rma-rw") {
    return [](rma::World& world) {
      locks::RmaRwParams params =
          locks::RmaRwParams::defaults(world.topology());
      params.tr = 3;  // small thresholds stress mode changes
      params.locality.assign(
          static_cast<usize>(world.topology().num_levels()), 2);
      return std::make_unique<locks::RmaRw>(world, params);
    };
  }
  if (id == "rw:rma-rw-faithful-reset" || id == "rw:rma-rw-fixed-reset") {
    const bool faithful = id == "rw:rma-rw-faithful-reset";
    return [faithful](rma::World& world) {
      locks::RmaRwParams params =
          locks::RmaRwParams::defaults(world.topology());
      params.tdc = 2;
      params.tr = 1;  // readers hit T_R constantly: maximal reset traffic
      params.locality.assign(
          static_cast<usize>(world.topology().num_levels()), 1);
      params.paper_faithful_reader_reset = faithful;
      return std::make_unique<locks::RmaRw>(world, params);
    };
  }
  return nullptr;
}

mc::ExclusiveLockFactory make_exclusive_factory(const std::string& id) {
  if (id == "ex:rma-mcs") {
    return [](rma::World& world) {
      locks::RmaMcsParams params =
          locks::RmaMcsParams::defaults(world.topology());
      params.locality.assign(
          static_cast<usize>(world.topology().num_levels()), 2);
      return std::make_unique<locks::RmaMcs>(world, params);
    };
  }
  return nullptr;
}

// Crash/recovery lease workloads. "lease:mcs-nofence" is a *planted* bug —
// the recovery reclaims a suspected-dead owner's lease without bumping the
// epoch, so a mid-CS-crashed owner shares its epoch with the thief. Unlike
// the reader-reset demonstration it keeps counterexample artifacts ON: the
// campaign must print a deterministic --replay repro line for the catch.
mc::LeaseLockFactory make_lease_factory(const std::string& id) {
  locks::Backend inner;
  bool fence = true;
  if (id == "lease:mcs") {
    inner = locks::Backend::kRmaMcs;
  } else if (id == "lease:rw") {
    inner = locks::Backend::kRmaRw;
  } else if (id == "lease:mcs-nofence") {
    inner = locks::Backend::kRmaMcs;
    fence = false;
  } else {
    return nullptr;
  }
  return [inner, fence](rma::World& world) {
    auto in = locks::make_exclusive(inner, world, /*home=*/0);
    locks::LeaseParams params;
    params.home = 0;
    params.fence_on_steal = fence;
    return std::make_unique<locks::LeaseExclusive>(world, std::move(in),
                                                   params);
  };
}

// Write-side view of an RW lock, so the timed-acquire campaigns can drive
// RmaRw::try_acquire_write_for through the ExclusiveLock interface.
class WriteLockAdapter final : public locks::ExclusiveLock {
 public:
  explicit WriteLockAdapter(std::unique_ptr<locks::RwLock> inner)
      : inner_(std::move(inner)) {}
  void acquire(rma::RmaComm& comm) override { inner_->acquire_write(comm); }
  void release(rma::RmaComm& comm) override { inner_->release_write(comm); }
  locks::AcquireResult try_acquire_for(
      rma::RmaComm& comm, Nanos deadline_ns,
      const locks::RetryPolicy& retry) override {
    return inner_->try_acquire_write_for(comm, deadline_ns, retry);
  }
  [[nodiscard]] std::string name() const override {
    return inner_->name() + " (write side)";
  }

 private:
  std::unique_ptr<locks::RwLock> inner_;
};

// Timed-acquire workloads (deadline + retry/backoff under gray failures).
// "timeout:no-backoff" is a *planted* bug — it is the rma-mcs workload run
// with RetryPolicy::backoff = false (run_replay re-applies the policy from
// the id), so failed attempts never advance the virtual clock, the
// deadline never expires, and a starved rank spins to the attempts valve:
// the livelock the LivelockMonitor must flag.
mc::ExclusiveLockFactory make_timeout_factory(const std::string& id) {
  if (id == "timeout:rma-mcs" || id == "timeout:no-backoff") {
    return make_exclusive_factory("ex:rma-mcs");
  }
  if (id == "timeout:rma-rw") {
    const auto rw = make_rw_factory("rw:rma-rw");
    return [rw](rma::World& world) -> std::unique_ptr<locks::ExclusiveLock> {
      return std::make_unique<WriteLockAdapter>(rw(world));
    };
  }
  if (id == "timeout:lease-mcs") {
    const auto lease = make_lease_factory("lease:mcs");
    return [lease](
               rma::World& world) -> std::unique_ptr<locks::ExclusiveLock> {
      return lease(world);
    };
  }
  return nullptr;
}

// Re-homing workloads over a one-slot LockSpace with one pre-reserved
// migration plane. "rehome:nofence" is a *planted* bug — the post-acquire
// control-word re-validation is skipped, so a claimant granted on the old
// plane after a migration coexists with the new plane's owner: two owners
// across the migration epoch, caught as a per-key mutex violation.
mc::LockSpaceFactory make_rehome_factory(const std::string& id) {
  if (id != "rehome:fenced" && id != "rehome:nofence") return nullptr;
  const bool planted = id == "rehome:nofence";
  return [planted](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.rehome_epochs = 1;
    config.rehome_skip_fence = planted;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

// Keyed LockSpace workloads: a small grid (4 slots per shard, shards per
// leaf) so P=2 machines still offer distinct slots for K=2 keys; the
// campaigns pick keys via mc::pick_cross_slot_keys, so "different keys"
// provably means "different physical locks".
mc::LockSpaceFactory make_lockspace_factory(const std::string& id) {
  if (id != "ls:rma-mcs" && id != "ls:rma-rw") return nullptr;
  const locks::Backend backend = id == "ls:rma-mcs"
                                     ? locks::Backend::kRmaMcs
                                     : locks::Backend::kRmaRw;
  return [backend](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = backend;
    config.slots_per_shard = 4;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

// Versioned optimistic-read workloads over a payload-capable LockSpace.
// "opt:skip-validation" is a *planted* bug — optimistic_read skips the
// version re-validation, certifying torn snapshots. The campaigns must
// catch it with the torn-read fault model armed (max_tears > 0) and print
// a deterministic --replay repro line; a torn-read-blind run of the same
// workload must MISS it — the false negative the fault model exists to
// prevent.
mc::LockSpaceFactory make_optimistic_factory(const std::string& id) {
  if (id != "opt:versioned" && id != "opt:skip-validation") return nullptr;
  const bool planted = id == "opt:skip-validation";
  return [planted](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaRw;
    config.slots_per_shard = 4;
    config.payload_words = 2;  // one split point: smallest tearable payload
    config.skip_read_validation = planted;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

// Wall-clock timed-lease workloads over a payload-capable one-slot
// LockSpace: grants are valid for duration_ns on the holder's clock,
// reclaimed after duration_ns + safety_margin_ns on the claimant's clock,
// and every write carries the grant epoch as a fencing token that
// LockSpace::write_payload_fenced validates. Two *planted* bugs:
// "drift:margin0" trusts the local clocks outright (safety_margin_ns = 0) —
// safe under perfect clocks, a belief overlap once the drift model is
// armed; "drift:skip-token-check" additionally drops the resource-side
// token validation, so the stale holder's write *commits* (a stale-token
// commit on top of the overlap). Both keep counterexample artifacts ON:
// the campaigns must print deterministic --replay repro lines.
mc::DriftLeaseFactory make_drift_factory(const std::string& id) {
  if (id != "drift:fenced" && id != "drift:margin0" &&
      id != "drift:skip-token-check") {
    return nullptr;
  }
  const bool margin = id == "drift:fenced";
  const bool skip_token = id == "drift:skip-token-check";
  return [margin, skip_token](rma::World& world) {
    mc::DriftLeaseSubject subject;
    locks::TimedLeaseParams params;
    params.home = 0;
    if (!margin) params.safety_margin_ns = 0;
    subject.lease = std::make_unique<locks::TimedLease>(world, params);
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.payload_words = 2;
    config.skip_token_check = skip_token;
    subject.space = std::make_unique<lockspace::LockSpace>(world, config);
    subject.key = 0;  // one slot: every key resolves to it
    return subject;
  };
}

// ---------------------------------------------------------------------------
// Randomized campaign (default mode)
// ---------------------------------------------------------------------------

struct Campaign {
  const char* name;
  topo::Topology topology;
};

/// Folds one campaign's counters (and wall time) into the --json record.
void record_campaign(harness::FigureReport& json, const std::string& series,
                     i32 nprocs, const mc::CheckReport& report,
                     double wall_s) {
  json.add(series, nprocs, "schedules",
           static_cast<double>(report.schedules_run));
  json.add(series, nprocs, "cs_entries",
           static_cast<double>(report.total_cs_entries));
  json.add(series, nprocs, "mutex_violations",
           static_cast<double>(report.mutex_violations));
  json.add(series, nprocs, "deadlocks",
           static_cast<double>(report.deadlocks));
  json.add(series, nprocs, "wall_s", wall_s);
}

/// Writes the campaign record iff --json was given (mc_verification prints
/// its own summaries, so only the file side of FigureReport is used).
void finish_json(harness::FigureReport& json) {
  if (harness::bench_json_path().empty()) return;
  if (json.write_json(harness::bench_json_path())) {
    std::printf("JSON written to %s\n", harness::bench_json_path().c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n",
                 harness::bench_json_path().c_str());
  }
}

/// Prints the flight-recorder post-mortem of a campaign's first failure —
/// the tail of every rank's event ring from a deterministic re-run of the
/// shrunk counterexample. Used by the planted-bug campaigns, where the
/// failure is the expected catch and the post-mortem shows WHAT the
/// interleaving did, next to the --replay repro line that shows how to
/// re-execute it.
void print_post_mortem(const mc::CheckReport& report) {
  if (!report.has_first_failure) return;
  const std::string& pm = report.first_failure.post_mortem;
  if (pm.empty()) return;
  std::printf("  flight recorder (shrunk counterexample):\n");
  // Indent every line so the dump reads as part of the campaign block.
  usize start = 0;
  while (start < pm.size()) {
    usize end = pm.find('\n', start);
    if (end == std::string::npos) end = pm.size();
    std::printf("  | %.*s\n", static_cast<int>(end - start), pm.data() + start);
    start = end + 1;
  }
}

mc::CheckConfig base_config(const topo::Topology& topology,
                            rma::SchedPolicy policy, u64 schedules,
                            i32 acquires, const std::string& trace_dir,
                            const std::string& workload_id, i32 jobs) {
  mc::CheckConfig config;
  config.topology = topology;
  config.policy = policy;
  config.schedules = schedules;
  config.acquires_per_proc = acquires;
  config.max_steps = 4'000'000;
  config.trace_dir = trace_dir;
  config.workload_id = workload_id;
  config.jobs = jobs;
  return config;
}

int run_randomized(bool quick, bool smoke, const std::string& trace_dir,
                   i32 jobs) {
  harness::FigureReport json(
      "mc_randomized", "§4.4 randomized campaign (random + PCT schedules)",
      "all tests confirm mutual exclusion and deadlock freedom");
  // N = 1..4 with equal children per level, largest = 256 procs (paper).
  const Campaign campaigns[] = {
      {"N=1 P=8", topo::Topology::uniform({}, 8)},
      {"N=2 P=16", topo::Topology::uniform({4}, 4)},
      {"N=3 P=64", topo::Topology::uniform({4, 4}, 4)},
      {"N=4 P=256", topo::Topology::uniform({4, 4, 4}, 4)},
  };
  std::printf("==========================================================\n");
  std::printf("mc_verification — §4.4 campaign (random + PCT schedules)\n");
  std::printf("paper: all tests confirm mutual exclusion and deadlock "
              "freedom\n");
  std::printf("==========================================================\n");

  bool all_ok = true;
  for (const auto& campaign : campaigns) {
    // Smoke keeps only the machines small enough for a <2s ctest budget.
    if (smoke && campaign.topology.nprocs() >= 64) continue;
    // Bigger machines get fewer schedules/acquires to bound runtime.
    const u64 schedules =
        smoke ? 2 : (quick ? 4 : (campaign.topology.nprocs() >= 64 ? 6 : 30));
    const i32 acquires =
        smoke ? 4 : (campaign.topology.nprocs() >= 64 ? 5 : 20);
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      {
        const Timer timer;
        const auto report = mc::check_rw(
            base_config(campaign.topology, policy, schedules, acquires,
                        trace_dir, "rw:rma-rw", jobs),
            make_rw_factory("rw:rma-rw"));
        std::printf("RMA-RW  %-10s %-7s %s\n", campaign.name, policy_name,
                    report.summary().c_str());
        all_ok = all_ok && report.ok();
        record_campaign(json, std::string("rw:rma-rw/") + policy_name,
                        campaign.topology.nprocs(), report,
                        timer.elapsed_s());
      }
      {
        const Timer timer;
        const auto report = mc::check_exclusive(
            base_config(campaign.topology, policy, schedules, acquires,
                        trace_dir, "ex:rma-mcs", jobs),
            make_exclusive_factory("ex:rma-mcs"));
        std::printf("RMA-MCS %-10s %-7s %s\n", campaign.name, policy_name,
                    report.summary().c_str());
        all_ok = all_ok && report.ok();
        record_campaign(json, std::string("ex:rma-mcs/") + policy_name,
                        campaign.topology.nprocs(), report,
                        timer.elapsed_s());
      }
    }
  }

  // Keyed LockSpace workloads: per-key mutual exclusion and deadlock
  // freedom over a sharded lock service; cross_key_overlaps in the summary
  // counts schedules where two distinct keys were held at once (the
  // cross-key-independence witness).
  std::printf("\n--- LockSpace keyed workloads (K=2 cross-slot keys) ---\n");
  for (const char* id : {"ls:rma-mcs", "ls:rma-rw"}) {
    const auto factory = make_lockspace_factory(id);
    const topo::Topology topology = topo::Topology::uniform({2}, 2);  // P=4
    const auto keys = mc::pick_cross_slot_keys(factory, topology, 2);
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      mc::CheckConfig config = base_config(
          topology, policy, smoke ? 2 : (quick ? 8 : 60),
          /*acquires=*/smoke ? 4 : 8, trace_dir, id, jobs);
      config.writer_fraction = 0.5;
      const Timer timer;
      const auto report = mc::check_lockspace(config, factory, keys);
      std::printf("%-8s P=4 K=2   %-7s %s\n",
                  id == std::string("ls:rma-mcs") ? "LS-MCS" : "LS-RW",
                  policy_name, report.summary().c_str());
      all_ok = all_ok && report.ok();
      // Overlap is near-certain over a full campaign but not a guarantee
      // of two random schedules; only the exhaustive mode requires it.
      if (!smoke && report.cross_key_overlap_schedules == 0) {
        std::printf("  warning: no cross-key overlap witnessed\n");
      }
      record_campaign(json, std::string(id) + "/" + policy_name,
                      topology.nprocs(), report, timer.elapsed_s());
    }
  }

  // Versioned optimistic reads under the torn-read fault model: writers
  // publish monotone ascending-order payloads under the write lock; readers
  // snapshot lock-free with version validation. The armed fault model lets
  // multi-word gets observe partial writes; validation must reject every
  // torn snapshot (OptimisticReadMonitor folds consistency violations into
  // mutex_violations).
  std::printf("\n--- optimistic versioned reads (torn-read model armed) "
              "---\n");
  {
    const auto factory = make_optimistic_factory("opt:versioned");
    const topo::Topology topology = topo::Topology::uniform({2}, 2);  // P=4
    const auto keys = mc::pick_cross_slot_keys(factory, topology, 2);
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      mc::CheckConfig config = base_config(
          topology, policy, smoke ? 2 : (quick ? 8 : 60),
          /*acquires=*/smoke ? 4 : 8, trace_dir, "opt:versioned", jobs);
      config.writer_fraction = 0.5;
      config.faults.max_tears = 2;
      const Timer timer;
      const auto report = mc::check_optimistic(config, factory, keys);
      std::printf("OPT-RW   P=4 K=2  %-7s %s\n", policy_name,
                  report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, std::string("opt:versioned/") + policy_name,
                      topology.nprocs(), report, timer.elapsed_s());
    }
  }

  // Planted skip-validation bug: with tears armed, both randomized policies
  // must CATCH the certified-torn-read bug (repro line printed; trace_dir
  // stays enabled on purpose). The torn-read-blind control run of the SAME
  // buggy workload must come back clean — without the fault model every
  // snapshot is single-instant and the bug is invisible, which is exactly
  // why the model exists.
  std::printf("\n--- planted skip-validation bug (must be caught when "
              "armed) ---\n");
  {
    // The bug's window is narrow: a tear must straddle a write session's
    // two payload puts on the SAME key. The campaign concentrates the
    // workload accordingly — one key (every reader races every writer),
    // pinned 2-writer/2-reader roles, and a tear budget spread across the
    // schedule with a low per-read chance so tears land mid-run where the
    // write traffic is, not in the first few reads.
    const auto factory = make_optimistic_factory("opt:skip-validation");
    const topo::Topology topology = topo::Topology::uniform({2}, 2);
    const auto keys = mc::pick_cross_slot_keys(factory, topology, 1);
    const std::vector<bool> roles = {true, false, true, false};
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      // Schedule i's world seed depends only on (base_seed, i), so the
      // smoke and quick tiers share the full tier's prefix — 150 schedules
      // provably contains a catch for BOTH policies (random: s34, pct:
      // s131 under the default base seed).
      mc::CheckConfig config = base_config(
          topology, policy, quick || smoke ? 150 : 400,
          /*acquires=*/10, trace_dir, "opt:skip-validation", jobs);
      config.writer_roles = roles;
      config.faults.max_tears = 6;
      config.faults.tear_chance_permille = 300;
      const auto report = mc::check_optimistic(config, factory, keys);
      std::printf("skip-validation (%-7s): %s\n", policy_name,
                  report.summary().c_str());
      print_post_mortem(report);
      const bool caught = report.mutex_violations > 0;
      if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
      all_ok = all_ok && caught;
    }
    {
      // Torn-read-blind control: same bug, fault model off. Expected clean.
      mc::CheckConfig config = base_config(
          topology, rma::SchedPolicy::kRandom, quick || smoke ? 150 : 400,
          /*acquires=*/10, /*trace_dir=*/"", "opt:skip-validation", jobs);
      config.writer_roles = roles;
      config.faults.max_tears = 0;
      const auto report = mc::check_optimistic(config, factory, keys);
      std::printf("skip-validation (blind  ): %s\n", report.summary().c_str());
      if (report.ok()) {
        std::printf("  torn-read-blind run missed the planted bug — the "
                    "expected false negative\n");
      } else {
        std::printf("  ERROR: blind run flagged a violation (atomic "
                    "snapshots should satisfy the monitor)\n");
      }
      all_ok = all_ok && report.ok();
    }
  }

  // Crash/recovery lease workloads: every schedule may kill one process at
  // a crash point (before an acquire or mid-CS); survivors must reclaim the
  // orphaned lease with a fenced (epoch-bumped) steal. A low crash chance
  // spreads the single crash across the schedule so mid-CS deaths — the
  // ones that orphan the lease — are well represented.
  std::printf("\n--- crash/recovery lease workloads (<=1 crash/schedule) "
              "---\n");
  const topo::Topology crash_topology = topo::Topology::uniform({2}, 2);
  for (const char* id : {"lease:mcs", "lease:rw"}) {
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      mc::CheckConfig config = base_config(
          crash_topology, policy, smoke ? 4 : (quick ? 30 : 200),
          /*acquires=*/smoke ? 3 : 5, trace_dir, id, jobs);
      config.faults.max_crashes = 1;
      config.faults.crash_chance_permille = 100;
      const Timer timer;
      const auto report = mc::check_lease(config, make_lease_factory(id));
      std::printf("%-10s P=4      %-7s %s\n",
                  id == std::string("lease:mcs") ? "LEASE-MCS" : "LEASE-RW",
                  policy_name, report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, std::string(id) + "/" + policy_name,
                      crash_topology.nprocs(), report, timer.elapsed_s());
    }
  }
  {
    // Restart regime: crashed processes reboot and re-run the workload from
    // the top, so recovery must also tolerate the old owner coming back —
    // its stale-epoch release has to fail quietly against the fenced lease.
    mc::CheckConfig config = base_config(
        crash_topology, rma::SchedPolicy::kRandom,
        smoke ? 4 : (quick ? 30 : 200), /*acquires=*/smoke ? 3 : 5, trace_dir,
        "lease:mcs", jobs);
    config.faults.max_crashes = 1;
    config.faults.crash_chance_permille = 100;
    config.faults.restart_crashed = true;
    const Timer timer;
    const auto report = mc::check_lease(config, make_lease_factory("lease:mcs"));
    std::printf("LEASE-MCS  P=4+rest random  %s\n", report.summary().c_str());
    all_ok = all_ok && report.ok();
    record_campaign(json, "lease:mcs/restart", crash_topology.nprocs(),
                    report, timer.elapsed_s());
  }

  // Planted recovery bug: the no-fence reclaim must be CAUGHT (two owners
  // in one epoch) by both randomized policies, and the summary must print a
  // replayable repro line — trace_dir stays enabled on purpose.
  std::printf("\n--- planted no-fence lease recovery bug (must be caught) "
              "---\n");
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    const char* policy_name =
        policy == rma::SchedPolicy::kRandom ? "random" : "pct";
    mc::CheckConfig config = base_config(
        crash_topology, policy, smoke ? 60 : (quick ? 150 : 400),
        /*acquires=*/smoke ? 3 : 5, trace_dir, "lease:mcs-nofence", jobs);
    config.faults.max_crashes = 1;
    config.faults.crash_chance_permille = 100;
    const auto report =
        mc::check_lease(config, make_lease_factory("lease:mcs-nofence"));
    std::printf("no-fence lease (%-7s): %s\n", policy_name,
                report.summary().c_str());
    print_post_mortem(report);
    const bool caught = report.mutex_violations > 0;
    if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
    all_ok = all_ok && caught;
  }

  // Timed acquires under the gray-failure model: stragglers (delayed
  // remote ops) and transient partitions are armed, so some acquires time
  // out; the deadline+backoff path must stay safe (mutex), live (no
  // deadlock) AND bounded (LivelockMonitor: no rank burns more than
  // livelock_bound retries without progress).
  std::printf("\n--- timed acquires under gray failures (deadline+backoff) "
              "---\n");
  for (const char* id :
       {"timeout:rma-mcs", "timeout:rma-rw", "timeout:lease-mcs"}) {
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      mc::CheckConfig config = base_config(
          crash_topology, policy, smoke ? 4 : (quick ? 30 : 150),
          /*acquires=*/4, trace_dir, id, jobs);
      config.faults.max_delays = 2;
      config.faults.max_partitions = 1;
      const Timer timer;
      const auto report = mc::check_timeout(config, make_timeout_factory(id));
      std::printf("%-18s P=4 %-7s %s\n", id, policy_name,
                  report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, std::string(id) + "/" + policy_name,
                      crash_topology.nprocs(), report, timer.elapsed_s());
    }
  }

  // Planted retry bug: the same rma-mcs workload with backoff DISABLED.
  // Failed attempts no longer advance the virtual clock, so the deadline
  // never expires for a starved rank — it spins to the retry valve and the
  // LivelockMonitor must flag it. PCT schedules manufacture exactly that
  // starvation (one rank de-prioritized while holding the lock).
  std::printf("\n--- planted no-backoff retry livelock (must be caught) "
              "---\n");
  {
    // The starvation window is narrow (a PCT change point must de-prioritize
    // the holder and no later change point may rescue it before the retry
    // valve), so this campaign needs more schedules than the other planted
    // bugs — the first catch is around schedule 220 under the fixed seed.
    mc::CheckConfig config = base_config(
        topo::Topology::uniform({}, 2), rma::SchedPolicy::kPct,
        quick ? 300 : 400, /*acquires=*/4, trace_dir,
        "timeout:no-backoff", jobs);
    config.retry.backoff = false;
    config.faults.max_delays = 2;
    const auto report =
        mc::check_timeout(config, make_timeout_factory("timeout:no-backoff"));
    std::printf("no-backoff retry (pct):   %s\n", report.summary().c_str());
    print_post_mortem(report);
    const bool caught = report.livelock_violations > 0;
    if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
    all_ok = all_ok && caught;

    // Control: identical schedules with backoff ON must be clean — the
    // livelock is the retry policy's fault, not the scheduler's.
    mc::CheckConfig control = config;
    control.retry.backoff = true;
    control.trace_dir.clear();
    control.workload_id = "timeout:rma-mcs";
    const auto control_report =
        mc::check_timeout(control, make_timeout_factory("timeout:rma-mcs"));
    std::printf("backoff control (pct):    %s\n",
                control_report.summary().c_str());
    if (!control_report.ok()) {
      std::printf("  backoff control failed — the bounded-retry property "
                  "does not hold even for the correct policy\n");
    }
    all_ok = all_ok && control_report.ok();
  }

  // Shard re-homing: a mid-run migration moves the only shard to its next
  // plane while every rank hammers timed acquires on the same key. The
  // fenced path must never admit two owners across the migration epoch;
  // the planted fence-skipping variant must be caught.
  std::printf("\n--- shard re-homing across migration epochs ---\n");
  const topo::Topology rehome_topology = topo::Topology::uniform({}, 2);
  {
    const auto factory = make_rehome_factory("rehome:fenced");
    const auto keys = mc::pick_cross_slot_keys(factory, rehome_topology, 1);
    for (const auto policy :
         {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
      const char* policy_name =
          policy == rma::SchedPolicy::kRandom ? "random" : "pct";
      mc::CheckConfig config = base_config(
          rehome_topology, policy, smoke ? 4 : (quick ? 30 : 150),
          /*acquires=*/4, trace_dir, "rehome:fenced", jobs);
      const Timer timer;
      const auto report = mc::check_rehome(config, factory, keys);
      std::printf("%-16s P=2 %-7s %s\n", "rehome:fenced", policy_name,
                  report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, std::string("rehome:fenced/") + policy_name,
                      rehome_topology.nprocs(), report, timer.elapsed_s());
    }
  }
  {
    // The two-owner window (claimant stalled between its directory read and
    // its old-plane grant across a full migration) only opens under uniform
    // random schedules here — PCT's strict priorities never stall the
    // claimant mid-window — so the must-catch assertion runs kRandom, with
    // enough schedules to pass the first catch (~schedule 76 under the
    // fixed seed).
    const auto factory = make_rehome_factory("rehome:nofence");
    const auto keys = mc::pick_cross_slot_keys(factory, rehome_topology, 1);
    mc::CheckConfig config = base_config(
        rehome_topology, rma::SchedPolicy::kRandom, quick ? 150 : 400,
        /*acquires=*/4, trace_dir, "rehome:nofence", jobs);
    const auto report = mc::check_rehome(config, factory, keys);
    std::printf("%-16s P=2 random  %s\n", "rehome:nofence",
                report.summary().c_str());
    print_post_mortem(report);
    const bool caught = report.mutex_violations > 0;
    if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
    all_ok = all_ok && caught;
  }

  // Wall-clock leases under the clock-drift fault model: per-process
  // clocks may drift (rate error) and skew (step) within the armed budget;
  // the correctly-margined, token-fenced workload must stay clean — no
  // belief overlap, no stale-token commit — across every drifted schedule.
  // Drift campaigns run under kVirtualTime: the clocks themselves are the
  // adversary here (drift decisions are the explored choice, randomized per
  // world seed), and belief intervals are only comparable when every
  // process executes in virtual-time order — a preemptive scheduler's
  // unbounded pauses would flag overlaps no finite margin can prevent
  // (that hazard is real, but it is the *pause* story, not the clock one).
  std::printf("\n--- wall-clock leases under clock drift (fencing tokens) "
              "---\n");
  const topo::Topology drift_topology = topo::Topology::uniform({}, 2);
  {
    const auto factory = make_drift_factory("drift:fenced");
    mc::CheckConfig config = base_config(
        drift_topology, rma::SchedPolicy::kVirtualTime,
        smoke ? 8 : (quick ? 60 : 300), /*acquires=*/3, trace_dir,
        "drift:fenced", jobs);
    config.faults.max_drift_events = 2;
    const Timer timer;
    const auto report = mc::check_drift(config, factory);
    std::printf("%-16s P=2 %-7s %s\n", "drift:fenced", "vtime",
                report.summary().c_str());
    all_ok = all_ok && report.ok();
    if (report.stale_token_commits > 0) {
      std::printf("  ERROR: fencing admitted a stale-token commit\n");
      all_ok = false;
    }
    record_campaign(json, "drift:fenced/virtual-time",
                    drift_topology.nprocs(), report, timer.elapsed_s());
  }

  // Planted zero-margin bug: the claimant trusts the clocks and reclaims
  // right at duration_ns, so a drift-slow holder still *believes* its lease
  // valid while the reclaim proceeds — the belief overlap the monitor must
  // flag. Fencing stays ON, so the stale holder's write is rejected at the
  // resource: the campaign asserts the overlap is caught AND that zero
  // stale-token commits slip through — the fencing token contains the bug
  // even when the lease protocol itself is broken.
  std::printf("\n--- planted zero-margin lease bug (must be caught under "
              "drift) ---\n");
  {
    const auto factory = make_drift_factory("drift:margin0");
    {
      mc::CheckConfig config = base_config(
          drift_topology, rma::SchedPolicy::kVirtualTime,
          smoke ? 60 : (quick ? 150 : 400),
          /*acquires=*/3, trace_dir, "drift:margin0", jobs);
      config.faults.max_drift_events = 2;
      const auto report = mc::check_drift(config, factory);
      std::printf("zero-margin (%-7s): %s\n", "vtime",
                  report.summary().c_str());
      print_post_mortem(report);
      const bool caught = report.mutex_violations > 0;
      if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
      all_ok = all_ok && caught;
      if (report.stale_token_commits > 0) {
        std::printf("  ERROR: fencing admitted a stale-token commit\n");
        all_ok = false;
      }
    }
    {
      // Drift-blind control: same zero-margin workload, clock model off.
      // Expected clean — under perfect clocks the claimant's reclaim at
      // duration_ns can only land at-or-after the holder's belief expires,
      // which is exactly why time-based leases look safe in testing and
      // fail in production.
      mc::CheckConfig config = base_config(
          drift_topology, rma::SchedPolicy::kVirtualTime,
          smoke ? 60 : (quick ? 150 : 400), /*acquires=*/3,
          /*trace_dir=*/"", "drift:margin0", jobs);
      config.faults.max_drift_events = 0;
      const auto report = mc::check_drift(config, factory);
      std::printf("zero-margin (blind  ): %s\n", report.summary().c_str());
      if (report.ok()) {
        std::printf("  drift-blind run missed the planted bug — the "
                    "expected false negative\n");
      } else {
        std::printf("  ERROR: blind run flagged a violation (perfect clocks "
                    "should satisfy the monitor)\n");
      }
      all_ok = all_ok && report.ok();
    }
  }

  // Planted skip-token-check bug: zero margin AND no resource-side token
  // validation — the end-to-end failure. The stale holder's write now
  // *commits* with an old token, so on top of the belief overlap the
  // campaign must witness stale_token_commits > 0: margins only shrink the
  // overlap window; fencing is what closes it.
  std::printf("\n--- planted skip-token-check bug (stale write must commit) "
              "---\n");
  {
    const auto factory = make_drift_factory("drift:skip-token-check");
    mc::CheckConfig config = base_config(
        drift_topology, rma::SchedPolicy::kVirtualTime,
        smoke ? 60 : (quick ? 150 : 400), /*acquires=*/3, trace_dir,
        "drift:skip-token-check", jobs);
    config.faults.max_drift_events = 2;
    const auto report = mc::check_drift(config, factory);
    std::printf("skip-token-check (vtime ): %s\n", report.summary().c_str());
    print_post_mortem(report);
    const bool caught = report.mutex_violations > 0;
    if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
    all_ok = all_ok && caught;
    if (report.stale_token_commits == 0) {
      std::printf("  ERROR: no stale-token commit witnessed — the unfenced "
                  "resource should have admitted one\n");
      all_ok = false;
    }
  }

  // Demonstration: the literal Listing 6/9 reader reset (which clears the
  // WRITE flag) vs. the flag-preserving fix, under aggressive schedules.
  // The faithful variant is a *planted* bug — expected to fail — so it
  // never writes counterexample artifacts.
  std::printf("\n--- reader-reset race demonstration (DESIGN.md §2.5) ---\n");
  for (const bool faithful : {false, true}) {
    const std::string id =
        faithful ? "rw:rma-rw-faithful-reset" : "rw:rma-rw-fixed-reset";
    mc::CheckConfig config = base_config(
        topo::Topology::uniform({2}, 2), rma::SchedPolicy::kRandom,
        quick ? 50 : 400, 8, faithful ? "" : trace_dir, id, jobs);
    config.writer_fraction = 0.5;
    const auto report = mc::check_rw(config, make_rw_factory(id));
    std::printf("%-28s %s\n",
                faithful ? "listing-6 reset (faithful):"
                         : "flag-preserving reset:",
                report.summary().c_str());
    if (!faithful) all_ok = all_ok && report.ok();
  }

  std::printf("\nVERDICT: %s\n", all_ok ? "all safety properties hold"
                                        : "VIOLATIONS FOUND");
  finish_json(json);
  return 0;  // report only; tests/mc asserts
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive campaign (--exhaustive)
// ---------------------------------------------------------------------------

int run_exhaustive(bool quick, bool smoke, const std::string& trace_dir,
                   i32 jobs) {
  struct ExhaustiveCase {
    const char* name;
    topo::Topology topology;
    i32 acquires;
    i32 max_preemptions;  // iterative deepening 0..this
    u64 max_schedules;
  };
  std::vector<ExhaustiveCase> cases = {
      {"P=2", topo::Topology::uniform({}, 2), 2, 4, 500'000},
      {"P=3", topo::Topology::uniform({}, 3), 1, 3, 500'000},
      {"P=2x2", topo::Topology::uniform({2}, 2), 1, 2, 500'000},
  };
  if (smoke) {
    cases = {{"P=2", topo::Topology::uniform({}, 2), 1, 2, 50'000}};
  } else if (quick) {
    cases.resize(2);
    cases[0].max_preemptions = 3;
  }

  harness::FigureReport json(
      "mc_exhaustive", "bounded-exhaustive DFS sweep",
      "every interleaving within the bounds enumerated; wall_s is the "
      "engine-throughput perf gate");
  std::printf("==========================================================\n");
  std::printf("mc_verification --exhaustive — bounded-exhaustive DFS\n");
  std::printf("(iterative preemption deepening; 'exhausted_spaces=1' means\n");
  std::printf(" every interleaving within the bounds was enumerated)\n");
  std::printf("==========================================================\n");

  bool all_ok = true;
  for (const auto& c : cases) {
    mc::ExploreConfig explore;
    explore.max_schedules = c.max_schedules;
    explore.max_preemptions = c.max_preemptions;
    {
      mc::CheckConfig config;
      config.topology = c.topology;
      config.acquires_per_proc = c.acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = "ex:rma-mcs";
      config.jobs = jobs;
      const Timer timer;
      const auto report = mc::check_exclusive_exhaustive(
          config, explore, make_exclusive_factory("ex:rma-mcs"),
          /*iterative=*/true);
      std::printf("RMA-MCS %-6s acq=%d d<=%d %s\n", c.name, c.acquires,
                  c.max_preemptions, report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, "ex:rma-mcs/exhaustive", c.topology.nprocs(),
                      report, timer.elapsed_s());
    }
    {
      mc::CheckConfig config;
      config.topology = c.topology;
      config.acquires_per_proc = c.acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = "rw:rma-rw";
      config.jobs = jobs;
      // Fixed reader/writer mix: every rank alternates by parity so the
      // enumerated space always contains reader/writer interactions.
      config.writer_roles.assign(
          static_cast<usize>(c.topology.nprocs()), false);
      for (i32 r = 0; r < c.topology.nprocs(); r += 2) {
        config.writer_roles[static_cast<usize>(r)] = true;
      }
      const Timer timer;
      const auto report = mc::check_rw_exhaustive(
          config, explore, make_rw_factory("rw:rma-rw"), /*iterative=*/true);
      std::printf("RMA-RW  %-6s acq=%d d<=%d %s\n", c.name, c.acquires,
                  c.max_preemptions, report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, "rw:rma-rw/exhaustive", c.topology.nprocs(),
                      report, timer.elapsed_s());
    }
    {
      // Keyed LockSpace over the same machine: K=2 keys pinned to distinct
      // slots, alternating per process — per-key mutual exclusion plus a
      // *required* cross-key-overlap witness (any iterative sweep with a
      // preemption budget >= 1 enumerates a schedule where both keys are
      // held at once; a space whose keys secretly share a lock would never
      // produce one).
      const auto factory = make_lockspace_factory("ls:rma-mcs");
      const auto keys = mc::pick_cross_slot_keys(factory, c.topology, 2);
      mc::CheckConfig config;
      config.topology = c.topology;
      config.acquires_per_proc = c.acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = "ls:rma-mcs";
      config.jobs = jobs;
      const Timer timer;
      const auto report = mc::check_lockspace_exhaustive(
          config, explore, factory, keys, /*iterative=*/true);
      std::printf("LS-MCS  %-6s acq=%d d<=%d %s\n", c.name, c.acquires,
                  c.max_preemptions, report.summary().c_str());
      all_ok = all_ok && report.ok() &&
               report.cross_key_overlap_schedules > 0;
      record_campaign(json, "ls:rma-mcs/exhaustive", c.topology.nprocs(),
                      report, timer.elapsed_s());
      json.add("ls:rma-mcs/exhaustive", c.topology.nprocs(),
               "cross_key_overlaps",
               static_cast<double>(report.cross_key_overlap_schedules));
    }
  }
  // Crash-point schedules: with max_crashes=1 every armed crash point is a
  // scheduler decision, so the DFS enumerates all crash-free interleavings
  // AND every placement of the single crash. The fenced leases must drain
  // their space with zero violations; the planted no-fence recovery must be
  // caught with a replayable counterexample.
  std::printf("\n--- crash-point schedules (lease recovery, <=1 crash) "
              "---\n");
  {
    mc::ExploreConfig explore;
    explore.max_schedules = smoke ? 50'000 : 500'000;
    explore.max_preemptions = smoke ? 2 : 3;
    const topo::Topology topology = topo::Topology::uniform({}, 2);
    const i32 acquires = smoke ? 1 : 2;
    for (const char* id : {"lease:mcs", "lease:rw"}) {
      mc::CheckConfig config;
      config.topology = topology;
      config.acquires_per_proc = acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = id;
      config.jobs = jobs;
      config.faults.max_crashes = 1;
      const Timer timer;
      const auto report = mc::check_lease_exhaustive(
          config, explore, make_lease_factory(id), /*iterative=*/true);
      std::printf("%-10s P=2 acq=%d d<=%d %s\n",
                  id == std::string("lease:mcs") ? "LEASE-MCS" : "LEASE-RW",
                  acquires, explore.max_preemptions,
                  report.summary().c_str());
      all_ok = all_ok && report.ok();
      record_campaign(json, std::string(id) + "/exhaustive",
                      topology.nprocs(), report, timer.elapsed_s());
    }
    {
      mc::CheckConfig config;
      config.topology = topology;
      config.acquires_per_proc = acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = "lease:mcs-nofence";
      config.jobs = jobs;
      config.faults.max_crashes = 1;
      const auto report = mc::check_lease_exhaustive(
          config, explore, make_lease_factory("lease:mcs-nofence"),
          /*iterative=*/true);
      std::printf("no-fence   P=2 acq=%d d<=%d %s\n", acquires,
                  explore.max_preemptions, report.summary().c_str());
      const bool caught = report.mutex_violations > 0;
      if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
      all_ok = all_ok && caught;
    }
  }

  // Torn-read schedules: with max_tears=1 every armed multi-word get is a
  // scheduler decision, so the DFS enumerates all atomic-snapshot
  // interleavings AND every tear placement. The validated reader must drain
  // its space with zero violations; the planted skip-validation bug must be
  // caught with a replayable counterexample (the minimal one needs three
  // preemptions: pause the writer pre-bump, tear the read, resume the
  // writer across the split).
  std::printf("\n--- torn-read schedules (optimistic reads, <=1 tear) "
              "---\n");
  {
    mc::ExploreConfig explore;
    explore.max_schedules = smoke ? 50'000 : 500'000;
    explore.max_preemptions = 3;
    const topo::Topology topology = topo::Topology::uniform({}, 2);
    const i32 acquires = 1;
    const std::vector<bool> roles = {true, false};  // 1 writer, 1 reader
    for (const char* id : {"opt:versioned", "opt:skip-validation"}) {
      const auto factory = make_optimistic_factory(id);
      const auto keys = mc::pick_cross_slot_keys(factory, topology, 1);
      mc::CheckConfig config;
      config.topology = topology;
      config.acquires_per_proc = acquires;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = id;
      config.jobs = jobs;
      config.writer_roles = roles;
      config.faults.max_tears = 1;
      const bool planted = id == std::string("opt:skip-validation");
      const Timer timer;
      const auto report = mc::check_optimistic_exhaustive(
          config, explore, factory, keys, /*iterative=*/true);
      std::printf("%-15s P=2 acq=%d d<=%d %s\n",
                  planted ? "skip-validation" : "OPT-RW", acquires,
                  explore.max_preemptions, report.summary().c_str());
      if (planted) {
        const bool caught = report.mutex_violations > 0;
        if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
        all_ok = all_ok && caught;
      } else {
        all_ok = all_ok && report.ok();
        record_campaign(json, "opt:versioned/exhaustive", topology.nprocs(),
                        report, timer.elapsed_s());
      }
    }
  }

  // Timeout/starvation schedules: timed acquires with deadline+backoff vs
  // the planted no-backoff policy. With backoff, every failed attempt
  // advances the virtual clock, so a starved rank's deadline expires after
  // a bounded number of retries — the LivelockMonitor stays quiet over the
  // whole bounded space. Without backoff the clock freezes during the spin;
  // one preemption into a rank while the lock is held sends it straight to
  // the retry valve (a 2-rank straggler schedule), which the monitor must
  // flag with a shrunk, replayable counterexample.
  std::printf("\n--- timeout/starvation schedules (bounded-retry progress) "
              "---\n");
  {
    mc::ExploreConfig explore;
    explore.max_schedules = smoke ? 50'000 : 500'000;
    explore.max_preemptions = 2;
    const topo::Topology topology = topo::Topology::uniform({}, 2);
    for (const char* id : {"timeout:rma-mcs", "timeout:no-backoff"}) {
      const bool planted = id == std::string("timeout:no-backoff");
      mc::CheckConfig config;
      config.topology = topology;
      config.timeout_retry_rounds = 2;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = id;
      config.jobs = jobs;
      if (planted) config.retry.backoff = false;
      const Timer timer;
      const auto report = mc::check_timeout_exhaustive(
          config, explore, make_timeout_factory(id), /*iterative=*/true);
      std::printf("%-18s P=2 rounds=2 d<=%d %s\n", id,
                  explore.max_preemptions, report.summary().c_str());
      if (planted) {
        const bool caught = report.livelock_violations > 0;
        if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
        all_ok = all_ok && caught;
      } else {
        all_ok = all_ok && report.ok();
        record_campaign(json, "timeout:rma-mcs/exhaustive", topology.nprocs(),
                        report, timer.elapsed_s());
      }
    }
  }

  // Clock-drift schedules: scheduling stays virtual-time (belief intervals
  // are only comparable on that timeline — see check_drift_exhaustive), and
  // every armed remote op is a DFS decision, so the explorer enumerates
  // every placement of the <=2 drift events over the deterministic schedule
  // (each event is a deterministic function of its rank and ordinal, so the
  // branches alone pin the whole clock trajectory). Two events are the
  // minimal budget that reaches the hazard: a rank's first event drifts it
  // in the self-safe direction (a slow holder extends only its own belief;
  // a slow claimant waits longer), so the counterexample needs the second,
  // opposite-signed event — a fast-clocked claimant whose observation
  // window shrinks below the honest holder's belief. The margined,
  // token-fenced lease must drain its space with zero violations; the
  // planted zero-margin variant must be caught with a replayable
  // counterexample.
  std::printf("\n--- clock-drift schedules (wall-clock leases, <=2 events) "
              "---\n");
  {
    mc::ExploreConfig explore;
    explore.max_schedules = smoke ? 50'000 : 500'000;
    explore.max_preemptions = smoke ? 2 : 3;
    const topo::Topology topology = topo::Topology::uniform({}, 2);
    for (const char* id : {"drift:fenced", "drift:margin0"}) {
      const bool planted = id == std::string("drift:margin0");
      const auto factory = make_drift_factory(id);
      mc::CheckConfig config;
      config.topology = topology;
      // Two rounds per rank: the overlap needs an abandoned hold reclaimed
      // by time, and under deterministic virtual-time scheduling the first
      // round's holds are always released or never reclaimed — the hazard
      // starts at the second round.
      config.acquires_per_proc = 2;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = id;
      config.jobs = jobs;
      config.faults.max_drift_events = 2;
      const Timer timer;
      const auto report = mc::check_drift_exhaustive(config, explore, factory,
                                                     /*iterative=*/true);
      std::printf("%-16s P=2 acq=2 e<=%d %s\n", id,
                  config.faults.max_drift_events, report.summary().c_str());
      if (planted) {
        const bool caught = report.mutex_violations > 0;
        if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
        all_ok = all_ok && caught;
      } else {
        all_ok = all_ok && report.ok();
        record_campaign(json, "drift:fenced/exhaustive", topology.nprocs(),
                        report, timer.elapsed_s());
      }
    }
  }

  // Re-homing schedules: rank 1 migrates the only shard mid-run while both
  // ranks hammer timed acquires on the same key. The minimal two-owner
  // counterexample needs two preemptions: pause a claimant between its
  // directory read and its grant, migrate + acquire on the new plane, then
  // resume the stale claimant — only the post-acquire fence deflects it.
  std::printf("\n--- re-homing schedules (migration fence, epoch-stamped) "
              "---\n");
  {
    mc::ExploreConfig explore;
    explore.max_schedules = smoke ? 50'000 : 500'000;
    explore.max_preemptions = 2;
    const topo::Topology topology = topo::Topology::uniform({}, 2);
    for (const char* id : {"rehome:fenced", "rehome:nofence"}) {
      const bool planted = id == std::string("rehome:nofence");
      const auto factory = make_rehome_factory(id);
      const auto keys = mc::pick_cross_slot_keys(factory, topology, 1);
      mc::CheckConfig config;
      config.topology = topology;
      config.acquires_per_proc = 2;
      config.max_steps = 400'000;
      config.trace_dir = trace_dir;
      config.workload_id = id;
      config.jobs = jobs;
      const Timer timer;
      const auto report = mc::check_rehome_exhaustive(
          config, explore, factory, keys, /*iterative=*/true);
      std::printf("%-16s P=2 acq=2 d<=%d %s\n", id, explore.max_preemptions,
                  report.summary().c_str());
      if (planted) {
        const bool caught = report.mutex_violations > 0;
        if (!caught) std::printf("  ERROR: planted bug was NOT caught\n");
        all_ok = all_ok && caught;
      } else {
        all_ok = all_ok && report.ok();
        record_campaign(json, "rehome:fenced/exhaustive", topology.nprocs(),
                        report, timer.elapsed_s());
      }
    }
  }

  std::printf("\nVERDICT: %s\n",
              all_ok ? "all enumerated interleavings are safe"
                     : "VIOLATIONS FOUND");
  finish_json(json);
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Trace replay (--replay)
// ---------------------------------------------------------------------------

int run_replay(const std::string& path) {
  mc::TraceCase repro;
  std::string error;
  if (!mc::read_trace_file(path, &repro, &error)) {
    std::fprintf(stderr, "mc_verification: cannot load trace: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("replaying %s\n", path.c_str());
  std::printf("  workload  %s (%s)\n", repro.workload.c_str(),
              repro.lock_name.c_str());
  std::printf("  topology  %s\n", repro.topology.describe().c_str());
  std::printf("  seed      %llu\n",
              static_cast<unsigned long long>(repro.world_seed));
  std::printf("  schedule  %zu picks, expected violation: %s\n",
              repro.trace.picks.size(), repro.kind.c_str());

  mc::CheckConfig config;
  config.topology = repro.topology;
  config.acquires_per_proc = repro.acquires_per_proc;
  config.writer_fraction = repro.writer_fraction;
  config.writer_roles = repro.writer_roles;
  config.max_steps = repro.max_steps;
  config.faults = repro.faults;
  // Virtual-time campaigns (drift) replay under kVirtualTime with the trace
  // consumed only at fault-decision points; everything else replays under
  // kReplay. replay_options() keys off this.
  config.policy = repro.recorded_policy;
  // The planted retry bug lives in the *policy*, not the lock — re-apply it
  // from the workload id so the replayed schedule spins the same way.
  if (repro.workload == "timeout:no-backoff") config.retry.backoff = false;

  // One replay-options block for every workload family (the trace is
  // consumed identically), with the flight recorder armed: the replay
  // doubles as the trace-export path (--trace-out) and always ends with a
  // post-mortem of the rings.
  obs::Tracer flight(repro.topology.nprocs());
  rma::SimOptions ropts =
      mc::replay_options(config, repro.world_seed, repro.trace);
  ropts.tracer = &flight;

  mc::ScheduleOutcome outcome;
  if (const auto drift = make_drift_factory(repro.workload)) {
    outcome = mc::run_drift_schedule(config, drift, ropts);
  } else if (const auto timed = make_timeout_factory(repro.workload)) {
    outcome = mc::run_timeout_schedule(config, timed, ropts);
  } else if (const auto rehome = make_rehome_factory(repro.workload)) {
    const auto keys = mc::pick_cross_slot_keys(rehome, repro.topology, 1);
    outcome = mc::run_rehome_schedule(config, rehome, keys, ropts);
  } else if (const auto rw = make_rw_factory(repro.workload)) {
    outcome = mc::run_rw_schedule(config, rw, ropts);
  } else if (const auto ex = make_exclusive_factory(repro.workload)) {
    outcome = mc::run_exclusive_schedule(config, ex, ropts);
  } else if (const auto lease = make_lease_factory(repro.workload)) {
    outcome = mc::run_lease_schedule(config, lease, ropts);
  } else if (const auto ls = make_lockspace_factory(repro.workload)) {
    // Keys are a pure function of (factory, topology) — the replay derives
    // the same K=2 cross-slot keys the campaign used.
    const auto keys = mc::pick_cross_slot_keys(ls, repro.topology, 2);
    outcome = mc::run_lockspace_schedule(config, ls, keys, ropts);
  } else if (const auto opt = make_optimistic_factory(repro.workload)) {
    // Same key-derivation convention as the campaigns: the P=2 exhaustive
    // sweep and the single-key planted-bug campaign use one key, the
    // bigger validated randomized machines use K=2.
    const i32 k = (repro.topology.nprocs() <= 2 ||
                   repro.workload == "opt:skip-validation")
                      ? 1
                      : 2;
    const auto keys = mc::pick_cross_slot_keys(opt, repro.topology, k);
    outcome = mc::run_optimistic_schedule(config, opt, keys, ropts);
  } else {
    std::fprintf(stderr, "mc_verification: unknown workload id '%s'\n",
                 repro.workload.c_str());
    return 1;
  }

  std::printf("  result    mutex_violations=%llu livelock_violations=%llu "
              "deadlocked=%d steps=%llu divergences=%llu\n",
              static_cast<unsigned long long>(outcome.mutex_violations),
              static_cast<unsigned long long>(outcome.livelock_violations),
              outcome.run.deadlocked ? 1 : 0,
              static_cast<unsigned long long>(outcome.run.steps),
              static_cast<unsigned long long>(outcome.run.replay_divergences));
  std::printf("\nflight recorder:\n%s", obs::render_post_mortem(flight).c_str());
  harness::maybe_write_bench_trace(flight);
  const bool reproduced =
      (repro.kind == "mutex" && outcome.mutex_violations > 0) ||
      (repro.kind == "livelock" && outcome.livelock_violations > 0) ||
      (repro.kind == "deadlock" && outcome.run.deadlocked) ||
      (repro.kind == "none" && !outcome.failed());
  std::printf("VERDICT: %s\n", reproduced ? "violation reproduced"
                                          : "DID NOT REPRODUCE");
  return reproduced ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the modes this binary adds on top of the shared bench CLI
  // (apply_bench_cli rejects flags it does not know).
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--quick] [--exhaustive] "
                 "[--replay <trace-file>] [--trace-dir <dir>] "
                 "[--jobs <n>] [--json <path>] [--trace-out <path>]\n",
                 argv[0]);
    std::exit(2);
  };
  bool exhaustive = false;
  std::string replay_path;
  std::string trace_dir =
      std::getenv("RMALOCK_TRACE_DIR") ? std::getenv("RMALOCK_TRACE_DIR") : "";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exhaustive") == 0) {
      exhaustive = true;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      if (i + 1 >= argc) usage();
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) usage();
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--jobs") == 0 ||
               std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) usage();
      passthrough.push_back(argv[i]);
      passthrough.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0 ||
               std::strcmp(argv[i], "--quick") == 0) {
      passthrough.push_back(argv[i]);
    } else {
      usage();
    }
  }
  rmalock::harness::apply_bench_cli(static_cast<int>(passthrough.size()),
                                    passthrough.data());
  const harness::BenchEnv env = harness::BenchEnv::from_env();

  if (!replay_path.empty()) return run_replay(replay_path);
  if (exhaustive) {
    return run_exhaustive(env.quick, env.smoke, trace_dir, env.jobs);
  }
  return run_randomized(env.quick, env.smoke, trace_dir, env.jobs);
}

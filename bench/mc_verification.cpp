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
//                 (docs/DESIGN.md §2.5): the literal Listing 6/9
//                 composition is exercised under the same schedules;
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
// Exit status: both campaign modes exit 1 when a property fails or a
// planted bug goes uncaught ("VERDICT: VIOLATIONS FOUND"); --replay exits 2
// when the recorded kind does not reproduce.
//
// Counterexamples: any first failure is ddmin-shrunk and, when a trace
// directory is configured (--trace-dir DIR or RMALOCK_TRACE_DIR), written
// as a replayable trace file whose path is printed in the summary — that is
// what the nightly CI job uploads as build artifacts.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "harness/bench_common.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/registry.hpp"
#include "mc/schedule.hpp"

namespace {

using namespace rmalock;
using rma::SchedPolicy;

// ---------------------------------------------------------------------------
// Campaign tables: every campaign is one row naming a stable workload id
// (mc::named_workload), which trace files record so --replay maps a
// counterexample back to the identical workload long after the campaign
// finished. One driver runs every row of both modes.
// ---------------------------------------------------------------------------

/// What a row's report must show for the campaign to pass.
enum class Expect {
  kClean,           // no violation (ok_note / fail_note explain the verdict)
  kCaughtMutex,     // planted bug: at least one mutex violation
  kCaughtLivelock,  // planted bug: at least one livelock violation
  kReportOnly,      // printed, never gates the verdict
};
/// Stale-token commits (drift workloads): forbidden where fencing is on,
/// required where the planted bug drops the resource-side token check.
enum class Stale { kAny, kForbidden, kRequired };
/// Cross-key-overlap witness (keyed workloads). kWarn: near-certain over a
/// full randomized campaign but not a guarantee of two random schedules,
/// so only warned about outside smoke; kRequired: every iterative sweep
/// with a preemption budget >= 1 enumerates a schedule where both keys are
/// held at once — a space whose keys secretly share a lock never would.
enum class Overlap { kAny, kWarn, kRequired };

struct Row {
  const char* section = nullptr;  // header printed before this row
  std::string label;              // printed in front of the summary
  const char* id = "";            // mc::named_workload id
  /// Topology, policy, the tier's schedules and acquires, faults, roles.
  mc::CheckConfig config;
  mc::ExploreConfig explore{};  // exhaustive rows: tier bounds
  Expect expect = Expect::kClean;
  Stale stale = Stale::kAny;
  Overlap overlap = Overlap::kAny;
  std::string series{};    // --json series; empty = not recorded
  bool artifacts = true;   // write counterexamples into --trace-dir
  const char* ok_note = nullptr;
  const char* fail_note = nullptr;
};

/// Picks the smoke, quick, or full value of a per-tier setting.
struct Tier {
  bool smoke = false;
  bool quick = false;
  template <typename T>
  T operator()(T smoke_value, T quick_value, T full_value) const {
    return smoke ? smoke_value : (quick ? quick_value : full_value);
  }
};

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Appends rows; the header set by section() lands on the next row added.
class RowTable {
 public:
  void section(const char* header) { pending_ = header; }
  void add(Row row) {
    row.section = std::exchange(pending_, nullptr);
    rows_.push_back(std::move(row));
  }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  const char* pending_ = nullptr;
};

std::string series(const std::string& id, SchedPolicy policy) {
  return id + "/" + mc::policy_name(policy);
}

constexpr SchedPolicy kBothPolicies[] = {SchedPolicy::kRandom,
                                         SchedPolicy::kPct};

// ---------------------------------------------------------------------------
// Randomized campaign (default mode)
// ---------------------------------------------------------------------------

std::vector<Row> randomized_rows(const Tier& tier) {
  RowTable t;
  const topo::Topology p4 = topo::Topology::uniform({2}, 2);
  const topo::Topology p2 = topo::Topology::uniform({}, 2);
  // N = 1..4 with equal children per level, largest = 256 procs (paper).
  const std::pair<const char*, topo::Topology> machines[] = {
      {"N=1 P=8", topo::Topology::uniform({}, 8)},
      {"N=2 P=16", topo::Topology::uniform({4}, 4)},
      {"N=3 P=64", topo::Topology::uniform({4, 4}, 4)},
      {"N=4 P=256", topo::Topology::uniform({4, 4, 4}, 4)},
  };
  for (const auto& [name, topology] : machines) {
    const bool big = topology.nprocs() >= 64;
    // Smoke keeps only the machines small enough for a <2s ctest budget.
    if (tier.smoke && big) continue;
    // Bigger machines get fewer schedules/acquires to bound runtime.
    const u64 schedules = tier(u64{2}, u64{4}, big ? u64{6} : u64{30});
    const i32 acquires = tier(4, big ? 5 : 20, big ? 5 : 20);
    for (const SchedPolicy policy : kBothPolicies) {
      for (const auto& [id, tag] : {std::pair{"rw:rma-rw", "RMA-RW"},
                                    std::pair{"ex:rma-mcs", "RMA-MCS"}}) {
        t.add({.label = format("%-7s %-10s %-7s ", tag, name,
                               mc::policy_name(policy)),
               .id = id,
               .config = {.topology = topology, .policy = policy,
                          .schedules = schedules,
                          .acquires_per_proc = acquires},
               .series = series(id, policy)});
      }
    }
  }

  // Keyed LockSpace workloads: per-key mutual exclusion and deadlock
  // freedom over a sharded lock service; cross_key_overlaps in the summary
  // counts schedules where two distinct keys were held at once (the
  // cross-key-independence witness).
  t.section("\n--- LockSpace keyed workloads (K=2 cross-slot keys) ---\n");
  for (const auto& [id, tag] : {std::pair{"ls:rma-mcs", "LS-MCS"},
                                std::pair{"ls:rma-rw", "LS-RW"}}) {
    for (const SchedPolicy policy : kBothPolicies) {
      t.add({.label = format("%-8s P=4 K=2   %-7s ", tag,
                             mc::policy_name(policy)),
             .id = id,
             .config = {.topology = p4, .policy = policy,
                        .schedules = tier(u64{2}, u64{8}, u64{60}),
                        .acquires_per_proc = tier(4, 8, 8)},
             .overlap = Overlap::kWarn, .series = series(id, policy)});
    }
  }

  // Versioned optimistic reads under the torn-read fault model: writers
  // publish monotone ascending-order payloads under the write lock; readers
  // snapshot lock-free with version validation. The armed fault model lets
  // multi-word gets observe partial writes; validation must reject every
  // torn snapshot (OptimisticReadMonitor folds consistency violations into
  // mutex_violations). One key, as every opt:* id: the cross-key witness is
  // the LS-* campaigns' job.
  t.section("\n--- optimistic versioned reads (torn-read model armed) ---\n");
  for (const SchedPolicy policy : kBothPolicies) {
    t.add({.label = format("OPT-RW   P=4 K=1  %-7s ", mc::policy_name(policy)),
           .id = "opt:versioned",
           .config = {.topology = p4, .policy = policy,
                      .schedules = tier(u64{2}, u64{8}, u64{60}),
                      .acquires_per_proc = tier(4, 8, 8),
                      .faults = {.max_tears = 2}},
           .series = series("opt:versioned", policy)});
  }

  // Planted skip-validation bug: with tears armed, both randomized policies
  // must CATCH the certified-torn-read bug (repro line printed; trace_dir
  // stays enabled on purpose). The torn-read-blind control run of the SAME
  // buggy workload must come back clean — without the fault model every
  // snapshot is single-instant and the bug is invisible, which is exactly
  // why the model exists.
  //
  // The bug's window is narrow: a tear must straddle a write session's two
  // payload puts on the SAME key. The campaign concentrates the workload
  // accordingly — one key (every reader races every writer), pinned
  // 2-writer/2-reader roles, and a tear budget spread across the schedule
  // with a low per-read chance so tears land mid-run where the write
  // traffic is, not in the first few reads. Schedule i's world seed depends
  // only on (base_seed, i), so the smoke and quick tiers share the full
  // tier's prefix — 150 schedules provably contains a catch for BOTH
  // policies (random: s34, pct: s131 under the default base seed).
  t.section(
      "\n--- planted skip-validation bug (must be caught when armed) ---\n");
  const mc::CheckConfig skip_validation = {
      .topology = p4, .schedules = tier(u64{150}, u64{150}, u64{400}),
      .acquires_per_proc = 10, .writer_roles = {true, false, true, false}};
  for (const SchedPolicy policy : kBothPolicies) {
    mc::CheckConfig config = skip_validation;
    config.policy = policy;
    config.faults = {.max_tears = 6, .tear_chance_permille = 300};
    t.add({.label = format("skip-validation (%-7s): ", mc::policy_name(policy)),
           .id = "opt:skip-validation", .config = config,
           .expect = Expect::kCaughtMutex});
  }
  // Torn-read-blind control: same bug, fault model off. Expected clean.
  t.add({.label = "skip-validation (blind  ): ", .id = "opt:skip-validation",
         .config = skip_validation, .artifacts = false,
         .ok_note = "  torn-read-blind run missed the planted bug — the "
                    "expected false negative",
         .fail_note = "  ERROR: blind run flagged a violation (atomic "
                      "snapshots should satisfy the monitor)"});

  // Crash/recovery lease workloads: every schedule may kill one process at
  // a crash point (before an acquire or mid-CS); survivors must reclaim the
  // orphaned lease with a fenced (epoch-bumped) steal. A low crash chance
  // spreads the single crash across the schedule so mid-CS deaths — the
  // ones that orphan the lease — are well represented.
  t.section("\n--- crash/recovery lease workloads (<=1 crash/schedule) ---\n");
  const mc::CheckConfig crash = {
      .topology = p4, .schedules = tier(u64{4}, u64{30}, u64{200}),
      .acquires_per_proc = tier(3, 5, 5),
      .faults = {.max_crashes = 1, .crash_chance_permille = 100}};
  for (const auto& [id, tag] : {std::pair{"lease:mcs", "LEASE-MCS"},
                                std::pair{"lease:rw", "LEASE-RW"}}) {
    for (const SchedPolicy policy : kBothPolicies) {
      mc::CheckConfig config = crash;
      config.policy = policy;
      t.add({.label = format("%-10s P=4      %-7s ", tag,
                             mc::policy_name(policy)),
             .id = id, .config = config, .series = series(id, policy)});
    }
  }
  // Restart regime: crashed processes reboot and re-run the workload from
  // the top, so recovery must also tolerate the old owner coming back — its
  // stale-epoch release has to fail quietly against the fenced lease.
  mc::CheckConfig restart = crash;
  restart.faults.restart_crashed = true;
  t.add({.label = "LEASE-MCS  P=4+rest random  ", .id = "lease:mcs",
         .config = restart, .series = "lease:mcs/restart"});

  // Planted recovery bug: the no-fence reclaim must be CAUGHT (two owners
  // in one epoch) by both randomized policies, and the summary must print a
  // replayable repro line — trace_dir stays enabled on purpose.
  t.section("\n--- planted no-fence lease recovery bug (must be caught) ---\n");
  for (const SchedPolicy policy : kBothPolicies) {
    mc::CheckConfig config = crash;
    config.policy = policy;
    config.schedules = tier(u64{60}, u64{150}, u64{400});
    t.add({.label = format("no-fence lease (%-7s): ", mc::policy_name(policy)),
           .id = "lease:mcs-nofence", .config = config,
           .expect = Expect::kCaughtMutex});
  }

  // Timed acquires under the gray-failure model: stragglers (delayed remote
  // ops) and transient partitions are armed, so some acquires time out; the
  // deadline+backoff path must stay safe (mutex), live (no deadlock) AND
  // bounded (LivelockMonitor: no rank burns more than kLivelockBound
  // retries without progress).
  t.section(
      "\n--- timed acquires under gray failures (deadline+backoff) ---\n");
  for (const char* id :
       {"timeout:rma-mcs", "timeout:rma-rw", "timeout:lease-mcs"}) {
    for (const SchedPolicy policy : kBothPolicies) {
      t.add({.label = format("%-18s P=4 %-7s ", id, mc::policy_name(policy)),
             .id = id,
             .config = {.topology = p4, .policy = policy,
                        .schedules = tier(u64{4}, u64{30}, u64{150}),
                        .acquires_per_proc = 4,
                        .faults = {.max_delays = 2, .max_partitions = 1}},
             .series = series(id, policy)});
    }
  }

  // Planted retry bug: the same rma-mcs workload with backoff DISABLED.
  // Failed attempts no longer advance the virtual clock, so the deadline
  // never expires for a starved rank — it spins to the retry valve and the
  // LivelockMonitor must flag it. PCT schedules manufacture exactly that
  // starvation (one rank de-prioritized while holding the lock). The
  // starvation window is narrow (a PCT change point must de-prioritize the
  // holder and no later change point may rescue it before the retry
  // valve), so this campaign needs more schedules than the other planted
  // bugs — the first catch is around schedule 220 under the fixed seed.
  t.section("\n--- planted no-backoff retry livelock (must be caught) ---\n");
  const mc::CheckConfig starvation = {
      .topology = p2, .policy = SchedPolicy::kPct,
      .schedules = tier(u64{300}, u64{300}, u64{400}), .acquires_per_proc = 4,
      .faults = {.max_delays = 2}};
  t.add({.label = "no-backoff retry (pct):   ", .id = "timeout:no-backoff",
         .config = starvation, .expect = Expect::kCaughtLivelock});
  // Control: identical schedules with backoff ON must be clean — the
  // livelock is the retry policy's fault, not the scheduler's.
  t.add({.label = "backoff control (pct):    ", .id = "timeout:rma-mcs",
         .config = starvation, .artifacts = false,
         .fail_note = "  backoff control failed — the bounded-retry "
                      "property does not hold even for the correct policy"});

  // Shard re-homing: a mid-run migration moves the only shard to its next
  // plane while every rank hammers timed acquires on the same key. The
  // fenced path must never admit two owners across the migration epoch;
  // the planted fence-skipping variant must be caught.
  t.section("\n--- shard re-homing across migration epochs ---\n");
  for (const SchedPolicy policy : kBothPolicies) {
    t.add({.label = format("%-16s P=2 %-7s ", "rehome:fenced",
                           mc::policy_name(policy)),
           .id = "rehome:fenced",
           .config = {.topology = p2, .policy = policy,
                      .schedules = tier(u64{4}, u64{30}, u64{150}),
                      .acquires_per_proc = 4},
           .series = series("rehome:fenced", policy)});
  }
  // The two-owner window (claimant stalled between its directory read and
  // its old-plane grant across a full migration) only opens under uniform
  // random schedules here — PCT's strict priorities never stall the
  // claimant mid-window — so the must-catch assertion runs kRandom, with
  // enough schedules to pass the first catch (~schedule 76 under the fixed
  // seed).
  t.add({.label = format("%-16s P=2 random  ", "rehome:nofence"),
         .id = "rehome:nofence",
         .config = {.topology = p2,
                    .schedules = tier(u64{150}, u64{150}, u64{400}),
                    .acquires_per_proc = 4},
         .expect = Expect::kCaughtMutex});

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
  t.section("\n--- wall-clock leases under clock drift (fencing tokens) ---\n");
  mc::CheckConfig drift = {.topology = p2, .policy = SchedPolicy::kVirtualTime,
                           .schedules = tier(u64{8}, u64{60}, u64{300}),
                           .acquires_per_proc = 3,
                           .faults = {.max_drift_events = 2}};
  t.add({.label = format("%-16s P=2 %-7s ", "drift:fenced", "vtime"),
         .id = "drift:fenced", .config = drift, .stale = Stale::kForbidden,
         .series = "drift:fenced/virtual-time"});

  // Planted zero-margin bug: the claimant trusts the clocks and reclaims
  // right at duration_ns, so a drift-slow holder still *believes* its lease
  // valid while the reclaim proceeds — the belief overlap the monitor must
  // flag. Fencing stays ON, so the stale holder's write is rejected at the
  // resource: the campaign asserts the overlap is caught AND that zero
  // stale-token commits slip through — the fencing token contains the bug
  // even when the lease protocol itself is broken.
  t.section(
      "\n--- planted zero-margin lease bug (must be caught under drift) ---\n");
  drift.schedules = tier(u64{60}, u64{150}, u64{400});
  t.add({.label = "zero-margin (vtime  ): ", .id = "drift:margin0",
         .config = drift, .expect = Expect::kCaughtMutex,
         .stale = Stale::kForbidden});
  // Drift-blind control: same zero-margin workload, clock model off.
  // Expected clean — under perfect clocks the claimant's reclaim at
  // duration_ns can only land at-or-after the holder's belief expires,
  // which is exactly why time-based leases look safe in testing and fail
  // in production.
  mc::CheckConfig drift_blind = drift;
  drift_blind.faults.max_drift_events = 0;
  t.add({.label = "zero-margin (blind  ): ", .id = "drift:margin0",
         .config = drift_blind, .artifacts = false,
         .ok_note = "  drift-blind run missed the planted bug — the "
                    "expected false negative",
         .fail_note = "  ERROR: blind run flagged a violation (perfect "
                      "clocks should satisfy the monitor)"});

  // Planted skip-token-check bug: zero margin AND no resource-side token
  // validation — the end-to-end failure. The stale holder's write now
  // *commits* with an old token, so on top of the belief overlap the
  // campaign must witness stale_token_commits > 0: margins only shrink the
  // overlap window; fencing is what closes it.
  t.section(
      "\n--- planted skip-token-check bug (stale write must commit) ---\n");
  t.add({.label = "skip-token-check (vtime ): ",
         .id = "drift:skip-token-check", .config = drift,
         .expect = Expect::kCaughtMutex, .stale = Stale::kRequired});

  // Demonstration: the literal Listing 6/9 reader reset (which clears the
  // WRITE flag) vs. the flag-preserving fix, under aggressive schedules.
  // The faithful variant is a *planted* bug — expected to fail — so it
  // never writes counterexample artifacts.
  t.section("\n--- reader-reset race demonstration (DESIGN.md §2.5) ---\n");
  const mc::CheckConfig reset = {
      .topology = p4, .schedules = tier(u64{50}, u64{50}, u64{400}),
      .acquires_per_proc = 8};
  t.add({.label = format("%-28s ", "flag-preserving reset:"),
         .id = "rw:rma-rw-fixed-reset", .config = reset});
  t.add({.label = format("%-28s ", "listing-6 reset (faithful):"),
         .id = "rw:rma-rw-faithful-reset", .config = reset,
         .expect = Expect::kReportOnly, .artifacts = false});
  return t.rows();
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive campaign (--exhaustive)
// ---------------------------------------------------------------------------

std::vector<Row> exhaustive_rows(const Tier& tier) {
  RowTable t;
  const topo::Topology p2 = topo::Topology::uniform({}, 2);
  struct Machine {
    const char* name;
    topo::Topology topology;
    i32 acquires;
    i32 max_preemptions;  // iterative deepening 0..this
    u64 max_schedules;
  };
  std::vector<Machine> machines = {
      {"P=2", p2, 2, 4, 500'000},
      {"P=3", topo::Topology::uniform({}, 3), 1, 3, 500'000},
      {"P=2x2", topo::Topology::uniform({2}, 2), 1, 2, 500'000},
  };
  if (tier.smoke) {
    machines = {{"P=2", p2, 1, 2, 50'000}};
  } else if (tier.quick) {
    machines.resize(2);
    machines[0].max_preemptions = 3;
  }
  for (const Machine& m : machines) {
    const mc::ExploreConfig explore = {.max_schedules = m.max_schedules,
                                       .max_preemptions = m.max_preemptions};
    const std::string shape =
        format("%-6s acq=%d d<=%d ", m.name, m.acquires, m.max_preemptions);
    const mc::CheckConfig config = {.topology = m.topology,
                                    .acquires_per_proc = m.acquires};
    t.add({.label = "RMA-MCS " + shape, .id = "ex:rma-mcs", .config = config,
           .explore = explore, .series = "ex:rma-mcs/exhaustive"});
    // Fixed reader/writer mix: every rank alternates by parity so the
    // enumerated space always contains reader/writer interactions.
    mc::CheckConfig parity = config;
    parity.writer_roles.assign(static_cast<usize>(m.topology.nprocs()), false);
    for (i32 r = 0; r < m.topology.nprocs(); r += 2) {
      parity.writer_roles[static_cast<usize>(r)] = true;
    }
    t.add({.label = "RMA-RW  " + shape, .id = "rw:rma-rw", .config = parity,
           .explore = explore, .series = "rw:rma-rw/exhaustive"});
    // Keyed LockSpace over the same machine: K=2 keys pinned to distinct
    // slots, alternating per process — per-key mutual exclusion plus a
    // *required* cross-key-overlap witness.
    t.add({.label = "LS-MCS  " + shape, .id = "ls:rma-mcs", .config = config,
           .explore = explore, .overlap = Overlap::kRequired,
           .series = "ls:rma-mcs/exhaustive"});
  }
  const u64 max_schedules = tier(u64{50'000}, u64{500'000}, u64{500'000});

  // Crash-point schedules: with max_crashes=1 every armed crash point is a
  // scheduler decision, so the DFS enumerates all crash-free interleavings
  // AND every placement of the single crash. The fenced leases must drain
  // their space with zero violations; the planted no-fence recovery must be
  // caught with a replayable counterexample.
  t.section("\n--- crash-point schedules (lease recovery, <=1 crash) ---\n");
  const mc::ExploreConfig crash_explore = {
      .max_schedules = max_schedules, .max_preemptions = tier(2, 3, 3)};
  const mc::CheckConfig crash = {.topology = p2,
                                 .acquires_per_proc = tier(1, 2, 2),
                                 .faults = {.max_crashes = 1}};
  for (const auto& [id, tag] : {std::pair{"lease:mcs", "LEASE-MCS"},
                                std::pair{"lease:rw", "LEASE-RW"},
                                std::pair{"lease:mcs-nofence", "no-fence"}}) {
    const bool planted = std::strcmp(id, "lease:mcs-nofence") == 0;
    t.add({.label = format("%-10s P=2 acq=%d d<=%d ", tag,
                           crash.acquires_per_proc,
                           crash_explore.max_preemptions),
           .id = id, .config = crash, .explore = crash_explore,
           .expect = planted ? Expect::kCaughtMutex : Expect::kClean,
           .series = planted ? "" : std::string(id) + "/exhaustive"});
  }

  // Torn-read schedules: with max_tears=1 every armed multi-word get is a
  // scheduler decision, so the DFS enumerates all atomic-snapshot
  // interleavings AND every tear placement. The validated reader must drain
  // its space with zero violations; the planted skip-validation bug must be
  // caught with a replayable counterexample (the minimal one needs three
  // preemptions: pause the writer pre-bump, tear the read, resume the
  // writer across the split).
  t.section("\n--- torn-read schedules (optimistic reads, <=1 tear) ---\n");
  const mc::ExploreConfig tear_explore = {.max_schedules = max_schedules,
                                          .max_preemptions = 3};
  const mc::CheckConfig tear = {.topology = p2, .acquires_per_proc = 1,
                                .writer_roles = {true, false},  // 1 w, 1 r
                                .faults = {.max_tears = 1}};
  t.add({.label = format("%-15s P=2 acq=1 d<=3 ", "OPT-RW"),
         .id = "opt:versioned", .config = tear, .explore = tear_explore,
         .series = "opt:versioned/exhaustive"});
  t.add({.label = format("%-15s P=2 acq=1 d<=3 ", "skip-validation"),
         .id = "opt:skip-validation", .config = tear, .explore = tear_explore,
         .expect = Expect::kCaughtMutex});

  // Timeout/starvation schedules: timed acquires with deadline+backoff vs
  // the planted no-backoff policy. With backoff, every failed attempt
  // advances the virtual clock, so a starved rank's deadline expires after
  // a bounded number of retries — the LivelockMonitor stays quiet over the
  // whole bounded space. Without backoff the clock freezes during the spin;
  // one preemption into a rank while the lock is held sends it straight to
  // the retry valve (a 2-rank straggler schedule), which the monitor must
  // flag with a shrunk, replayable counterexample.
  t.section(
      "\n--- timeout/starvation schedules (bounded-retry progress) ---\n");
  const mc::ExploreConfig two_preemptions = {.max_schedules = max_schedules,
                                             .max_preemptions = 2};
  const mc::CheckConfig timed = {.topology = p2, .timeout_retry_rounds = 2};
  t.add({.label = format("%-18s P=2 rounds=2 d<=2 ", "timeout:rma-mcs"),
         .id = "timeout:rma-mcs", .config = timed, .explore = two_preemptions,
         .series = "timeout:rma-mcs/exhaustive"});
  t.add({.label = format("%-18s P=2 rounds=2 d<=2 ", "timeout:no-backoff"),
         .id = "timeout:no-backoff", .config = timed,
         .explore = two_preemptions, .expect = Expect::kCaughtLivelock});

  // Clock-drift schedules: scheduling stays virtual-time (belief intervals
  // are only comparable on that timeline — see mc::Workload::drift), and
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
  t.section(
      "\n--- clock-drift schedules (wall-clock leases, <=2 events) ---\n");
  const mc::ExploreConfig drift_explore = {
      .max_schedules = max_schedules, .max_preemptions = tier(2, 3, 3)};
  // Two rounds per rank: the overlap needs an abandoned hold reclaimed by
  // time, and under deterministic virtual-time scheduling the first round's
  // holds are always released or never reclaimed — the hazard starts at
  // the second round.
  const mc::CheckConfig drift = {.topology = p2, .acquires_per_proc = 2,
                                 .faults = {.max_drift_events = 2}};
  t.add({.label = format("%-16s P=2 acq=2 e<=2 ", "drift:fenced"),
         .id = "drift:fenced", .config = drift, .explore = drift_explore,
         .series = "drift:fenced/exhaustive"});
  t.add({.label = format("%-16s P=2 acq=2 e<=2 ", "drift:margin0"),
         .id = "drift:margin0", .config = drift, .explore = drift_explore,
         .expect = Expect::kCaughtMutex});

  // Re-homing schedules: rank 1 migrates the only shard mid-run while both
  // ranks hammer timed acquires on the same key. The minimal two-owner
  // counterexample needs two preemptions: pause a claimant between its
  // directory read and its grant, migrate + acquire on the new plane, then
  // resume the stale claimant — only the post-acquire fence deflects it.
  t.section(
      "\n--- re-homing schedules (migration fence, epoch-stamped) ---\n");
  const mc::CheckConfig rehome = {.topology = p2, .acquires_per_proc = 2};
  t.add({.label = format("%-16s P=2 acq=2 d<=2 ", "rehome:fenced"),
         .id = "rehome:fenced", .config = rehome, .explore = two_preemptions,
         .series = "rehome:fenced/exhaustive"});
  t.add({.label = format("%-16s P=2 acq=2 d<=2 ", "rehome:nofence"),
         .id = "rehome:nofence", .config = rehome, .explore = two_preemptions,
         .expect = Expect::kCaughtMutex});
  return t.rows();
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Prints the flight-recorder post-mortem of a campaign's first failure —
/// the tail of every rank's event ring from a deterministic re-run of the
/// shrunk counterexample. Used by the randomized planted-bug campaigns,
/// where the failure is the expected catch and the post-mortem shows WHAT
/// the interleaving did, next to the --replay repro line that shows how to
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

/// Folds one campaign's counters (and wall time) into the --json record.
void record_campaign(harness::FigureReport& json, const Row& row,
                     const mc::CheckReport& report, double wall_s) {
  const i32 nprocs = row.config.topology.nprocs();
  json.add(row.series, nprocs, "schedules",
           static_cast<double>(report.schedules_run));
  json.add(row.series, nprocs, "cs_entries",
           static_cast<double>(report.total_cs_entries));
  json.add(row.series, nprocs, "mutex_violations",
           static_cast<double>(report.mutex_violations));
  json.add(row.series, nprocs, "deadlocks",
           static_cast<double>(report.deadlocks));
  json.add(row.series, nprocs, "wall_s", wall_s);
  if (row.overlap == Overlap::kRequired) {
    json.add(row.series, nprocs, "cross_key_overlaps",
             static_cast<double>(report.cross_key_overlap_schedules));
  }
}

/// Runs every row (randomized via mc::check, or bounded-exhaustive with
/// iterative deepening), prints each label + summary, and returns whether
/// every row met its expectation.
bool run_rows(const std::vector<Row>& rows, bool exhaustive, bool smoke,
              const std::string& trace_dir, i32 jobs,
              harness::FigureReport& json) {
  bool all_ok = true;
  for (const Row& row : rows) {
    if (row.section != nullptr) std::printf("%s", row.section);
    mc::CheckConfig config = row.config;
    config.max_steps = exhaustive ? 400'000 : 4'000'000;
    config.trace_dir = row.artifacts ? trace_dir : "";
    config.workload_id = row.id;
    config.jobs = jobs;
    const auto workload = mc::named_workload(row.id, config.topology);
    RMALOCK_CHECK_MSG(workload.has_value(), "unknown workload " << row.id);
    const Timer timer;
    const mc::CheckReport report =
        exhaustive ? mc::check_exhaustive(config, row.explore, *workload,
                                          /*iterative=*/true)
                   : mc::check(config, *workload);
    const double wall_s = timer.elapsed_s();
    std::printf("%s%s\n", row.label.c_str(), report.summary().c_str());
    bool ok = report.ok();
    if (row.expect == Expect::kCaughtMutex ||
        row.expect == Expect::kCaughtLivelock) {
      if (!exhaustive) print_post_mortem(report);
      ok = row.expect == Expect::kCaughtMutex
               ? report.mutex_violations > 0
               : report.livelock_violations > 0;
      if (!ok) std::printf("  ERROR: planted bug was NOT caught\n");
    } else if (row.expect == Expect::kReportOnly) {
      ok = true;
    } else if (const char* note = ok ? row.ok_note : row.fail_note) {
      std::printf("%s\n", note);
    }
    if (row.stale == Stale::kForbidden && report.stale_token_commits > 0) {
      std::printf("  ERROR: fencing admitted a stale-token commit\n");
      ok = false;
    }
    if (row.stale == Stale::kRequired && report.stale_token_commits == 0) {
      std::printf("  ERROR: no stale-token commit witnessed — the unfenced "
                  "resource should have admitted one\n");
      ok = false;
    }
    if (row.overlap == Overlap::kRequired) {
      ok = ok && report.cross_key_overlap_schedules > 0;
    } else if (row.overlap == Overlap::kWarn && !smoke &&
               report.cross_key_overlap_schedules == 0) {
      std::printf("  warning: no cross-key overlap witnessed\n");
    }
    all_ok = all_ok && ok;
    if (!row.series.empty()) record_campaign(json, row, report, wall_s);
  }
  return all_ok;
}

/// Runs one mode's campaign table: banner, every row, the verdict, and the
/// --json record (written iff --json was given; mc_verification prints its
/// own summaries, so only the file side of FigureReport is used).
int run_campaigns(bool exhaustive, const harness::BenchEnv& env,
                  const std::string& trace_dir) {
  harness::FigureReport json =
      exhaustive
          ? harness::FigureReport(
                "mc_exhaustive", "bounded-exhaustive DFS sweep",
                "every interleaving within the bounds enumerated; wall_s is "
                "the engine-throughput perf gate")
          : harness::FigureReport(
                "mc_randomized",
                "§4.4 randomized campaign (random + PCT schedules)",
                "all tests confirm mutual exclusion and deadlock freedom");
  std::printf("==========================================================\n");
  if (exhaustive) {
    std::printf("mc_verification --exhaustive — bounded-exhaustive DFS\n");
    std::printf("(iterative preemption deepening; 'exhausted_spaces=1' "
                "means\n");
    std::printf(" every interleaving within the bounds was enumerated)\n");
  } else {
    std::printf("mc_verification — §4.4 campaign (random + PCT schedules)\n");
    std::printf("paper: all tests confirm mutual exclusion and deadlock "
                "freedom\n");
  }
  std::printf("==========================================================\n");
  const Tier tier{env.smoke, env.quick};
  const bool all_ok =
      run_rows(exhaustive ? exhaustive_rows(tier) : randomized_rows(tier),
               exhaustive, env.smoke, trace_dir, env.jobs, json);
  const char* verdict = exhaustive ? "all enumerated interleavings are safe"
                                   : "all safety properties hold";
  std::printf("\nVERDICT: %s\n", all_ok ? verdict : "VIOLATIONS FOUND");
  const std::string& json_path = harness::bench_json_path();
  if (!json_path.empty()) {
    if (json.write_json(json_path)) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    }
  }
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

  const auto workload = mc::named_workload(repro.workload, repro.topology);
  if (!workload) {
    std::fprintf(stderr, "mc_verification: unknown workload id '%s'\n",
                 repro.workload.c_str());
    return 1;
  }
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

  // One replay-options block for every workload family (the trace is
  // consumed identically), with the flight recorder armed: the replay
  // doubles as the trace-export path (--trace-out) and always ends with a
  // post-mortem of the rings.
  obs::Tracer flight(repro.topology.nprocs());
  rma::SimOptions ropts =
      mc::replay_options(config, repro.world_seed, repro.trace);
  ropts.tracer = &flight;
  const mc::ScheduleOutcome outcome = (*workload)(config, ropts);

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
      // A clean trace proves something only if it replayed pick-for-pick:
      // a diverged replay ran some other schedule. Violation kinds may
      // diverge — a ddmin-shrunk counterexample drops picks by design.
      (repro.kind == "none" && !outcome.failed() &&
       outcome.run.replay_divergences == 0);
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
  return run_campaigns(exhaustive, env, trace_dir);
}

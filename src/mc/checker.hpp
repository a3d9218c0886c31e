// Model-checking harness (paper §4.4).
//
// The paper verifies RMA-RW with SPIN over a PROMELA re-model: machines of
// N ∈ {1..4} levels, up to 256 processes, each randomly a reader or a
// writer, 20 lock acquisitions per process; checked properties are mutual
// exclusion and deadlock freedom.
//
// We check the same properties over the *actual C++ implementations* by
// driving SimWorld with adversarial schedulers:
//
//   * kRandom — uniform random walk over interleavings (many seeds);
//   * kPct    — PCT priority scheduling (Burckhardt et al., ASPLOS'10):
//               with d-1 priority-change points it finds any bug of depth d
//               with probability >= 1/(n k^(d-1)) per run;
//   * bounded-exhaustive DFS (mc/explorer.hpp) — enumerates *all*
//               interleavings of small configurations, the systematic
//               complement the paper gets from SPIN.
//
// Mutual exclusion is observed by a CsMonitor; deadlocks are detected by
// the engine (all unfinished processes blocked with no possible wake-up).
// A step-limit hit is reported separately: it bounds exploration and can
// also indicate livelock/starvation.
//
// Every schedule is recorded (rma::ScheduleTrace); the first failure is
// kept in CheckReport::first_failure with its (base_seed, schedule index,
// world seed) coordinates and a ddmin-shrunk trace that replays the
// violation deterministically (see mc/schedule.hpp and docs/TESTING.md).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "locks/lease.hpp"
#include "locks/lock.hpp"
#include "locks/timed_lease.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::mc {

/// Per-round deadline budget of the timed-acquire workloads
/// (Workload::timed / Workload::rehome), in virtual nanoseconds. Under the
/// checker's zero-latency network only compute() — i.e. backoff — advances
/// the clock toward it (see mc::LivelockMonitor).
inline constexpr Nanos kAcquireTimeoutNs = 60'000;
/// LivelockMonitor bound of the timed workloads: cumulative attempts
/// without an acquire before a rank is declared livelocked. Correct backoff
/// stays ~an order of magnitude below; the no-backoff bug blows through it
/// via the RetryPolicy::max_attempts valve.
inline constexpr u64 kLivelockBound = 128;
/// Replay budget for ddmin-shrinking a first failure.
inline constexpr u64 kMaxShrinkReplays = 2000;

struct CheckConfig {
  topo::Topology topology = topo::Topology::uniform({2, 2}, 2);
  rma::SchedPolicy policy = rma::SchedPolicy::kRandom;
  /// Number of independently seeded schedules to explore.
  u64 schedules = 50;
  u64 base_seed = 1;
  /// Lock acquisitions per process (paper: 20).
  i32 acquires_per_proc = 20;
  /// Engine step bound per schedule.
  u64 max_steps = 2'000'000;
  /// Probability that a process is a writer (readers otherwise); roles are
  /// drawn per (seed, rank) as in the paper's random role assignment.
  double writer_fraction = 0.5;
  /// Explicit per-rank roles for rw workloads (size == nprocs); empty =
  /// random roles via writer_fraction. Lets tests and the exhaustive
  /// explorer pin a reader/writer mix instead of depending on the seed.
  std::vector<bool> writer_roles{};
  i32 pct_change_points = 3;
  /// ddmin-shrink the first failing trace to a minimal counterexample.
  bool shrink_failures = true;
  /// If non-empty, write the first failing (shrunk) trace as a
  /// "rmalock-trace v1" file into this directory and report its path
  /// (mc_verification + the CI artifact upload use this).
  std::string trace_dir{};
  /// Workload id stamped into written trace files; mc_verification
  /// --replay maps it back to a workload through mc::named_workload.
  std::string workload_id{};
  /// Fault models armed in every schedule; all off by default.
  /// Workload::lease exercises crashes, Workload::optimistic tears,
  /// Workload::timed / Workload::rehome the gray network, and
  /// Workload::drift the clocks.
  rma::FaultConfig faults{};
  /// try_acquire_for rounds per process in the timeout workloads.
  i32 timeout_retry_rounds = 3;
  /// Retry policy the timed workloads hand to try_acquire_for. The planted
  /// livelock bug is `retry.backoff = false`.
  locks::RetryPolicy retry{};
  /// Worker threads for the campaign (--jobs / RMALOCK_JOBS): 1 = the
  /// sequential loop (default), n > 1 = run schedules on a work-stealing
  /// TaskPool, <= 0 = all hardware threads. Every observable output —
  /// counters, first-failure coordinates, shrunk traces, trace files — is
  /// bit-identical across jobs values: schedule i's world seed is
  /// mix_seed(base_seed, i) regardless of which worker runs it, outcomes
  /// land in per-index slots, and the merge walks them in index order
  /// (docs/PERF.md, "Parallel campaigns").
  i32 jobs = 1;
};

/// Coordinates and replayable evidence of the first property violation.
struct FirstFailure {
  std::string kind;       // "mutex", "livelock", or "deadlock"
  std::string lock_name;  // Lock::name() of the subject
  u64 base_seed = 0;
  u64 schedule_index = 0;  // index within its campaign
  u64 world_seed = 0;      // SimOptions::seed of the failing run
  usize raw_trace_len = 0;       // picks recorded before shrinking
  rma::ScheduleTrace trace;      // shrunk counterexample (== raw when
                                 // shrinking is disabled or impossible)
  std::string trace_path;        // file written iff CheckConfig::trace_dir
  /// Flight recorder: the (shrunk) counterexample re-run once with the
  /// event tracer armed — the tail of every rank's event ring rendered
  /// human-readable (obs::render_post_mortem). Always populated on failure.
  std::string post_mortem;
  /// Files written next to trace_path iff CheckConfig::trace_dir: the
  /// post-mortem text and the full Chrome trace-event JSON of the failing
  /// run (loadable in Perfetto / chrome://tracing).
  std::string post_mortem_path;
  std::string flight_trace_path;
};

struct CheckReport {
  u64 schedules_run = 0;
  u64 mutex_violations = 0;
  u64 deadlocks = 0;
  /// Bounded-retry progress violations (LivelockMonitor, timed workloads).
  u64 livelock_violations = 0;
  /// Drift workloads only: accepted payload writes carrying a stale fencing
  /// token (WallClockLeaseMonitor; already counted in mutex_violations —
  /// broken out so campaigns can assert "fencing admitted zero of these"
  /// even while the margin-0 lease itself was violated).
  u64 stale_token_commits = 0;
  u64 step_limit_hits = 0;
  u64 total_cs_entries = 0;
  /// Exhaustive explorations that drained their full bounded schedule
  /// space (mc/explorer.hpp); 0 for randomized campaigns.
  u64 exhausted_spaces = 0;
  /// LockSpace workloads only: schedules in which >= 2 distinct keys were
  /// held simultaneously. A keyed campaign that never witnesses overlap
  /// would mean the "independent" locks actually serialize — the
  /// cross-key-independence property (summary prints it when nonzero).
  u64 cross_key_overlap_schedules = 0;
  bool has_first_failure = false;
  FirstFailure first_failure;

  /// True iff no safety or progress property was violated.
  [[nodiscard]] bool ok() const {
    return mutex_violations == 0 && deadlocks == 0 &&
           livelock_violations == 0;
  }
  /// One line of counts; on failure, appends the first-failure coordinates
  /// and a repro command.
  [[nodiscard]] std::string summary() const;

  CheckReport& operator+=(const CheckReport& other);
};

/// Outcome of one checked schedule.
struct ScheduleOutcome {
  rma::RunResult run;
  u64 mutex_violations = 0;
  /// Timed workloads: LivelockMonitor violations (bounded-retry progress).
  u64 livelock_violations = 0;
  /// Drift workloads: accepted stale-token writes (subset of
  /// mutex_violations; see CheckReport::stale_token_commits).
  u64 stale_token_commits = 0;
  u64 cs_entries = 0;
  /// LockSpace workloads: peak number of distinct keys held at once during
  /// the schedule (>= 2 witnesses cross-key concurrency); 0 elsewhere.
  u64 max_distinct_keys_held = 0;
  std::string lock_name;

  [[nodiscard]] bool failed() const {
    return mutex_violations > 0 || livelock_violations > 0 ||
           run.deadlocked;
  }
  /// "mutex" (takes precedence), "livelock", "deadlock", or "none".
  [[nodiscard]] const char* kind() const {
    if (mutex_violations > 0) return "mutex";
    if (livelock_violations > 0) return "livelock";
    if (run.deadlocked) return "deadlock";
    return "none";
  }
};

using RwLockFactory =
    std::function<std::unique_ptr<locks::RwLock>(rma::World&)>;
using ExclusiveLockFactory =
    std::function<std::unique_ptr<locks::ExclusiveLock>(rma::World&)>;
using LockSpaceFactory =
    std::function<std::unique_ptr<lockspace::LockSpace>(rma::World&)>;
using LeaseLockFactory =
    std::function<std::unique_ptr<locks::LeaseExclusive>(rma::World&)>;

/// Subject of the clock-drift workload (Workload::drift): one timed lease
/// guarding one payload key of a payload-capable LockSpace — the lease is
/// the *permission*, the space's versioned payload the *resource*, and the
/// grant token the thread of trust between them.
struct DriftLeaseSubject {
  std::unique_ptr<locks::TimedLease> lease;
  std::unique_ptr<lockspace::LockSpace> space;
  u64 key = 0;
};
using DriftLeaseFactory = std::function<DriftLeaseSubject(rma::World&)>;

/// A checkable workload: runs ONE schedule under the given options — a
/// fresh world, the lock subject its factory builds, the workload's
/// monitors — and reports what the monitors saw. It is the only thing the
/// randomized checker (check), the bounded-exhaustive explorer
/// (check_exhaustive, mc/explorer.hpp), trace replay and the goldens know
/// about: campaigns, replays and ddmin reruns all call it directly.
class Workload {
 public:
  using Run = std::function<ScheduleOutcome(const CheckConfig&,
                                            const rma::SimOptions&)>;

  explicit Workload(Run run,
                    rma::SchedPolicy policy = rma::SchedPolicy::kReplay)
      : run_(std::move(run)), policy_(policy) {}

  ScheduleOutcome operator()(const CheckConfig& config,
                             const rma::SimOptions& opts) const {
    return run_(config, opts);
  }
  /// Policy the exhaustive sweep runs (and stamps its traces) under:
  /// kReplay — the DFS hook drives every scheduling pick — for every family
  /// but drift, which explores under kVirtualTime (see Workload::drift).
  [[nodiscard]] rma::SchedPolicy policy() const { return policy_; }

  /// Reader/writer workload: every process (writer or reader per config
  /// roles) takes the lock acquires_per_proc times. Checked properties:
  /// mutual exclusion (CsMonitor) and deadlock freedom.
  static Workload rw(RwLockFactory factory);

  /// All-writers workload over an exclusive lock.
  static Workload exclusive(ExclusiveLockFactory factory);

  /// Crash/recovery workload over a lease lock: every process declares a
  /// crash point before each acquire and one inside each critical section
  /// (armed iff config.faults.max_crashes > 0), so an owner can die holding
  /// the lease and survivors must reclaim it.
  /// Checked properties: "never two owners in one epoch" (EpochMonitor,
  /// folded into mutex_violations) and recovery liveness — a survivor stuck
  /// forever on an unreclaimable lease surfaces as an engine deadlock.
  /// Exhaustively, every armed crash point is a scheduler decision the DFS
  /// branches on — crash-free interleavings AND every placement of up to
  /// max_crashes crashes are enumerated within the bounds. Crashing costs
  /// one preemption, so iterative deepening surfaces the no-crash space
  /// first.
  static Workload lease(LeaseLockFactory factory);

  /// Keyed LockSpace workload: process p's i-th acquisition targets
  /// keys[(p + i) % keys.size()] (writers per config roles; readers use
  /// shared mode on RW backends). Checked properties: per-key mutual
  /// exclusion (one CsMonitor per key), deadlock freedom, and cross-key
  /// independence — the report counts schedules where two distinct keys
  /// were held at once (cross_key_overlap_schedules), which the campaigns
  /// assert is nonzero.
  static Workload keyed(LockSpaceFactory factory, std::vector<u64> keys);

  /// Versioned optimistic-read workload over a payload-capable LockSpace
  /// (the space `factory` builds must have payload_words > 0): writers (per
  /// config roles) take the write lock and publish an all-words-equal
  /// payload stamped with the key's next generation; readers call
  /// optimistic_read lock-free. Checked properties: per-key write-side
  /// mutual exclusion (CsMonitor), deadlock freedom, and snapshot
  /// consistency — every returned payload must be non-increasing along the
  /// word index (OptimisticReadMonitor; see mc/monitor.hpp for why that is
  /// exactly "no un-validated torn read"). Violations of either fold into
  /// mutex_violations. Arm config.faults.max_tears, or the planted
  /// skip_read_validation bug stays invisible — that false negative is
  /// itself a campaign mc_verification runs on purpose. Exhaustively, every
  /// armed multi-word get is a scheduler decision — the un-torn read AND
  /// every tear placement (each possible split point) are enumerated.
  /// Tearing costs one preemption, so iterative deepening surfaces the
  /// atomic-snapshot space first.
  static Workload optimistic(LockSpaceFactory factory, std::vector<u64> keys);

  /// Timed-acquire workload: every process runs config.timeout_retry_rounds
  /// rounds of try_acquire_for with a kAcquireTimeoutNs deadline and
  /// config.retry, entering/leaving a CS on success and moving on on
  /// timeout. Checked properties: mutual exclusion (CsMonitor), deadlock
  /// freedom, and bounded-retry progress (LivelockMonitor, folded into
  /// livelock_violations) — the property the planted no-backoff retry
  /// policy violates under a straggler schedule. Arm the gray-failure knobs
  /// (max_delays / max_partitions) to exercise the paths the deadlines
  /// exist for; exhaustively, every armed remote op is then a scheduler
  /// decision and each injected fault costs one preemption, so iterative
  /// deepening surfaces the fault-free space first.
  static Workload timed(ExclusiveLockFactory factory);

  /// Wall-clock lease workload: every process repeatedly takes the timed
  /// lease (acquire_token), then — while still_valid() on its own clock —
  /// publishes token-stamped payloads through
  /// LockSpace::write_payload_fenced, and releases. Checked properties
  /// (WallClockLeaseMonitor, folded into mutex_violations): never two
  /// believing writers at once, and never an accepted write with a stale
  /// token; plus deadlock freedom. Arm config.faults.max_drift_events, or
  /// the planted safety_margin_ns = 0 and skip_token_check bugs stay
  /// invisible — under perfect clocks a margin-0 lease is actually safe,
  /// the false negative the drift model exists to prevent.
  /// Drift explores under kVirtualTime: the DFS hook is consulted only at
  /// fault-decision sites (SimWorld::decide), so the enumerated space is
  /// every placement of the drift budget over one deterministic schedule —
  /// the clock is the adversary, not the scheduler. Each event is a
  /// deterministic function of (rank, event count), so the branch alone
  /// pins the whole clock trajectory. Belief-overlap intervals are only
  /// comparable on the virtual-time timeline; a preemptive DFS would let a
  /// later-serialized session carry earlier clock readings and flag
  /// overlaps no margin could prevent.
  static Workload drift(DriftLeaseFactory factory);

  /// Re-homing workload over a rehome-capable LockSpace (the space
  /// `factory` builds must have rehome_epochs >= 1 and an exclusive
  /// backend): every process runs keyed timed acquires (as in
  /// Workload::timed); the highest rank additionally migrates the first
  /// key's shard to its successor home mid-run (rehome_shard). Checked
  /// properties: per-key mutual exclusion across migration planes — one
  /// CsMonitor per key, so an old-plane owner coexisting with a new-plane
  /// owner is a mutex violation (exactly what the planted
  /// rehome_skip_fence bug admits) — plus deadlock freedom and
  /// bounded-retry progress.
  static Workload rehome(LockSpaceFactory factory, std::vector<u64> keys);

 private:
  Run run_;
  rma::SchedPolicy policy_;
};

/// Explores `config.schedules` randomized schedules of `workload`.
CheckReport check(const CheckConfig& config, const Workload& workload);

/// First `k` keys (scanning upward from 0) that resolve to pairwise
/// distinct slots of the space `factory` builds — the keys a small-config
/// campaign uses so "different keys" provably means "different physical
/// locks". Probes a scratch SimWorld over `topology`.
std::vector<u64> pick_cross_slot_keys(const LockSpaceFactory& factory,
                                      const topo::Topology& topology, i32 k);

// --- single-schedule building blocks ---------------------------------------
// Shared by the randomized loop above, the bounded-exhaustive explorer
// (mc/explorer.hpp), trace replay (mc_verification --replay), and tests.

/// SimOptions for the `schedule`-th randomized schedule of `config`
/// (world seed = mix_seed(base_seed, schedule), zero-latency network,
/// deadlocks reported instead of aborting, no up-front recording).
[[nodiscard]] rma::SimOptions schedule_options(const CheckConfig& config,
                                               u64 schedule);

/// SimOptions replaying `trace` under `config` with the given world seed.
/// `trace` is not owned and must outlive the run.
[[nodiscard]] rma::SimOptions replay_options(const CheckConfig& config,
                                             u64 world_seed,
                                             const rma::ScheduleTrace& trace);

/// Accumulates one schedule's outcome into the campaign counters.
void fold_outcome(CheckReport& report, const ScheduleOutcome& outcome);

/// If `outcome` failed and `report` has no failure yet: records the first
/// failure, ddmin-shrinks its trace by re-running `workload` (per config),
/// and writes the trace file (per config). `opts` must be the options the
/// failing schedule ran under.
void capture_first_failure(CheckReport& report, const CheckConfig& config,
                           const Workload& workload,
                           const ScheduleOutcome& outcome, u64 schedule_index,
                           const rma::SimOptions& opts);

// --- reader/writer forwarders ----------------------------------------------
// Kept only because the repository benchmark (rmabench/src/mc_check.cpp),
// whose sources change only together with the benchmark definition, calls
// them by these names; everything else uses Workload::rw + check.
inline CheckReport check_rw(const CheckConfig& config,
                            const RwLockFactory& factory) {
  return check(config, Workload::rw(factory));
}
inline ScheduleOutcome run_rw_schedule(const CheckConfig& config,
                                       const RwLockFactory& factory,
                                       const rma::SimOptions& opts) {
  return Workload::rw(factory)(config, opts);
}

}  // namespace rmalock::mc

// Bounded-exhaustive schedule exploration (the SPIN-shaped complement of
// the randomized checkers; paper §4.4).
//
// SimWorld's kReplay policy exposes every scheduler decision through a
// PickHook. The explorer drives that hook with a DFS over the decision
// tree: each complete run is one interleaving; after a run it backtracks to
// the deepest decision with an untried alternative and re-executes from the
// start (the engine is deterministic, so re-running a decision prefix
// reconstructs the exact state — no checkpointing needed, the CHESS/dBug
// stateless-exploration approach).
//
// The state space is tamed the same way CHESS does (Musuvathi & Qadeer,
// PLDI'07):
//
//   * preemption bounding — a decision that switches away from a process
//     that could have kept running costs one preemption; schedules are
//     enumerated within a per-run preemption budget. Most real concurrency
//     bugs need only 1-2 preemptions.
//   * iterative deepening — explore budget 0, then 1, ... so the cheapest
//     counterexamples surface first; exploration stops early when a bound
//     pruned nothing (the full space is already covered).
//   * decision-depth bounding — optionally stop branching beyond a depth
//     (decisions past it follow the default non-preempting choice).
//
// ExploreStats::complete reports whether the bounded space was fully
// drained, which is what turns "ran N schedules" into "verified all
// interleavings of this configuration under these bounds".
#pragma once

#include <functional>

#include "mc/checker.hpp"

namespace rmalock::mc {

struct ExploreConfig {
  /// Hard cap on complete runs (0 = unbounded). Exceeding it clears
  /// ExploreStats::complete.
  u64 max_schedules = 100'000;
  /// Branch only within the first `max_decision_depth` decisions
  /// (0 = unbounded); later decisions take the default non-preempting pick.
  usize max_decision_depth = 0;
  /// Preemption budget per schedule (-1 = unbounded).
  i32 max_preemptions = -1;
  /// Parallel campaigns (CheckConfig::jobs > 1) shard the DFS at this
  /// decision depth: every reachable decision prefix of this length is
  /// enumerated sequentially, then each prefix's subtree is explored as an
  /// independent task. 0 = auto (deepen until the frontier is a few times
  /// wider than the worker count). Sequential runs ignore it. Any depth
  /// yields the same enumeration — the knob only trades shard granularity
  /// against frontier-probe overhead (docs/PERF.md).
  usize shard_depth = 0;
};

struct ExploreStats {
  /// Complete runs executed.
  u64 schedules = 0;
  /// True iff the DFS drained every schedule within the configured bounds
  /// (not stopped by max_schedules or by the runner).
  bool complete = false;
  /// True iff the runner requested a stop (e.g. violation found).
  bool aborted = false;
  /// Alternatives skipped because they exceeded the preemption budget.
  /// 0 together with `complete` means the *unbounded* space was drained.
  u64 pruned_by_preemption = 0;
  /// Branching decisions that fell beyond max_decision_depth.
  u64 truncated_by_depth = 0;
};

/// Executes one schedule end to end: must create a fresh SimWorld with
/// {policy = kReplay, pick_hook = hook} over a *deterministic* workload and
/// run it to completion. Returns false to abort exploration.
using ExploreRunner = std::function<bool(const rma::PickHook& hook)>;

/// DFS over all schedules within config's bounds (single preemption budget).
ExploreStats explore_schedules(const ExploreConfig& config,
                               const ExploreRunner& run_one);

/// Iterative deepening over preemption budgets 0..config.max_preemptions
/// (which must be >= 0). Stops early on abort or when a budget pruned
/// nothing. Schedules re-explored at higher budgets are counted again.
ExploreStats explore_iterative(const ExploreConfig& config,
                               const ExploreRunner& run_one);

/// Bounded-exhaustive campaigns over the checker workloads: enumerates
/// schedules of config's workload (one world seed, mix_seed(base_seed, 0))
/// until the bounded space is drained or a violation is found; the first
/// failure is shrunk and reported exactly as in the randomized campaigns.
/// `iterative` selects explore_iterative (explore.max_preemptions >= 0).
CheckReport check_rw_exhaustive(const CheckConfig& config,
                                const ExploreConfig& explore,
                                const RwLockFactory& factory,
                                bool iterative = false);
CheckReport check_exclusive_exhaustive(const CheckConfig& config,
                                       const ExploreConfig& explore,
                                       const ExclusiveLockFactory& factory,
                                       bool iterative = false);
/// Crash/recovery lease workload (see check_lease): with
/// config.faults.max_crashes > 0, every armed crash point is a scheduler
/// decision the DFS branches on — crash-free interleavings AND every
/// placement of up to max_crashes crashes are enumerated within the bounds.
/// Crashing costs one preemption, so iterative deepening surfaces the
/// no-crash space first.
CheckReport check_lease_exhaustive(const CheckConfig& config,
                                   const ExploreConfig& explore,
                                   const LeaseLockFactory& factory,
                                   bool iterative = false);
/// Keyed LockSpace workload (see check_lockspace): per-key mutual
/// exclusion and deadlock freedom over every bounded interleaving, plus
/// the cross-key-overlap tally that witnesses key independence.
CheckReport check_lockspace_exhaustive(const CheckConfig& config,
                                       const ExploreConfig& explore,
                                       const LockSpaceFactory& factory,
                                       const std::vector<u64>& keys,
                                       bool iterative = false);
/// Versioned optimistic-read workload (see check_optimistic): with
/// config.faults.max_tears > 0, every armed multi-word get is a scheduler
/// decision the DFS branches on — the un-torn read AND every tear placement
/// (each possible split point) are enumerated within the bounds. Tearing
/// costs one preemption, so iterative deepening surfaces the
/// atomic-snapshot space first.
CheckReport check_optimistic_exhaustive(const CheckConfig& config,
                                        const ExploreConfig& explore,
                                        const LockSpaceFactory& factory,
                                        const std::vector<u64>& keys,
                                        bool iterative = false);
/// Timed-acquire workload (see check_timeout): with config.faults.max_delays
/// / max_partitions > 0, every armed remote op is a scheduler decision the
/// DFS branches on — the fault-free interleaving AND every placement of up
/// to the budgeted delays/partitions are enumerated within the bounds.
/// Each injected fault costs one preemption, so iterative deepening
/// surfaces the fault-free space first. The livelock progress property
/// (bounded retries) is checked alongside mutual exclusion.
CheckReport check_timeout_exhaustive(const CheckConfig& config,
                                     const ExploreConfig& explore,
                                     const ExclusiveLockFactory& factory,
                                     bool iterative = false);
/// Wall-clock lease workload (see check_drift): with
/// config.faults.max_drift_events > 0, every armed remote op is a scheduler
/// decision the DFS branches on — the perfect-clocks interleaving AND
/// every placement of up to the budgeted drift/skew events are enumerated
/// within the bounds. Each event is a deterministic function of (rank,
/// event count), so the branch alone pins the whole clock trajectory; a
/// drift event costs one preemption and iterative deepening surfaces the
/// perfect-clocks space first.
CheckReport check_drift_exhaustive(const CheckConfig& config,
                                   const ExploreConfig& explore,
                                   const DriftLeaseFactory& factory,
                                   bool iterative = false);
/// Re-homing workload (see check_rehome): enumerates interleavings of the
/// mid-run shard migration against keyed timed acquires; per-key mutual
/// exclusion across migration planes is the property the planted
/// rehome_skip_fence bug violates.
CheckReport check_rehome_exhaustive(const CheckConfig& config,
                                    const ExploreConfig& explore,
                                    const LockSpaceFactory& factory,
                                    const std::vector<u64>& keys,
                                    bool iterative = false);

}  // namespace rmalock::mc

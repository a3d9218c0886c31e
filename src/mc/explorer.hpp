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

/// Bounded-exhaustive campaign over `workload`: enumerates schedules (one
/// world seed, mix_seed(base_seed, 0)) under workload.policy() until the
/// bounded space is drained or a violation is found; the first failure is
/// shrunk and reported exactly as in the randomized campaigns (check).
/// Fault sites armed in config.faults are DFS decisions too, so every
/// placement of the fault budget is enumerated (see the Workload
/// constructors). `iterative` selects explore_iterative
/// (explore.max_preemptions >= 0).
CheckReport check_exhaustive(const CheckConfig& config,
                             const ExploreConfig& explore,
                             const Workload& workload, bool iterative = false);

/// Reader/writer forwarder kept for the repository benchmark (see check_rw
/// in mc/checker.hpp).
inline CheckReport check_rw_exhaustive(const CheckConfig& config,
                                       const ExploreConfig& explore,
                                       const RwLockFactory& factory,
                                       bool iterative = false) {
  return check_exhaustive(config, explore, Workload::rw(factory), iterative);
}

}  // namespace rmalock::mc

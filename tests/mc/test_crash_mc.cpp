// Model checking under crash injection: the EpochMonitor safety monitor,
// clean randomized / restart / adversarial-detector / bounded-exhaustive
// campaigns for the fenced lease backends, the planted no-fence recovery
// bug being caught by every mode, and deterministic counterexample replay
// (the --replay repro line contract).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "locks/factory.hpp"
#include "locks/lease.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/monitor.hpp"

namespace rmalock::mc {
namespace {

LeaseLockFactory lease_factory(bool fence) {
  return [fence](rma::World& world) {
    auto inner = locks::make_exclusive(locks::Backend::kRmaMcs, world,
                                       /*home=*/0);
    locks::LeaseParams params;
    params.home = 0;
    params.fence_on_steal = fence;
    return std::make_unique<locks::LeaseExclusive>(world, std::move(inner),
                                                   params);
  };
}

/// Randomized crash campaign over the P=4 topology mc_verification uses;
/// a moderate per-point chance spreads the single crash over the schedule
/// so mid-CS deaths (the ones that orphan the lease) are represented.
CheckConfig crash_config(rma::SchedPolicy policy, u64 schedules) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = policy;
  config.schedules = schedules;
  config.acquires_per_proc = 3;
  config.faults.max_crashes = 1;
  config.faults.crash_chance_permille = 100;
  return config;
}

TEST(EpochMonitor, FlagsTwoOwnersInOneEpoch) {
  EpochMonitor monitor;
  monitor.enter(5);
  EXPECT_EQ(monitor.violations(), 0u);
  monitor.enter(5);  // second simultaneous owner of epoch 5
  EXPECT_EQ(monitor.violations(), 1u);
  monitor.exit(5);
  monitor.exit(5);
  EXPECT_EQ(monitor.entries(), 2u);
}

TEST(EpochMonitor, DistinctAndSequentialEpochsAreClean) {
  EpochMonitor monitor;
  monitor.enter(1);
  monitor.exit(1);
  monitor.enter(2);   // fresh epoch after a clean handover
  monitor.enter(3);   // concurrent holds in *different* epochs are exactly
  monitor.exit(3);    // what fenced recovery produces — not a violation
  monitor.exit(2);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.active(), 0u);
}

TEST(EpochMonitor, CrashedHolderKeepsItsEpochActive) {
  // A mid-CS crash never calls exit(); the epoch stays active forever.
  // Fenced recovery grants a *new* epoch (clean); only an epoch-reusing
  // steal collides with the dead owner's still-active epoch.
  EpochMonitor monitor;
  monitor.enter(9);  // crashes here, no exit
  monitor.enter(10);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.active(), 2u);
  monitor.enter(9);  // the no-fence thief reusing the orphaned epoch
  EXPECT_EQ(monitor.violations(), 1u);
}

TEST(CrashMc, RandomizedFencedLeaseCampaignIsClean) {
  const CheckConfig config = crash_config(rma::SchedPolicy::kRandom, 30);
  const CheckReport report =
      check(config, Workload::lease(lease_factory(true)));
  EXPECT_EQ(report.schedules_run, 30u);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.total_cs_entries, 0u);
}

TEST(CrashMc, RestartCampaignIsClean) {
  // Crashed processes reboot and re-run the workload; the rebooted owner's
  // self-fence (and its stale-epoch release failing quietly) keep both
  // safety and liveness.
  CheckConfig config = crash_config(rma::SchedPolicy::kRandom, 30);
  config.faults.restart_crashed = true;
  const CheckReport report =
      check(config, Workload::lease(lease_factory(true)));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CrashMc, AdversarialDetectorStaysEpochSafeWhenFenced) {
  // Every remote rank is always suspected, so live owners get fenced all
  // the time — epoch safety must come from the fence alone, not from
  // detector accuracy.
  CheckConfig config = crash_config(rma::SchedPolicy::kRandom, 20);
  config.faults.adversarial_suspicion = true;
  const CheckReport report =
      check(config, Workload::lease(lease_factory(true)));
  EXPECT_EQ(report.mutex_violations, 0u) << report.summary();
}

TEST(CrashMc, ExhaustiveFencedLeaseDrainsItsSpaceCleanly) {
  // Bounded-exhaustive at P=2 with the crash decision branching: every
  // crash-free interleaving AND every placement of the single crash.
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 400'000;
  config.faults.max_crashes = 1;
  ExploreConfig explore;
  explore.max_schedules = 50'000;
  explore.max_preemptions = 2;
  const CheckReport report =
      check_exhaustive(config, explore, Workload::lease(lease_factory(true)),
                       /*iterative=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.schedules_run, 1u);
  EXPECT_GT(report.exhausted_spaces, 0u)
      << "the bounded space must be drained, not truncated";
}

class PlantedNoFenceBug : public ::testing::TestWithParam<rma::SchedPolicy> {};

TEST_P(PlantedNoFenceBug, IsCaughtWithAReplayableCounterexample) {
  const CheckConfig config = crash_config(GetParam(), 60);
  const CheckReport report =
      check(config, Workload::lease(lease_factory(false)));
  ASSERT_GT(report.mutex_violations, 0u)
      << "planted no-fence recovery bug was not caught: "
      << report.summary();
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "mutex");
  ASSERT_FALSE(report.first_failure.trace.empty());

  // The repro line contract: replaying the captured (shrunk) trace under
  // the recorded world seed deterministically reproduces the violation.
  const rma::SimOptions replay = replay_options(
      config, report.first_failure.world_seed, report.first_failure.trace);
  const ScheduleOutcome outcome =
      Workload::lease(lease_factory(false))(config, replay);
  EXPECT_GT(outcome.mutex_violations, 0u)
      << "counterexample trace does not reproduce the epoch violation";
  EXPECT_GE(outcome.run.injected[rma::FaultKind::kCrash], 1u)
      << "the violation needs the recorded crash to re-fire";
}

INSTANTIATE_TEST_SUITE_P(Policies, PlantedNoFenceBug,
                         ::testing::Values(rma::SchedPolicy::kRandom,
                                           rma::SchedPolicy::kPct));

TEST(CrashMc, PlantedNoFenceBugIsCaughtByExhaustiveEnumeration) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 400'000;
  config.faults.max_crashes = 1;
  ExploreConfig explore;
  explore.max_schedules = 50'000;
  explore.max_preemptions = 2;
  const CheckReport report =
      check_exhaustive(config, explore, Workload::lease(lease_factory(false)),
                       /*iterative=*/true);
  EXPECT_GT(report.mutex_violations, 0u)
      << "exhaustive enumeration missed the planted bug: "
      << report.summary();
  EXPECT_TRUE(report.has_first_failure);
}

}  // namespace
}  // namespace rmalock::mc

// Model checking of the deadline/retry acquire path and shard re-homing:
// the LivelockMonitor's bounded-retry progress witness, clean campaigns on
// the correct configurations with the gray-failure model armed, the
// planted no-backoff retry bug caught by PCT schedules and by bounded-
// exhaustive enumeration (each with a deterministic replayable
// counterexample), and the planted unfenced re-homing bug caught
// exhaustively with a shrunk two-owner trace.
#include <gtest/gtest.h>

#include "locks/rma_mcs.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/monitor.hpp"

namespace rmalock {
namespace {

mc::ExclusiveLockFactory mcs_factory() {
  return [](rma::World& world) {
    locks::RmaMcsParams params =
        locks::RmaMcsParams::defaults(world.topology());
    params.locality.assign(static_cast<usize>(world.topology().num_levels()),
                           2);
    return std::make_unique<locks::RmaMcs>(world, params);
  };
}

mc::LockSpaceFactory rehome_factory(bool planted) {
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

TEST(LivelockMonitor, FlagsCumulativeAttemptsPastTheBound) {
  mc::LivelockMonitor monitor(100);
  // Bounded rounds that end in a grant reset the tally: no violation no
  // matter how many rounds run.
  for (i32 round = 0; round < 50; ++round) {
    monitor.record(/*rank=*/0, /*attempts=*/10, /*acquired=*/false);
    monitor.record(/*rank=*/0, /*attempts=*/10, /*acquired=*/true);
  }
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.max_cumulative_attempts(), 20u);
  // A rank spinning past the bound without ever acquiring is a livelock.
  monitor.record(/*rank=*/1, /*attempts=*/60, /*acquired=*/false);
  EXPECT_EQ(monitor.violations(), 0u);
  monitor.record(/*rank=*/1, /*attempts=*/60, /*acquired=*/false);
  EXPECT_EQ(monitor.violations(), 1u);
  // Tallies are per rank: rank 0's resets never excuse rank 1.
  monitor.record(/*rank=*/0, /*attempts=*/1, /*acquired=*/true);
  monitor.record(/*rank=*/1, /*attempts=*/1, /*acquired=*/false);
  EXPECT_EQ(monitor.violations(), 2u);
}

TEST(TimeoutMc, ArmedCampaignIsCleanWithCorrectBackoff) {
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    mc::CheckConfig config;
    config.topology = topo::Topology::uniform({2}, 2);  // P = 4
    config.policy = policy;
    config.schedules = 20;
    config.acquires_per_proc = 4;
    config.max_steps = 4'000'000;
    config.faults.max_delays = 2;
    config.faults.max_partitions = 1;
    const auto report = mc::check(config, mc::Workload::timed(mcs_factory()));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.livelock_violations, 0u);
    EXPECT_GT(report.total_cs_entries, 0u);
  }
}

TEST(TimeoutMc, PlantedNoBackoffIsCaughtByPctSchedules) {
  // Mirrors mc_verification's planted campaign: PCT starvation (a change
  // point de-prioritizes the holder) plus no-backoff retries freeze the
  // clock and spin a rank to the retry valve. First catch is around
  // schedule 220 under this fixed seed, hence the 300-schedule budget.
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.policy = rma::SchedPolicy::kPct;
  config.schedules = 300;
  config.acquires_per_proc = 4;
  config.max_steps = 4'000'000;
  config.retry.backoff = false;
  config.faults.max_delays = 2;
  const auto report = mc::check(config, mc::Workload::timed(mcs_factory()));
  EXPECT_GT(report.livelock_violations, 0u)
      << "planted no-backoff bug survived: " << report.summary();
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "livelock");
  EXPECT_FALSE(report.first_failure.trace.empty());

  // The shrunk counterexample replays deterministically.
  const mc::ScheduleOutcome replayed = mc::Workload::timed(mcs_factory())(
      config, mc::replay_options(config, report.first_failure.world_seed,
                                 report.first_failure.trace));
  EXPECT_EQ(replayed.run.replay_divergences, 0u);
  EXPECT_GT(replayed.livelock_violations, 0u)
      << "shrunk trace no longer reproduces the livelock";

  // Control: the identical schedules with backoff ON are clean — the
  // livelock is the retry policy's fault, not the scheduler's.
  mc::CheckConfig control = config;
  control.retry.backoff = true;
  const auto control_report =
      mc::check(control, mc::Workload::timed(mcs_factory()));
  EXPECT_TRUE(control_report.ok()) << control_report.summary();
}

TEST(TimeoutMc, ExhaustiveDrainsCleanAndCatchesNoBackoff) {
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 2;
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.timeout_retry_rounds = 2;
  config.max_steps = 400'000;

  const auto clean = mc::check_exhaustive(
      config, explore, mc::Workload::timed(mcs_factory()), /*iterative=*/true);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  EXPECT_EQ(clean.exhausted_spaces, 1u) << clean.summary();

  mc::CheckConfig planted = config;
  planted.retry.backoff = false;
  const auto caught = mc::check_exhaustive(
      planted, explore, mc::Workload::timed(mcs_factory()),
      /*iterative=*/true);
  EXPECT_GT(caught.livelock_violations, 0u)
      << "bounded-exhaustive enumeration missed the no-backoff livelock";
  ASSERT_TRUE(caught.has_first_failure);
  EXPECT_FALSE(caught.first_failure.trace.empty());

  const mc::ScheduleOutcome replayed = mc::Workload::timed(mcs_factory())(
      planted, mc::replay_options(planted, caught.first_failure.world_seed,
                                  caught.first_failure.trace));
  EXPECT_EQ(replayed.run.replay_divergences, 0u);
  EXPECT_GT(replayed.livelock_violations, 0u);
}

TEST(RehomeMc, ExhaustiveDrainsCleanAndCatchesTheUnfencedMigration) {
  // The minimal two-owner counterexample needs two preemptions: pause a
  // claimant between its directory read and its grant, migrate + acquire
  // on the new plane, then resume the stale claimant — only the
  // post-acquire fence deflects it.
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 2;
  const topo::Topology topology = topo::Topology::uniform({}, 2);
  mc::CheckConfig config;
  config.topology = topology;
  config.acquires_per_proc = 2;
  config.timeout_retry_rounds = 2;
  config.max_steps = 400'000;

  const auto fenced = rehome_factory(/*planted=*/false);
  const auto fenced_keys = mc::pick_cross_slot_keys(fenced, topology, 1);
  const auto clean = mc::check_exhaustive(
      config, explore, mc::Workload::rehome(fenced, fenced_keys),
      /*iterative=*/true);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  EXPECT_EQ(clean.exhausted_spaces, 1u) << clean.summary();

  const auto nofence = rehome_factory(/*planted=*/true);
  const auto nofence_keys = mc::pick_cross_slot_keys(nofence, topology, 1);
  const auto caught = mc::check_exhaustive(
      config, explore, mc::Workload::rehome(nofence, nofence_keys),
      /*iterative=*/true);
  EXPECT_GT(caught.mutex_violations, 0u)
      << "bounded-exhaustive enumeration missed the unfenced re-homing";
  ASSERT_TRUE(caught.has_first_failure);
  EXPECT_EQ(caught.first_failure.kind, "mutex");
  EXPECT_FALSE(caught.first_failure.trace.empty());

  const mc::ScheduleOutcome replayed =
      mc::Workload::rehome(nofence, nofence_keys)(
          config, mc::replay_options(config, caught.first_failure.world_seed,
                                     caught.first_failure.trace));
  EXPECT_EQ(replayed.run.replay_divergences, 0u);
  EXPECT_GT(replayed.mutex_violations, 0u);
}

TEST(RehomeMc, RandomSchedulesCatchTheUnfencedMigration) {
  // kRandom can stall the claimant mid-window stochastically (PCT's strict
  // priorities cannot); first catch is around schedule 76 under the fixed
  // seed.
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 150;
  config.acquires_per_proc = 4;
  config.max_steps = 4'000'000;
  const auto factory = rehome_factory(/*planted=*/true);
  const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 1);
  const auto report = mc::check(config, mc::Workload::rehome(factory, keys));
  EXPECT_GT(report.mutex_violations, 0u)
      << "planted unfenced re-homing survived: " << report.summary();

  // The fenced space under the very same schedules stays clean.
  const auto fenced = rehome_factory(/*planted=*/false);
  const auto fenced_keys = mc::pick_cross_slot_keys(fenced, config.topology, 1);
  const auto control =
      mc::check(config, mc::Workload::rehome(fenced, fenced_keys));
  EXPECT_TRUE(control.ok()) << control.summary();
}

}  // namespace
}  // namespace rmalock

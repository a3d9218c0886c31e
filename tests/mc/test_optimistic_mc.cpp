// Model checking of the optimistic (version-validated) read path: a
// correct implementation survives randomized and bounded-exhaustive
// campaigns with the torn-read fault model armed; the planted
// skip-read-validation bug is caught by random, PCT, and exhaustive
// enumeration, each with a deterministic replayable counterexample; a
// torn-read-blind campaign (fault model disarmed) misses the planted bug —
// the false negative that motivates arming the model; and the campaign
// runtime stays byte-identical across jobs.
#include <gtest/gtest.h>

#include "mc/checker.hpp"
#include "mc/explorer.hpp"

namespace rmalock {
namespace {

mc::LockSpaceFactory optimistic_factory(bool planted) {
  return [planted](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaRw;
    config.slots_per_shard = 4;
    config.payload_words = 2;  // one split point: the smallest tearable read
    config.skip_read_validation = planted;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

/// The concentrated campaign that deterministically exposes the planted
/// bug under both stochastic policies (single hot key, pinned alternating
/// roles, tears spread across the run).
mc::CheckConfig planted_bug_config(rma::SchedPolicy policy) {
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);  // P = 4
  config.policy = policy;
  config.schedules = 150;
  config.acquires_per_proc = 10;
  config.max_steps = 2'000'000;
  config.writer_roles = {true, false, true, false};
  config.faults.max_tears = 6;
  config.faults.tear_chance_permille = 300;
  return config;
}

TEST(OptimisticMc, ArmedCampaignIsCleanOnTheCorrectImplementation) {
  const auto factory = optimistic_factory(/*planted=*/false);
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    mc::CheckConfig config;
    config.topology = topo::Topology::uniform({2}, 2);
    config.policy = policy;
    config.schedules = 20;
    config.acquires_per_proc = 6;
    config.max_steps = 2'000'000;
    config.writer_fraction = 0.5;
    config.faults.max_tears = 2;
    const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 2);
    const auto report =
        mc::check(config, mc::Workload::optimistic(factory, keys));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.schedules_run, 20u);
    EXPECT_GT(report.total_cs_entries, 0u);
  }
}

TEST(OptimisticMc, PlantedBugIsCaughtByBothStochasticPolicies) {
  const auto factory = optimistic_factory(/*planted=*/true);
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    mc::CheckConfig config = planted_bug_config(policy);
    const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 1);
    const auto report =
        mc::check(config, mc::Workload::optimistic(factory, keys));
    EXPECT_FALSE(report.ok())
        << "planted skip-validation bug survived policy "
        << (policy == rma::SchedPolicy::kRandom ? "random" : "pct");
    EXPECT_GT(report.mutex_violations, 0u);
    ASSERT_TRUE(report.has_first_failure);
    EXPECT_EQ(report.first_failure.kind, "mutex");
    EXPECT_FALSE(report.first_failure.trace.empty());

    // The shrunk counterexample replays deterministically: same world
    // seed, recorded picks, violation re-fires.
    const mc::ScheduleOutcome replayed =
        mc::Workload::optimistic(factory, keys)(
            config, mc::replay_options(config, report.first_failure.world_seed,
                                       report.first_failure.trace));
    EXPECT_EQ(replayed.run.replay_divergences, 0u);
    EXPECT_GT(replayed.mutex_violations, 0u)
        << "shrunk trace no longer reproduces the violation";
  }
}

TEST(OptimisticMc, TornReadBlindCampaignMissesThePlantedBug) {
  // The required false negative: with the fault model disarmed every
  // multi-word get is atomic at an instant, a mid-write snapshot never
  // violates the ascending-order consistency property, and the planted
  // bug is invisible. This is the demonstration that arming max_tears is
  // what gives the campaign its teeth.
  const auto factory = optimistic_factory(/*planted=*/true);
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    mc::CheckConfig config = planted_bug_config(policy);
    config.faults.max_tears = 0;  // blind
    const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 1);
    const auto report =
        mc::check(config, mc::Workload::optimistic(factory, keys));
    EXPECT_TRUE(report.ok())
        << "torn-read-blind campaign was expected to miss the planted bug: "
        << report.summary();
  }
}

TEST(OptimisticMc, ExhaustiveDrainsCleanAndCatchesThePlantedBug) {
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 400'000;
  config.writer_roles = {true, false};
  config.faults.max_tears = 1;
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 3;  // pause writer, tear the read, resume writer

  const auto good = optimistic_factory(/*planted=*/false);
  const auto good_keys = mc::pick_cross_slot_keys(good, config.topology, 1);
  const auto clean = mc::check_exhaustive(
      config, explore, mc::Workload::optimistic(good, good_keys),
      /*iterative=*/true);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  EXPECT_EQ(clean.exhausted_spaces, 1u) << clean.summary();

  const auto bad = optimistic_factory(/*planted=*/true);
  const auto bad_keys = mc::pick_cross_slot_keys(bad, config.topology, 1);
  const auto caught = mc::check_exhaustive(
      config, explore, mc::Workload::optimistic(bad, bad_keys),
      /*iterative=*/true);
  EXPECT_FALSE(caught.ok())
      << "bounded-exhaustive enumeration missed the planted bug";
  ASSERT_TRUE(caught.has_first_failure);
  EXPECT_FALSE(caught.first_failure.trace.empty());

  // The explorer's counterexample replays too.
  const mc::ScheduleOutcome replayed = mc::Workload::optimistic(bad, bad_keys)(
      config, mc::replay_options(config, caught.first_failure.world_seed,
                                 caught.first_failure.trace));
  EXPECT_EQ(replayed.run.replay_divergences, 0u);
  EXPECT_GT(replayed.mutex_violations, 0u);
}

TEST(OptimisticMc, ParallelCampaignIsByteIdenticalToSequential) {
  const auto factory = optimistic_factory(/*planted=*/false);
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.schedules = 16;
  config.acquires_per_proc = 4;
  config.max_steps = 2'000'000;
  config.writer_fraction = 0.5;
  config.faults.max_tears = 2;
  const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 2);
  config.jobs = 1;
  const auto sequential =
      mc::check(config, mc::Workload::optimistic(factory, keys));
  config.jobs = 2;
  const auto parallel =
      mc::check(config, mc::Workload::optimistic(factory, keys));
  EXPECT_EQ(sequential.summary(), parallel.summary());
  EXPECT_EQ(sequential.total_cs_entries, parallel.total_cs_entries);
}

}  // namespace
}  // namespace rmalock

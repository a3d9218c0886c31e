// Regression tests for the three RMA-RW protocol findings documented in
// DESIGN.md §2.5–2.6 and EXPERIMENTS.md E17. Each scenario below deadlocked
// or violated mutual exclusion with the literal paper listings (or with our
// earlier, weaker fixes) and must stay fixed.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"

namespace rmalock::locks {
namespace {

using test::make_sim;

// Finding 2 (exact-T_R reset fragility): one writer and fifteen readers
// with T_R = 5. The literal Listing 9 deadlocks here in two ways: the
// T_R-th reader observes the writer's transient root-tail registration and
// skips the reset, or concurrent -1 back-offs reorder FAO values so nobody
// observes exactly T_R. With the shared reset duty the run must complete.
TEST(RmaRwRegression, TinyTrWithOneWriterCompletes) {
  const auto topo = topo::Topology::nodes(2, 8);
  for (const u64 seed : {3u, 9u, 21u, 77u}) {
    auto world = make_sim(topo, seed);
    RmaRwParams params;
    params.tdc = 8;
    params.locality = {2, 2};
    params.tr = 5;
    RmaRw lock(*world, params);
    i64 entries = 0;
    world->run([&](rma::RmaComm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < 5; ++i) {
          lock.acquire_write(comm);
          ++entries;
          lock.release_write(comm);
        }
      } else {
        for (int i = 0; i < 100; ++i) {
          lock.acquire_read(comm);
          ++entries;
          lock.release_read(comm);
        }
      }
    });
    EXPECT_EQ(entries, 5 + 15 * 100) << "seed " << seed;
  }
}

// Finding 3 (reset amplification): T_DC = 64 puts 64 readers behind each
// physical counter, so many back-off readers reset concurrently. A blind
// paired subtraction double-claims the DEPART quantum, drives the words
// negative, and eventually swings ARRIVE into the WRITE-flag range with no
// writer left to clear it. The CAS-claimed reclaim must keep the counters
// consistent and the run terminating.
TEST(RmaRwRegression, ConcurrentResettersDoNotCorruptCounters) {
  const auto topo = topo::Topology::uniform({16}, 16);  // P = 256
  auto world = make_sim(topo, 1);
  RmaRwParams params;
  params.tdc = 64;
  params.locality = {32, 32};
  params.tr = 100;
  RmaRw lock(*world, params);
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() % 20 == 0;
    for (int i = 0; i < 40; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        lock.release_read(comm);
      }
    }
  });
  for (const Rank host : lock.counter_hosts()) {
    const i64 arrive = world->read_word(host, lock.arrive_offset());
    const i64 depart = world->read_word(host, lock.depart_offset());
    EXPECT_GE(arrive, 0) << "counter " << host;
    EXPECT_GE(depart, 0) << "counter " << host;
    EXPECT_LT(arrive, kWriteFlagThreshold) << "stuck flag on " << host;
    EXPECT_EQ(arrive, depart) << "counter " << host;
  }
}

// Finding 1 (WRITE-flag erasure): under adversarial random schedules the
// literal Listing 6/9 reader reset can erase a just-arrived writer's flag
// and admit a reader alongside the writer. The checker demonstrated 3
// violations in 400 schedules on this configuration (EXPERIMENTS.md E17);
// the flag-preserving reset must stay clean on the same campaign.
TEST(RmaRwRegression, FlagPreservingResetPassesAdversarialSchedules) {
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 150;
  config.acquires_per_proc = 8;
  config.max_steps = 400'000;
  const auto report =
      mc::check(config, mc::Workload::rw([](rma::World& world) {
        RmaRwParams params = RmaRwParams::defaults(world.topology());
        params.tdc = 2;
        params.tr = 1;
        params.locality.assign(
            static_cast<usize>(world.topology().num_levels()), 1);
        params.paper_faithful_reader_reset = false;
        return std::make_unique<RmaRw>(world, params);
      }));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.total_cs_entries, 150u * 4 * 8);
}

// The faithful variant exists for demonstration only; it must at least not
// crash the harness (violations/deadlocks are reported, not fatal).
TEST(RmaRwRegression, FaithfulVariantIsReportedNotFatal) {
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 40;
  config.acquires_per_proc = 8;
  config.max_steps = 400'000;
  const auto report =
      mc::check(config, mc::Workload::rw([](rma::World& world) {
        RmaRwParams params = RmaRwParams::defaults(world.topology());
        params.tdc = 2;
        params.tr = 1;
        params.locality.assign(
            static_cast<usize>(world.topology().num_levels()), 1);
        params.paper_faithful_reader_reset = true;
        return std::make_unique<RmaRw>(world, params);
      }));
  // No assertion on ok(): the point of the faithful mode is that it MAY
  // violate; the harness must simply survive and account for everything.
  EXPECT_EQ(report.schedules_run, 40u);
}

}  // namespace
}  // namespace rmalock::locks

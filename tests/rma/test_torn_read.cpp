// Torn-read fault-model semantics: disarmed multi-word gets make no
// decision and record nothing (bit-compatible traces), armed gets respect
// the tear budget and count injected tears, tear decisions share the picks
// stream below the crash range (tear after k words: -(P + 2 + k)) and
// record/replay bit-identically, and single-word gets never tear even when
// armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

SimOptions tear_options(const topo::Topology& topology, u64 seed,
                        i32 max_tears, u32 chance_permille = 1000) {
  SimOptions opts;
  opts.topology = topology;
  opts.latency = LatencyModel::zero(topology.num_levels());
  opts.seed = seed;
  opts.faults.max_tears = max_tears;
  opts.faults.tear_chance_permille = chance_permille;
  return opts;
}

/// One writer keeps rewriting a 4-word vector; every other rank reads it
/// with get_vec. The contention makes armed runs actually tear.
void contended_body(RmaComm& comm, WinOffset off, i32 iters) {
  if (comm.rank() == 0) {
    for (i32 g = 1; g <= iters; ++g) {
      for (WinOffset w = 0; w < 4; ++w) {
        comm.put(g, 0, off + w);
        comm.flush(0);
      }
    }
  } else {
    std::vector<i64> out(4, 0);
    for (i32 i = 0; i < iters; ++i) {
      comm.get_vec(0, off, out.data(), out.size());
      comm.flush(0);
    }
  }
}

TEST(SimWorldTornRead, DisarmedGetVecMakesNoDecisionAndRecordsNothing) {
  // max_tears == 0: multi-word gets are plain reads — no tears, no
  // randomness consumed, and no tear picks in a recorded trace, keeping
  // pre-tear-model traces bit-compatible.
  SimOptions opts = tear_options(topo::Topology::uniform({}, 4), 7,
                                 /*max_tears=*/0);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(4);
  const RunResult result =
      world->run([&](RmaComm& comm) { contended_body(comm, off, 10); });
  EXPECT_EQ(result.injected[FaultKind::kTear], 0u);
  const i32 nprocs = 4;
  for (const Rank pick : result.schedule.picks) {
    EXPECT_GT(pick, -(nprocs + 2)) << "tear pick in a disarmed run";
  }
}

TEST(SimWorldTornRead, ArmedGetVecTearsWithinBudget) {
  auto opts = tear_options(topo::Topology::uniform({}, 2), 3, /*max_tears=*/2);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(4);
  const RunResult result =
      world->run([&](RmaComm& comm) { contended_body(comm, off, 20); });
  EXPECT_TRUE(result.ok());
  // Chance 1000 permille: every armed multi-word get tears until the
  // budget is spent — and never past it.
  EXPECT_EQ(result.injected[FaultKind::kTear], 2u);
}

TEST(SimWorldTornRead, SingleWordGetVecNeverTears) {
  // n == 1 has no split point: even fully armed it is not a decision.
  auto opts = tear_options(topo::Topology::uniform({}, 2), 3, /*max_tears=*/8);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const RunResult result = world->run([&](RmaComm& comm) {
    // A writer keeps the word changing so the reader's repeated gets are
    // not parked as a spin-wait.
    if (comm.rank() == 0) {
      for (i32 g = 1; g <= 10; ++g) {
        comm.put(g, 0, off);
        comm.flush(0);
      }
    } else {
      i64 out = 0;
      while (out != 10) {
        comm.get_vec(0, off, &out, 1);
        comm.flush(0);
      }
    }
  });
  EXPECT_EQ(result.injected[FaultKind::kTear], 0u);
  for (const Rank pick : result.schedule.picks) {
    EXPECT_GT(pick, -(2 + 2)) << "tear pick from a single-word get_vec";
  }
}

TEST(SimWorldTornRead, TearPicksLiveBelowTheCrashRange) {
  // A split after k words records -(P + 2 + k): with P == 2
  // and 4-word vectors, legal tear picks are -5, -6, -7 — strictly below
  // the crash range [-(P + 1), -2] and distinct from scheduler picks >= 0.
  SimOptions opts = tear_options(topo::Topology::uniform({}, 2), 5,
                                 /*max_tears=*/4);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(4);
  const RunResult result =
      world->run([&](RmaComm& comm) { contended_body(comm, off, 20); });
  ASSERT_GT(result.injected[FaultKind::kTear], 0u);
  u64 tear_picks = 0;
  for (const Rank pick : result.schedule.picks) {
    if (pick <= -(2 + 2)) {
      ++tear_picks;
      EXPECT_GE(pick, -(2 + 2 + 3)) << "split point past the vector length";
    }
  }
  EXPECT_EQ(tear_picks, result.injected[FaultKind::kTear]);
}

TEST(SimWorldTornRead, RecordReplayRoundTripsTearDecisions) {
  const topo::Topology topology = topo::Topology::uniform({}, 2);
  SimOptions record_opts = tear_options(topology, 11, 3, /*chance=*/700);
  record_opts.policy = SchedPolicy::kRandom;
  record_opts.record_schedule = true;
  auto world = SimWorld::create(record_opts);
  const WinOffset off = world->allocate(4);
  const auto body = [&off](RmaComm& comm) { contended_body(comm, off, 15); };
  const RunResult recorded = world->run(body);
  ASSERT_GT(recorded.injected[FaultKind::kTear], 0u);

  SimOptions replay_opts = tear_options(topology, 11, 3, /*chance=*/700);
  replay_opts.policy = SchedPolicy::kReplay;
  replay_opts.replay = &recorded.schedule;
  replay_opts.record_schedule = true;
  auto replay_world = SimWorld::create(replay_opts);
  ASSERT_EQ(replay_world->allocate(4), off);
  const RunResult replayed = replay_world->run(body);
  EXPECT_EQ(replayed.replay_divergences, 0u);
  EXPECT_EQ(replayed.injected[FaultKind::kTear],
            recorded.injected[FaultKind::kTear]);
  EXPECT_EQ(replayed.schedule, recorded.schedule);
  for (WinOffset w = 0; w < 4; ++w) {
    EXPECT_EQ(replay_world->read_word(0, off + w),
              world->read_word(0, off + w));
  }
}

TEST(SimWorldTornRead, ArmedRunsAreDeterministicPerSeed) {
  const auto run_once = [](u64 seed) {
    auto opts = tear_options(topo::Topology::uniform({}, 2), seed,
                             /*max_tears=*/2, /*chance=*/500);
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(4);
    const RunResult result =
        world->run([&](RmaComm& comm) { contended_body(comm, off, 20); });
    return result.injected[FaultKind::kTear];
  };
  EXPECT_EQ(run_once(21), run_once(21));
}

}  // namespace
}  // namespace rmalock::rma

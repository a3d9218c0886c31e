#include "rma/sim_world.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_support.hpp"
#include "locks/rma_rw.hpp"
#include "obs/trace.hpp"

namespace rmalock::rma {
namespace {

using test::make_sim;

TEST(SimWorld, AllocateReturnsConsecutiveOffsets) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  EXPECT_EQ(world->allocate(2), 0);
  EXPECT_EQ(world->allocate(3), 2);
  EXPECT_EQ(world->allocate(1), 5);
  EXPECT_EQ(world->window_words(), 6u);
}

TEST(SimWorld, WindowWordsStartZeroed) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const WinOffset off = world->allocate(4);
  for (Rank r = 0; r < 3; ++r) {
    for (WinOffset o = off; o < off + 4; ++o) {
      EXPECT_EQ(world->read_word(r, o), 0);
    }
  }
}

TEST(SimWorld, DirectReadWriteWord) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(1, off, -77);
  EXPECT_EQ(world->read_word(1, off), -77);
  EXPECT_EQ(world->read_word(0, off), 0);  // windows are per rank
}

TEST(SimWorld, PutAndGetRoundTrip) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.put(123, 1, off);
      comm.flush(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.get(1, off), 123);
      comm.flush(1);
    }
  });
}

TEST(SimWorld, FaoSumReturnsPrevious) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  const WinOffset off = world->allocate(1);
  std::vector<i64> previous(4, -1);
  world->run([&](RmaComm& comm) {
    previous[static_cast<usize>(comm.rank())] =
        comm.fao(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  EXPECT_EQ(world->read_word(0, off), 4);
  std::sort(previous.begin(), previous.end());
  EXPECT_EQ(previous, (std::vector<i64>{0, 1, 2, 3}));
}

TEST(SimWorld, FaoReplaceSwaps) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(0, off, 5);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      const i64 old = comm.fao(9, 0, off, AccumOp::kReplace);
      comm.flush(0);
      EXPECT_EQ(old, 5);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 9);
}

TEST(SimWorld, CasSemantics) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(0, off, 10);
  world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    EXPECT_EQ(comm.cas(11, 99, 0, off), 10);  // mismatch: unchanged
    comm.flush(0);
    EXPECT_EQ(comm.get(0, off), 10);
    comm.flush(0);
    EXPECT_EQ(comm.cas(11, 10, 0, off), 10);  // match: swapped
    comm.flush(0);
    EXPECT_EQ(comm.get(0, off), 11);
    comm.flush(0);
  });
}

TEST(SimWorld, AccumulateSumAndReplace) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const WinOffset sum = world->allocate(1);
  const WinOffset rep = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(2, 0, sum, AccumOp::kSum);
    comm.accumulate(comm.rank() + 1, 0, rep, AccumOp::kReplace);
    comm.flush(0);
  });
  EXPECT_EQ(world->read_word(0, sum), 6);
  const i64 last = world->read_word(0, rep);
  EXPECT_GE(last, 1);
  EXPECT_LE(last, 3);
}

TEST(SimWorld, ExactlyOneCasWinner) {
  auto world = make_sim(topo::Topology::uniform({2}, 8));
  const WinOffset off = world->allocate(1);
  i32 winners = 0;
  world->run([&](RmaComm& comm) {
    const i64 old = comm.cas(comm.rank() + 1, 0, 0, off);
    comm.flush(0);
    if (old == 0) ++winners;  // serialized engine: plain int is fine
  });
  EXPECT_EQ(winners, 1);
}

TEST(SimWorld, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [](u64 seed) {
    auto world = make_sim(topo::Topology::uniform({2}, 4), seed);
    const WinOffset off = world->allocate(1);
    auto result = world->run([&](RmaComm& comm) {
      for (int i = 0; i < 50; ++i) {
        comm.fao(1, 0, off, AccumOp::kSum);
        comm.flush(0);
      }
    });
    return std::pair<u64, Nanos>(result.steps, result.makespan_ns);
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a, b);
}

TEST(SimWorld, ClockAdvancesWithOps) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    const Nanos t0 = comm.now_ns();
    comm.put(1, 0, off);
    comm.flush(0);
    EXPECT_GT(comm.now_ns(), t0);
  });
}

TEST(SimWorld, ComputeAdvancesVirtualTime) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  world->run([&](RmaComm& comm) {
    const Nanos t0 = comm.now_ns();
    comm.compute(12345);
    EXPECT_EQ(comm.now_ns(), t0 + 12345);
  });
}

TEST(SimWorld, BarrierSynchronizesClocks) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  std::vector<Nanos> after(4);
  world->run([&](RmaComm& comm) {
    comm.compute(1000 * (comm.rank() + 1));  // ranks arrive staggered
    comm.barrier();
    after[static_cast<usize>(comm.rank())] = comm.now_ns();
  });
  for (Rank r = 1; r < 4; ++r) {
    EXPECT_EQ(after[static_cast<usize>(r)], after[0]);
  }
  EXPECT_GE(after[0], 4000);
}

TEST(SimWorld, DistanceCostOrdering) {
  // Inter-node ops must cost more virtual time than intra-node than self.
  rma::SimOptions opts;
  opts.topology = topo::Topology::nodes(2, 2);  // ranks 0,1 | 2,3
  auto world = SimWorld::create(opts);
  const WinOffset off = world->allocate(1);
  std::vector<Nanos> cost(3);
  world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    Nanos t0 = comm.now_ns();
    comm.get(0, off);  // self
    cost[0] = comm.now_ns() - t0;
    t0 = comm.now_ns();
    comm.get(1, off);  // same node
    cost[1] = comm.now_ns() - t0;
    t0 = comm.now_ns();
    comm.get(2, off);  // other node
    cost[2] = comm.now_ns() - t0;
  });
  EXPECT_LT(cost[0], cost[1]);
  EXPECT_LT(cost[1], cost[2]);
}

TEST(SimWorld, NicOccupancyQueuesContendingOps) {
  // 16 processes hammering one word on rank 0 must finish later than the
  // wire latency alone because the target NIC serializes them.
  rma::SimOptions opts;
  opts.topology = topo::Topology::nodes(4, 4);
  auto world = SimWorld::create(opts);
  const WinOffset off = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  const LatencyModel& m = world->options().latency;
  // All 16 ops occupy the NIC back to back; the makespan must exceed the
  // accumulated occupancy of the 12 remote ones.
  EXPECT_GT(res.makespan_ns, 12 * m.atomic_occupancy_ns[2]);
  EXPECT_EQ(world->read_word(0, off), 16);
}

TEST(SimWorld, SpinWaitParksAndWakes) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset flag = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      i64 value = 0;
      do {  // classic local spin: must park, not burn steps
        value = comm.get(0, flag);
        comm.flush(0);
      } while (value == 0);
      EXPECT_EQ(value, 42);
    } else {
      comm.compute(100000);  // let rank 0 enter its spin first
      comm.put(42, 0, flag);
      comm.flush(0);
    }
  });
  // Parking keeps the step count tiny (no 100000/35 poll storm).
  EXPECT_LT(res.steps, 200u);
  EXPECT_FALSE(res.deadlocked);
}

TEST(SimWorld, ParkedWakeInheritsWriterTime) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset flag = world->allocate(1);
  Nanos waiter_done = 0;
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      i64 value = 0;
      do {
        value = comm.get(0, flag);
        comm.flush(0);
      } while (value == 0);
      waiter_done = comm.now_ns();
    } else {
      comm.compute(500000);
      comm.put(1, 0, flag);
      comm.flush(0);
    }
  });
  // The waiter cannot observe the write before the writer issued it.
  EXPECT_GE(waiter_done, 500000);
}

TEST(SimWorld, DeadlockIsDetectedAndReported) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  opts.abort_on_deadlock = false;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset flag = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    // Both processes wait for a write that never happens.
    i64 v = 0;
    do {
      v = comm.get(comm.rank(), flag);
      comm.flush(comm.rank());
    } while (v == 0);
  });
  EXPECT_TRUE(res.deadlocked);
  EXPECT_FALSE(res.step_limit_hit);
}

TEST(SimWorld, GrowthKeepsWrittenWordsAndZeroesNewOnes) {
  // Growth within the reserved stride and past it (small calloc'd slabs,
  // then one large enough to be mapped directly): every word written so
  // far, by write_word or by a run, survives on every rank, and every new
  // word reads 0.
  constexpr i32 kProcs = 8;
  auto world = make_sim(topo::Topology::uniform({2}, kProcs / 2));
  const auto stamp = [](Rank r, WinOffset o) { return 1'000'000 * r + o + 1; };
  for (const usize words : {3u, 2u, 100u, 40'000u, 7u}) {
    const WinOffset base = world->allocate(words);
    const auto end = static_cast<WinOffset>(world->window_words());
    for (Rank r = 0; r < kProcs; ++r) {
      for (WinOffset o = 0; o < base; ++o) {
        ASSERT_EQ(world->read_word(r, o), stamp(r, o)) << r << "@" << o;
      }
      for (WinOffset o = base; o < end; ++o) {
        ASSERT_EQ(world->read_word(r, o), 0) << r << "@" << o;
      }
    }
    if (words == 2 || words == 100) {
      // The next allocate() grows past the stride: words a run wrote must
      // be carried over too.
      world->run([&](RmaComm& comm) {
        for (WinOffset o = base; o < end; ++o) {
          comm.put(stamp(comm.rank(), o), comm.rank(), o);
        }
      });
    } else {
      for (Rank r = 0; r < kProcs; ++r) {
        for (WinOffset o = base; o < end; ++o) {
          world->write_word(r, o, stamp(r, o));
        }
      }
    }
  }
}

TEST(SimWorld, DistanceClassTableMatchesTopology) {
  // The engine's precomputed distance classes, observed through the
  // per-class op statistics: one put from every origin to every target
  // must land in distance_class(origin, target).
  const topo::Topology topologies[] = {
      topo::Topology::uniform({}, 5),         // one level
      topo::Topology::uniform({4}, 4),        // machine + nodes
      topo::Topology::uniform({2, 3}, 2),     // machine + racks + nodes
      topo::Topology::uniform({1, 4}, 3),     // degenerate middle level
      topo::Topology::uniform({3, 1, 2}, 1),  // one process per leaf
  };
  for (const topo::Topology& topology : topologies) {
    auto world = make_sim(topology);
    const WinOffset off = world->allocate(1);
    world->run([&](RmaComm& comm) {
      for (Rank target = 0; target < comm.nprocs(); ++target) {
        const i32 want = distance_class(topology, comm.rank(), target);
        const u64 before = comm.stats().count(OpKind::kPut, want);
        comm.put(1, target, off);
        EXPECT_EQ(comm.stats().count(OpKind::kPut, want), before + 1)
            << topology.describe() << ": " << comm.rank() << " -> "
            << target;
      }
    });
    EXPECT_EQ(world->aggregate_stats().total(OpKind::kPut),
              static_cast<u64>(topology.nprocs() * topology.nprocs()));
  }
}

/// RMA-RW readers and writers at P=64 (every fourth rank writes): parks
/// and wakes on many cells at once.
struct RwParkingLoad {
  explicit RwParkingLoad(SimWorld& world) : lock(world) {}

  void operator()(RmaComm& comm) {
    const bool writer = comm.rank() % 4 == 0;
    for (i32 i = 0; i < 6; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        comm.compute(200);
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        comm.compute(100);
        lock.release_read(comm);
      }
    }
  }

  locks::RmaRw lock;
};

SimOptions parking_options(obs::Tracer* tracer = nullptr) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({4}, 16);  // P = 64
  opts.seed = 5;
  opts.tracer = tracer;
  return opts;
}

TEST(SimWorld, RepeatedRunsMatchAFreshWorld) {
  // Nothing a run leaves in the waiter index or the scheduler may leak
  // into the next run: three runs on one world repeat a fresh world's run.
  obs::Tracer tracer(64);
  auto fresh = SimWorld::create(parking_options(&tracer));
  RwParkingLoad fresh_load(*fresh);
  const RunResult want = fresh->run(std::ref(fresh_load));
  ASSERT_FALSE(want.deadlocked);
  EXPECT_GT(tracer.count(obs::EventCode::kPark), 100u);

  auto world = SimWorld::create(parking_options());
  RwParkingLoad load(*world);
  for (i32 run = 0; run < 3; ++run) {
    const RunResult got = world->run(std::ref(load));
    EXPECT_EQ(got.steps, want.steps) << "run " << run;
    EXPECT_EQ(got.makespan_ns, want.makespan_ns) << "run " << run;
  }
}

TEST(SimWorld, RunAfterDeadlockMatchesAFreshWorld) {
  // A run stopped by deadlock detection while every process is parked on
  // several cells, then a normal run: the second run must repeat what a
  // fresh world does.
  SimOptions opts = parking_options();
  opts.abort_on_deadlock = false;
  auto world = SimWorld::create(opts);
  RwParkingLoad load(*world);
  const WinOffset flags = world->allocate(2);
  const RunResult stuck = world->run([&](RmaComm& comm) {
    // Polls two cells nobody ever writes: parks on both.
    const Rank home = (comm.rank() + 1) % comm.nprocs();
    while (comm.get(home, flags) == 0 && comm.get(home, flags + 1) == 0) {
    }
  });
  ASSERT_TRUE(stuck.deadlocked);

  auto fresh = SimWorld::create(parking_options());
  RwParkingLoad fresh_load(*fresh);
  fresh->allocate(2);
  const RunResult want = fresh->run(std::ref(fresh_load));
  const RunResult got = world->run(std::ref(load));
  EXPECT_FALSE(got.deadlocked);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.makespan_ns, want.makespan_ns);
}

TEST(SimWorldDeathTest, DeadlockAbortsByDefault) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset flag = world->allocate(1);
  EXPECT_DEATH(world->run([&](RmaComm& comm) {
                 i64 v = 0;
                 do {
                   v = comm.get(comm.rank(), flag);
                   comm.flush(comm.rank());
                 } while (v == 0);
               }),
               "deadlock");
}

TEST(SimWorld, StepLimitStopsRun) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  opts.max_steps = 1000;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    for (;;) {  // infinite mutual writing: live but unbounded
      comm.accumulate(1, 1 - comm.rank(), off, AccumOp::kSum);
      comm.flush(1 - comm.rank());
    }
  });
  EXPECT_TRUE(res.step_limit_hit);
  EXPECT_FALSE(res.deadlocked);
  EXPECT_LE(res.steps, 1100u);
}

TEST(SimWorld, WindowsPersistAcrossRuns) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.accumulate(5, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.accumulate(7, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 12);
}

TEST(SimWorld, ClocksResetEachRun) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  world->run([&](RmaComm& comm) { comm.compute(1000); });
  world->run([&](RmaComm& comm) { EXPECT_EQ(comm.now_ns(), 0); });
}

TEST(SimWorld, PerProcessRngStreamsDiffer) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  std::vector<u64> draws(4);
  world->run([&](RmaComm& comm) {
    draws[static_cast<usize>(comm.rank())] = comm.rng()();
  });
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::unique(draws.begin(), draws.end()), draws.end());
}

TEST(SimWorld, StatsAttributeDistanceClasses) {
  auto world = make_sim(topo::Topology::nodes(2, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    comm.put(1, 0, off);  // self
    comm.put(1, 1, off);  // intra-node
    comm.put(1, 2, off);  // inter-node
    comm.flush(2);
  });
  const OpStats stats = world->aggregate_stats();
  EXPECT_EQ(stats.count(OpKind::kPut, 0), 1u);
  EXPECT_EQ(stats.count(OpKind::kPut, 1), 1u);
  EXPECT_EQ(stats.count(OpKind::kPut, 2), 1u);
  EXPECT_EQ(stats.count(OpKind::kFlush, 2), 1u);
}

TEST(SimWorld, ResetStatsClears) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.put(1, 0, off);
    comm.flush(0);
  });
  EXPECT_GT(world->aggregate_stats().total_ops(), 0u);
  world->reset_stats();
  EXPECT_EQ(world->aggregate_stats().total_ops(), 0u);
}

TEST(SimWorld, RandomPolicyCompletesAndPreservesSemantics) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 8);
  opts.latency = LatencyModel::zero(1);
  opts.policy = SchedPolicy::kRandom;
  opts.seed = 3;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    for (int i = 0; i < 25; ++i) {
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 8 * 25);
}

TEST(SimWorld, PctPolicyCompletesAndPreservesSemantics) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 8);
  opts.latency = LatencyModel::zero(1);
  opts.policy = SchedPolicy::kPct;
  opts.seed = 5;
  opts.max_steps = 1'000'000;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    for (int i = 0; i < 25; ++i) {
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 8 * 25);
}

TEST(SimWorld, RandomSeedsProduceDifferentInterleavings) {
  const auto order_fingerprint = [](u64 seed) {
    SimOptions opts;
    opts.topology = topo::Topology::uniform({}, 6);
    opts.latency = LatencyModel::zero(1);
    opts.policy = SchedPolicy::kRandom;
    opts.seed = seed;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    u64 fingerprint = 0;
    world->run([&](RmaComm& comm) {
      for (int i = 0; i < 5; ++i) {
        const i64 ticket = comm.fao(1, 0, off, AccumOp::kSum);
        comm.flush(0);
        u64 h = fingerprint ^ (static_cast<u64>(ticket) * 31 +
                               static_cast<u64>(comm.rank()));
        fingerprint = splitmix64(h);
      }
    });
    return fingerprint;
  };
  // Not all seeds need to differ, but across 4 seeds at least two must.
  const u64 a = order_fingerprint(1);
  const u64 b = order_fingerprint(2);
  const u64 c = order_fingerprint(3);
  const u64 d = order_fingerprint(4);
  EXPECT_TRUE(a != b || a != c || a != d);
}

TEST(SimWorld, ScalesToThousandProcesses) {
  auto world = make_sim(topo::Topology::nodes(64, 16));  // P = 1024
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
    comm.barrier();
  });
  EXPECT_EQ(world->read_word(0, off), 1024);
}

TEST(SimWorld, MakespanEqualsSlowestProcess) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const auto res = world->run([&](RmaComm& comm) {
    comm.compute(1000 * (comm.rank() + 1));
  });
  EXPECT_EQ(res.makespan_ns, 3000);
}

}  // namespace
}  // namespace rmalock::rma

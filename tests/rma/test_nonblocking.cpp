// Nonblocking-op conformance: iput/iaccumulate/iget semantics must be
// identical on SimWorld and ThreadWorld, SimWorld's pipelined cost
// accounting must match the LatencyModel arithmetic exactly, and swapping
// get for iget must not change a single scheduling decision.
//
// The portable contract (comm.hpp): effects are applied atomically; they
// are guaranteed visible to other processes no later than the issuer's next
// flush(target); a flush between two nonblocking ops orders them; an iget's
// result is defined after the next flush(target). Cost (a SimWorld-only
// notion): issue charges the origin one injection slot (occupancy), flush
// charges max(completion + return trip) of the ops pending at the target.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "rma/latency_model.hpp"
#include "support/test_support.hpp"

namespace rmalock {
namespace {

// ---------------------------------------------------------------------------
// Cross-backend semantics (run identically on SimWorld and ThreadWorld)
// ---------------------------------------------------------------------------

/// rank 0 publishes two cells with nonblocking ops, flushes, then raises a
/// flag with a blocking put; every other rank spins on its own flag copy
/// and must then observe both nonblocking effects.
void check_visibility_at_flush(rma::World& world) {
  const WinOffset data = world.allocate(1);
  const WinOffset accum = world.allocate(1);
  const WinOffset flag = world.allocate(1);
  std::atomic<i64> wrong_data{0};
  std::atomic<i64> wrong_accum{0};

  const auto result = world.run([&](rma::RmaComm& comm) {
    const i32 p = comm.nprocs();
    if (comm.rank() == 0) {
      for (Rank r = 1; r < p; ++r) {
        comm.iput(42, r, data);
        comm.iaccumulate(5, r, accum, rma::AccumOp::kSum);
        comm.iaccumulate(2, r, accum, rma::AccumOp::kSum);
      }
      for (Rank r = 1; r < p; ++r) comm.flush(r);
      // Publication point: the flag is ordered after the flushed issues.
      for (Rank r = 1; r < p; ++r) {
        comm.put(1, r, flag);
        comm.flush(r);
      }
    } else {
      while (comm.get(comm.rank(), flag) != 1) {
        comm.flush(comm.rank());
      }
      const i64 d = comm.get(comm.rank(), data);
      const i64 a = comm.get(comm.rank(), accum);
      comm.flush(comm.rank());
      if (d != 42) wrong_data.fetch_add(1);
      if (a != 7) wrong_accum.fetch_add(1);
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(wrong_data.load(), 0);
  EXPECT_EQ(wrong_accum.load(), 0);
}

TEST(Nonblocking, VisibleAtFlushOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({2}, 2));
  check_visibility_at_flush(*world);
}

TEST(Nonblocking, VisibleAtFlushOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({2}, 2));
  check_visibility_at_flush(*world);
}

/// A flush between two nonblocking ops to one cell orders them: the second
/// value must win on both backends.
void check_flush_orders_same_cell(rma::World& world) {
  const WinOffset cell = world.allocate(1);
  const WinOffset flag = world.allocate(1);
  std::atomic<i64> wrong{0};
  const auto result = world.run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.iput(1, 1, cell);
      comm.flush(1);
      comm.iput(2, 1, cell);
      comm.flush(1);
      comm.put(1, 1, flag);
      comm.flush(1);
    } else if (comm.rank() == 1) {
      while (comm.get(1, flag) != 1) comm.flush(1);
      const i64 v = comm.get(1, cell);
      comm.flush(1);
      if (v != 2) wrong.fetch_add(1);
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Nonblocking, FlushOrdersSameCellOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  check_flush_orders_same_cell(*world);
}

TEST(Nonblocking, FlushOrdersSameCellOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({}, 2));
  check_flush_orders_same_cell(*world);
}

TEST(Nonblocking, EffectsApplyAtIssueInEngineOrderOnSimWorld) {
  // SimWorld applies nonblocking effects at issue (engine order): the
  // issuer itself reads them back immediately, before any flush.
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    comm.iput(9, 1, cell);
    const i64 v = comm.get(1, cell);
    comm.flush(1);
    EXPECT_EQ(v, 9);
  });
}

/// Every rank reads its right neighbour's cells with blocking gets and
/// with pipelined iget pairs; after the flush both must agree with the
/// values written before the run.
void check_iget_matches_get(rma::World& world) {
  const WinOffset cells = world.allocate(4);
  for (Rank r = 0; r < world.nprocs(); ++r) {
    for (WinOffset i = 0; i < 4; ++i) {
      world.write_word(r, cells + i, 100 * r + i);
    }
  }
  std::atomic<i64> wrong{0};
  const auto result = world.run([&](rma::RmaComm& comm) {
    const Rank peer = (comm.rank() + 1) % comm.nprocs();
    for (WinOffset i = 0; i < 4; i += 2) {
      const i64 a = comm.get(peer, cells + i);
      const i64 b = comm.get(peer, cells + i + 1);
      comm.flush(peer);
      i64 ia = -1;
      i64 ib = -1;
      comm.iget(peer, cells + i, &ia);
      comm.iget(peer, cells + i + 1, &ib);
      comm.flush(peer);
      if (ia != a || ib != b || a != 100 * peer + i || b != a + 1) {
        wrong.fetch_add(1);
      }
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Nonblocking, IgetMatchesGetOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({2}, 2));
  check_iget_matches_get(*world);
}

TEST(Nonblocking, IgetMatchesGetOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({2}, 2));
  check_iget_matches_get(*world);
}

/// A model-checking body whose reads are either blocking gets or iget
/// pairs: each rank reads two cells of its neighbour, flushes, and folds
/// them into its own cells, several times over.
void run_read_fold_body(rma::RmaComm& comm, WinOffset cells, bool use_iget) {
  const Rank peer = (comm.rank() + 1) % comm.nprocs();
  for (int round = 0; round < 4; ++round) {
    i64 a = 0;
    i64 b = 0;
    if (use_iget) {
      comm.iget(peer, cells, &a);
      comm.iget(peer, cells + 1, &b);
    } else {
      a = comm.get(peer, cells);
      b = comm.get(peer, cells + 1);
    }
    comm.flush(peer);
    comm.accumulate(a + 1, comm.rank(), cells, rma::AccumOp::kSum);
    comm.put(b * 3 + a + comm.rank(), comm.rank(), cells + 1);
    comm.flush(comm.rank());
  }
}

TEST(Nonblocking, IgetIsSchedulingNeutralUnderRandomPolicy) {
  // Same seed, same body shape: the iget variant must take every
  // scheduling decision the get variant takes and leave identical windows.
  struct Outcome {
    std::vector<Rank> picks;
    std::vector<i64> window;
  };
  const auto run_variant = [](bool use_iget) {
    rma::SimOptions opts;
    opts.topology = topo::Topology::uniform({2}, 2);
    opts.latency = rma::LatencyModel::xc30(opts.topology.num_levels());
    opts.policy = rma::SchedPolicy::kRandom;
    opts.seed = 77;
    opts.record_schedule = true;
    auto world = rma::SimWorld::create(std::move(opts));
    const WinOffset cells = world->allocate(2);
    const auto result = world->run([&](rma::RmaComm& comm) {
      run_read_fold_body(comm, cells, use_iget);
    });
    EXPECT_FALSE(result.deadlocked);
    Outcome out{result.schedule.picks, {}};
    for (Rank r = 0; r < world->nprocs(); ++r) {
      out.window.push_back(world->read_word(r, cells));
      out.window.push_back(world->read_word(r, cells + 1));
    }
    return out;
  };
  const Outcome blocking = run_variant(false);
  const Outcome pipelined = run_variant(true);
  ASSERT_FALSE(blocking.picks.empty());
  EXPECT_EQ(pipelined.picks, blocking.picks);
  EXPECT_EQ(pipelined.window, blocking.window);
}

// ---------------------------------------------------------------------------
// SimWorld cost accounting (pinned against the LatencyModel arithmetic)
// ---------------------------------------------------------------------------

/// Replicates SimWorld's nonblocking cost arithmetic for a burst of
/// remote atomic issues to distinct idle targets followed by per-target
/// flushes (the set_counters_to_write shape).
Nanos expected_pipelined_burst(const rma::LatencyModel& m,
                               const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  std::vector<Nanos> acks;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    const Nanos arrival = clock + cost / 2;  // departs at issue time
    clock += occ;  // origin injection slot (overlaps the wire time)
    const Nanos completion = arrival + occ;  // idle target NIC
    acks.push_back(completion + (cost - cost / 2));
  }
  for (const Nanos ack : acks) {
    clock += m.flush_ns;
    clock = std::max(clock, ack);
  }
  return clock;
}

/// The blocking (pre-pipelining) cost of the same burst: one full round
/// trip plus a flush per target.
Nanos expected_blocking_burst(const rma::LatencyModel& m,
                              const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    const Nanos completion = clock + cost / 2 + occ;
    clock = completion + (cost - cost / 2) + m.flush_ns;
  }
  return clock;
}

TEST(NonblockingCost, IssueChargesOneInjectionSlot) {
  // P=2 across two nodes: distance class 2 under the 2-level model.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    EXPECT_EQ(comm.now_ns() - t0, model.rma_occupancy_ns[2])
        << "issue must cost exactly the origin's injection slot";
    comm.flush(1);
    // Ack: request half + target occupancy + reply half — one occupancy
    // cheaper than it looks because the injection slot overlaps the wire.
    EXPECT_EQ(comm.now_ns() - t0,
              model.rma_ns[2] + model.rma_occupancy_ns[2])
        << "flush must charge the full pipelined round trip";
  });
}

TEST(NonblockingCost, BurstToDistinctTargetsIsOneRttPlusInjections) {
  // 9 single-process nodes: rank 0 broadcasts to 8 remote targets, all at
  // distance class 2 — the writer mode-switch shape.
  const topo::Topology topology = topo::Topology::uniform({9}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  const std::vector<i32> dclasses(8, 2);
  const Nanos expected = expected_pipelined_burst(model, dclasses);
  const Nanos blocking = expected_blocking_burst(model, dclasses);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    for (Rank r = 1; r <= 8; ++r) {
      comm.iaccumulate(1, r, cell, rma::AccumOp::kSum);
    }
    for (Rank r = 1; r <= 8; ++r) comm.flush(r);
    const Nanos elapsed = comm.now_ns() - t0;
    EXPECT_EQ(elapsed, expected) << "cost must match the model arithmetic";
    // The headline property: ~1 RTT + C injection slots, sublinear in C —
    // far below C round trips.
    const Nanos rtt = model.atomic_ns[2] + model.atomic_occupancy_ns[2];
    EXPECT_LE(elapsed, rtt + 9 * model.atomic_occupancy_ns[2] +
                           8 * model.flush_ns + 1);
    EXPECT_LT(elapsed * 3, blocking)
        << "pipelining must beat 8 serialized round trips by >3x";
  });
}

TEST(NonblockingCost, PendingOpsStillQueueInTheTargetNic) {
  // Two nonblocking issues to the *same* remote target serialize in its
  // NIC: the second completion is one occupancy later.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    comm.iput(2, 1, cell);
    comm.flush(1);
    const Nanos occ = model.rma_occupancy_ns[2];
    const Nanos cost = model.rma_ns[2];
    // First op departs at t0, completes at t0+cost/2+occ. The second
    // departs one injection slot later (t0+occ), arrives t0+occ+cost/2 —
    // exactly when the target NIC frees — and completes one occupancy
    // later; its ack adds the reply half.
    const Nanos expected = occ + cost / 2 + occ + (cost - cost / 2);
    EXPECT_EQ(comm.now_ns() - t0, std::max(model.flush_ns + 2 * occ,
                                           expected));
  });
}

TEST(NonblockingCost, IgetPairToOneTargetIsOneRttPlusTwoInjections) {
  // The chain-walk shape: read two words of one idle remote target, then
  // flush. The second get departs one injection slot after the first and
  // reaches the target NIC exactly when it frees, so the pair costs one
  // round trip plus two slots instead of two round trips.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cells = world->allocate(2);
  world->write_word(1, cells, 5);
  world->write_word(1, cells + 1, 6);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos cost = model.rma_ns[2];
    const Nanos occ = model.rma_occupancy_ns[2];
    Nanos t0 = comm.now_ns();
    i64 a = 0;
    i64 b = 0;
    comm.iget(1, cells, &a);
    comm.iget(1, cells + 1, &b);
    EXPECT_EQ(comm.now_ns() - t0, 2 * occ)
        << "each issue costs exactly the origin's injection slot";
    comm.flush(1);
    EXPECT_EQ(comm.now_ns() - t0, cost + 2 * occ);
    EXPECT_EQ(a, 5);
    EXPECT_EQ(b, 6);

    t0 = comm.now_ns();
    (void)comm.get(1, cells);
    (void)comm.get(1, cells + 1);
    comm.flush(1);
    EXPECT_EQ(comm.now_ns() - t0, 2 * (cost + occ) + model.flush_ns)
        << "the blocking pair pays two serialized round trips";
  });
}

TEST(NonblockingCost, SingleIgetCostsWhatItsGetCosts) {
  // One iget and its flush cost exactly the blocking get's round trip. To
  // a remote target the acknowledgement absorbs the flush's own cost, as
  // for iput; to self both modes charge the op at issue, so iget+flush and
  // get+flush are equal outright.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    for (const Rank target : {Rank{1}, Rank{0}}) {
      Nanos t0 = comm.now_ns();
      (void)comm.get(target, cell);
      const Nanos get_only = comm.now_ns() - t0;
      comm.flush(target);
      const Nanos get_flush = comm.now_ns() - t0;
      t0 = comm.now_ns();
      i64 v = -1;
      comm.iget(target, cell, &v);
      comm.flush(target);
      const Nanos iget_flush = comm.now_ns() - t0;
      EXPECT_EQ(v, 0);
      if (target == 1) {
        EXPECT_EQ(get_only, model.rma_ns[2] + model.rma_occupancy_ns[2]);
        EXPECT_EQ(iget_flush, get_only);
        EXPECT_EQ(iget_flush, get_flush - model.flush_ns);
      } else {
        EXPECT_EQ(iget_flush, get_flush);
      }
    }
  });
}

TEST(NonblockingCost, ZeroModelKeepsNonblockingNearFree) {
  // The MC configuration (zero latency) must stay well-ordered: issue
  // costs 0 (occupancy 0), flush costs 1.
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    comm.flush(1);
    EXPECT_LE(comm.now_ns() - t0, 2);
  });
}

}  // namespace
}  // namespace rmalock

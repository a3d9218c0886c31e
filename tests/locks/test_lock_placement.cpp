// Placement anchors: where the hierarchical locks put their state.
//
// DistributedTree, RMA-MCS and RMA-RW take a placement anchor a. Element e
// of level q is represented by the rank at offset a mod |e| inside e, the
// root tail therefore sits on a itself, and RMA-RW's counter g sits at
// offset a mod |group g| inside its T_DC group (docs/DESIGN.md §2.7).
// a = 0 must be exactly the paper's lowest-rank placement; LockSpace builds
// every slot at its own slot home, so the slots of one shard spread over
// the shard's node instead of queueing on one rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/monitor.hpp"
#include "support/test_support.hpp"

namespace rmalock {
namespace {

using locks::DistributedTree;

// The conformance matrix's shapes plus the paper's evaluation machine.
std::vector<topo::Topology> conformance_topologies() {
  return {topo::Topology::uniform({4}, 4), topo::Topology::uniform({2, 2}, 2),
          topo::Topology::uniform({1, 4}, 3),
          topo::Topology::uniform({16}, 16)};
}

/// Lowest rank of p's element at level q: the paper's representative.
Rank lowest_rank(const topo::Topology& t, Rank p, i32 q) {
  return t.element_of(p, q) * t.procs_per_element(q);
}

TEST(LockPlacement, AnchorZeroIsTheLowestRankPlacement) {
  for (const topo::Topology& t : conformance_topologies()) {
    SCOPED_TRACE(t.describe());
    auto world = test::make_sim(t);
    const DistributedTree tree(*world, /*anchor=*/0);
    const i32 n = t.num_levels();
    for (Rank p = 0; p < t.nprocs(); ++p) {
      for (i32 q = 1; q <= n; ++q) {
        EXPECT_EQ(tree.tail_host(p, q), lowest_rank(t, p, q));
        EXPECT_EQ(tree.node_host(p, q),
                  q == n ? p : lowest_rank(t, p, q + 1));
      }
    }
    for (const i32 tdc : {1, 3, t.procs_per_leaf(), t.nprocs()}) {
      locks::RmaRwParams params = locks::RmaRwParams::defaults(t);
      params.tdc = tdc;
      const locks::RmaRw lock(*world, params, /*anchor=*/0);
      for (Rank p = 0; p < t.nprocs(); ++p) {
        EXPECT_EQ(lock.counter_of(p), topo::Topology::counter_host(p, tdc));
      }
    }
  }
}

TEST(LockPlacement, AnchorPlacesRootTailAndEveryElementRepresentative) {
  // A 2-level and a 3-level machine.
  for (const topo::Topology& t : {topo::Topology::uniform({4}, 4),
                                  topo::Topology::uniform({2, 3}, 4)}) {
    SCOPED_TRACE(t.describe());
    auto world = test::make_sim(t);
    const i32 n = t.num_levels();
    for (Rank a = 0; a < t.nprocs(); ++a) {
      const DistributedTree tree(*world, a);
      const locks::RmaRw rw(*world, locks::RmaRwParams::defaults(t), a);
      const i32 tdc = rw.params().tdc;
      for (Rank p = 0; p < t.nprocs(); ++p) {
        EXPECT_EQ(tree.tail_host(p, 1), a);
        for (i32 q = 2; q <= n; ++q) {
          const Rank expect =
              lowest_rank(t, p, q) + a % t.procs_per_element(q);
          EXPECT_EQ(tree.tail_host(p, q), expect) << "p=" << p << " q=" << q;
          EXPECT_EQ(tree.node_host(p, q - 1), expect) << "p=" << p;
          EXPECT_EQ(rw.tree().tail_host(p, q), expect);
        }
        EXPECT_EQ(rw.counter_of(p), (p / tdc) * tdc + a % tdc);
      }
    }
  }
}

TEST(LockPlacement, SlotsOfAShardHaveDistinctRootTailsOnTheHomeNode) {
  const topo::Topology t = topo::Topology::uniform({16}, 16);
  auto world = test::make_sim(t);
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaRw;
  config.slots_per_shard = 16;
  lockspace::LockSpace space(*world, config);
  ASSERT_EQ(space.shards(), 16);
  // One key per slot of the grid.
  const std::vector<u64> keys =
      space.distinct_slot_keys(static_cast<i32>(space.total_slots()));
  std::vector<std::set<Rank>> tails(static_cast<usize>(space.shards()));
  for (const u64 key : keys) {
    const lockspace::LockRef ref = space.resolve(key);
    const auto* lock =
        dynamic_cast<const locks::RmaRw*>(space.slot_instance(key).rw);
    ASSERT_NE(lock, nullptr);
    const Rank tail = lock->tree().tail_host(0, 1);
    EXPECT_EQ(tail, space.slot_home(ref.shard, ref.slot));
    EXPECT_EQ(t.element_of(tail, 2), t.element_of(ref.home, 2))
        << "slot " << ref.slot << " of shard " << ref.shard
        << " left its home node";
    // The anchor's offset carries to every node's counter.
    for (const Rank host : lock->counter_hosts()) {
      EXPECT_EQ(host % 16, tail % 16);
    }
    tails[static_cast<usize>(ref.shard)].insert(tail);
  }
  for (i32 s = 0; s < space.shards(); ++s) {
    EXPECT_EQ(tails[static_cast<usize>(s)].size(), 16u) << "shard " << s;
  }
}

TEST(LockPlacement, RehomeMovesAnRmaMcsSlotTreeToTheNextLeaf) {
  const topo::Topology t = topo::Topology::uniform({4}, 4);
  auto world = test::make_sim(t);
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaMcs;
  config.slots_per_shard = 4;
  config.rehome_epochs = 1;
  lockspace::LockSpace space(*world, config);
  const u64 key = 5;
  const lockspace::LockRef ref = space.resolve(key);
  const auto* before =
      dynamic_cast<const locks::RmaMcs*>(space.slot_instance(key, 0).ex);
  ASSERT_NE(before, nullptr);
  const Rank old_tail = before->tree().tail_host(0, 1);

  bool moved = false;
  const rma::RunResult run = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      moved = space.rehome_shard(comm, ref.shard, 1'000'000);  // 1 v ms
    }
  });
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(moved);

  const auto* after =
      dynamic_cast<const locks::RmaMcs*>(space.slot_instance(key, 1).ex);
  ASSERT_NE(after, nullptr);
  const Rank new_tail = after->tree().tail_host(0, 1);
  EXPECT_EQ(new_tail, space.slot_home(ref.shard, ref.slot, /*plane=*/1));
  EXPECT_EQ(t.element_of(new_tail, 2), (t.element_of(old_tail, 2) + 1) % 4);
  EXPECT_EQ(new_tail % 4, old_tail % 4);
}

TEST(LockPlacement, CountersStayInRangeWhenTdcDoesNotDivideP) {
  // P = 12 with T_DC = 5: groups [0,5), [5,10) and the short [10,12).
  const topo::Topology t = topo::Topology::uniform({1, 4}, 3);
  auto world = test::make_sim(t);
  locks::RmaRwParams params = locks::RmaRwParams::defaults(t);
  params.tdc = 5;
  for (Rank a = 0; a < t.nprocs(); ++a) {
    const locks::RmaRw lock(*world, params, a);
    ASSERT_EQ(lock.counter_hosts().size(), 3u);
    for (Rank p = 0; p < t.nprocs(); ++p) {
      const Rank c = lock.counter_of(p);
      EXPECT_EQ(c / 5, p / 5) << "a=" << a << " p=" << p;
      EXPECT_LT(c, t.nprocs());
    }
  }
  const locks::RmaRw lock(*world, params, /*anchor=*/9);
  EXPECT_EQ(lock.counter_hosts(), (std::vector<Rank>{4, 9, 11}));
}

// Anchored locks keep their safety on both worlds: the non-dividing T_DC
// and a nonzero anchor move every tail, node and counter off rank 0.
void expect_anchored_locks_exclusive(rma::World& world) {
  const topo::Topology& t = world.topology();
  locks::RmaRwParams rw_params = locks::RmaRwParams::defaults(t);
  rw_params.tdc = 5;
  rw_params.locality.assign(static_cast<usize>(t.num_levels()), 2);
  rw_params.tr = 2;
  locks::RmaRw rw(world, rw_params, /*anchor=*/7);
  locks::RmaMcs mcs(world, locks::RmaMcsParams::defaults(t),
                    /*anchor=*/11);
  mc::AtomicCsMonitor rw_monitor;
  mc::AtomicCsMonitor mcs_monitor;
  const rma::RunResult run = world.run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 4; ++i) {
      if ((comm.rank() + i) % 3 == 0) {
        rw.acquire_write(comm);
        rw_monitor.enter_write();
        comm.compute(10);
        rw_monitor.exit_write();
        rw.release_write(comm);
      } else {
        rw.acquire_read(comm);
        rw_monitor.enter_read();
        comm.compute(10);
        rw_monitor.exit_read();
        rw.release_read(comm);
      }
      mcs.acquire(comm);
      mcs_monitor.enter();
      comm.compute(10);
      mcs_monitor.exit();
      mcs.release(comm);
    }
  });
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(rw_monitor.violations(), 0u);
  EXPECT_EQ(mcs_monitor.violations(), 0u);
  EXPECT_EQ(rw_monitor.entries(), 4u * static_cast<u64>(t.nprocs()));
  EXPECT_EQ(mcs_monitor.entries(), 4u * static_cast<u64>(t.nprocs()));
}

TEST(LockPlacement, AnchoredLocksStayExclusiveOnSimWorld) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({1, 4}, 3);
  opts.latency = rma::LatencyModel::zero(opts.topology.num_levels());
  opts.policy = rma::SchedPolicy::kRandom;
  opts.seed = 7;
  auto world = rma::SimWorld::create(std::move(opts));
  expect_anchored_locks_exclusive(*world);
}

TEST(LockPlacement, AnchoredLocksStayExclusiveOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({1, 4}, 3));
  expect_anchored_locks_exclusive(*world);
}

}  // namespace
}  // namespace rmalock

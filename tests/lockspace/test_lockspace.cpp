// LockSpace unit tests: the O(1) owner-computes directory, topology-aware
// shard homing, the exact per-slot window footprint of every backend, lazy
// vs eager instantiation (including mid-run first touch on both worlds),
// and per-shard accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"
#include "rma/thread_world.hpp"

namespace rmalock {
namespace {

rma::SimOptions sim_options(const topo::Topology& topology, u64 seed = 1) {
  rma::SimOptions opts;
  opts.topology = topology;
  opts.latency = rma::LatencyModel::zero(topology.num_levels());
  opts.seed = seed;
  return opts;
}

TEST(LockSpaceDirectory, ResolveIsInBoundsAndDeterministic) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 8;
  lockspace::LockSpace space(*world, config);
  ASSERT_EQ(space.shards(), 4);  // one per leaf by default
  for (u64 key = 0; key < 5000; ++key) {
    const lockspace::LockRef ref = space.resolve(key);
    EXPECT_GE(ref.shard, 0);
    EXPECT_LT(ref.shard, space.shards());
    EXPECT_GE(ref.slot, 0);
    EXPECT_LT(ref.slot, space.slots_per_shard());
    EXPECT_EQ(ref.home, space.home_of_shard(ref.shard));
    EXPECT_EQ(ref.global_slot,
              static_cast<u32>(ref.shard) * 8u + static_cast<u32>(ref.slot));
    const lockspace::LockRef again = space.resolve(key);
    EXPECT_EQ(again.shard, ref.shard);
    EXPECT_EQ(again.slot, ref.slot);
  }
}

TEST(LockSpaceDirectory, KeysSpreadOverAllShardsAndSlots) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 8;
  lockspace::LockSpace space(*world, config);
  std::set<u32> slots_seen;
  for (u64 key = 0; key < 4096; ++key) {
    slots_seen.insert(space.resolve(key).global_slot);
  }
  // 4096 hashed keys over 32 slots: every slot is hit with overwhelming
  // probability; a directory that ignored part of the hash would not cover.
  EXPECT_EQ(slots_seen.size(), space.total_slots());
}

TEST(LockSpaceDirectory, SaltChangesTheMapping) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig a;
  lockspace::LockSpaceConfig b;
  b.salt = 0x1234;
  lockspace::LockSpace space_a(*world, a);
  lockspace::LockSpace space_b(*world, b);
  i32 moved = 0;
  for (u64 key = 0; key < 256; ++key) {
    if (space_a.resolve(key).global_slot != space_b.resolve(key).global_slot) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(LockSpaceDirectory, HomesSpreadLeafMajorAcrossNodes) {
  // 4 nodes x 4 procs: shards 0..3 land on distinct leaves (their rep
  // ranks), shard 4 wraps to leaf 0's second rank.
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.shards = 6;
  lockspace::LockSpace space(*world, config);
  EXPECT_EQ(space.home_of_shard(0), 0);
  EXPECT_EQ(space.home_of_shard(1), 4);
  EXPECT_EQ(space.home_of_shard(2), 8);
  EXPECT_EQ(space.home_of_shard(3), 12);
  EXPECT_EQ(space.home_of_shard(4), 1);
  EXPECT_EQ(space.home_of_shard(5), 5);
}

TEST(LockSpaceFootprint, EveryBackendMatchesItsSlotWordsTable) {
  // Eager construction runs the exact-footprint CHECK in every slot; the
  // world-level arithmetic below pins the reservation itself.
  const topo::Topology topology = topo::Topology::uniform({2, 2}, 2);  // N=3
  for (const locks::Backend backend : locks::all_backends()) {
    auto world = rma::SimWorld::create(sim_options(topology));
    const usize before = world->window_words();
    lockspace::LockSpaceConfig config;
    config.shards = 2;
    config.slots_per_shard = 3;
    config.backend = backend;
    config.eager = true;
    lockspace::LockSpace space(*world, config);
    EXPECT_EQ(world->window_words() - before,
              6 * lockspace::LockSpace::slot_words(backend, topology))
        << locks::backend_name(backend);
    EXPECT_EQ(space.instantiated_slots(), 6u);
  }
}

TEST(LockSpaceLazy, SlotsInstantiateOnFirstTouchMidRun) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  EXPECT_EQ(space.instantiated_slots(), 0u);

  // Two keys on distinct slots, found by scanning the directory.
  u64 key_a = 0;
  u64 key_b = 1;
  while (space.resolve(key_b).global_slot == space.resolve(key_a).global_slot) {
    ++key_b;
  }
  world->run([&](rma::RmaComm& comm) {
    space.acquire(comm, key_a);
    space.release(comm, key_a);
    space.acquire(comm, key_a);  // same key: no new instantiation
    space.release(comm, key_a);
  });
  EXPECT_EQ(space.instantiated_slots(), 1u);
  world->run([&](rma::RmaComm& comm) {
    space.acquire(comm, key_b);
    space.release(comm, key_b);
  });
  EXPECT_EQ(space.instantiated_slots(), 2u);
}

TEST(LockSpaceLazy, ThreadWorldFirstTouchRaceIsSerialized) {
  rma::ThreadOptions opts;
  opts.topology = topo::Topology::uniform({2}, 4);  // 8 real threads
  auto world = rma::ThreadWorld::create(std::move(opts));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  // All threads hammer the same small key set concurrently: first touch
  // races on every slot, the shard mutex must serialize construction.
  const i32 acquires = 20;
  world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < acquires; ++i) {
      const u64 key = static_cast<u64>((comm.rank() + i) % 6);
      space.acquire(comm, key);
      space.release(comm, key);
    }
  });
  std::set<u32> distinct_slots;
  for (u64 key = 0; key < 6; ++key) {
    distinct_slots.insert(space.resolve(key).global_slot);
  }
  EXPECT_EQ(space.instantiated_slots(), distinct_slots.size());
  EXPECT_EQ(space.total_acquires(),
            static_cast<u64>(world->nprocs()) * acquires);
}

TEST(LockSpaceAccounting, PerShardCountersSplitReadsAndWrites) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  const u64 key = 7;
  const i32 shard = space.resolve(key).shard;
  world->run([&](rma::RmaComm& comm) {
    space.acquire_read(comm, key);
    space.release_read(comm, key);
    if (comm.rank() == 0) {
      space.acquire(comm, key);
      space.release(comm, key);
    }
  });
  EXPECT_EQ(space.shard_read_acquires(shard),
            static_cast<u64>(world->nprocs()));
  EXPECT_EQ(space.shard_write_acquires(shard), 1u);
  EXPECT_EQ(space.total_acquires(),
            static_cast<u64>(world->nprocs()) + 1u);
}

TEST(LockSpaceAccounting, OpStatsAttributeToTheTouchedShardOnly) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  config.track_op_stats = true;
  lockspace::LockSpace space(*world, config);
  const u64 key = 3;
  const i32 shard = space.resolve(key).shard;
  world->run([&](rma::RmaComm& comm) {
    space.acquire(comm, key);
    space.release(comm, key);
  });
  EXPECT_GT(space.shard_op_stats(shard).total_ops(), 0u);
  for (i32 s = 0; s < space.shards(); ++s) {
    if (s == shard) continue;
    EXPECT_EQ(space.shard_op_stats(s).total_ops(), 0u) << "shard " << s;
  }
}

TEST(LockSpaceModes, ExclusiveBackendServesSharedModeBySerializing) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaMcs;
  lockspace::LockSpace space(*world, config);
  EXPECT_FALSE(space.rw_capable());
  const u64 key = 11;
  world->run([&](rma::RmaComm& comm) {
    space.acquire_read(comm, key);
    space.release_read(comm, key);
  });
  const i32 shard = space.resolve(key).shard;
  EXPECT_EQ(space.shard_read_acquires(shard),
            static_cast<u64>(world->nprocs()));
}

TEST(LockSpaceModes, EveryBackendTakesAndReleasesKeys) {
  for (const locks::Backend backend : locks::all_backends()) {
    auto world =
        rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
    lockspace::LockSpaceConfig config;
    config.backend = backend;
    config.slots_per_shard = 2;
    lockspace::LockSpace space(*world, config);
    const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < 3; ++i) {
        const u64 key = static_cast<u64>((comm.rank() + i) % 5);
        space.acquire(comm, key);
        space.release(comm, key);
      }
    });
    EXPECT_TRUE(result.ok()) << locks::backend_name(backend);
    EXPECT_EQ(space.total_acquires(),
              static_cast<u64>(world->nprocs()) * 3u)
        << locks::backend_name(backend);
  }
}

TEST(LockSpaceDeathTest, UnderProvisionedArenaFailsAtConstruction) {
  // Regression for the former mid-run abort: a reservation smaller than
  // the backend's true footprint used to pass construction and then trip
  // the slot-arena overflow CHECK on the first lazy touch, deep inside a
  // run. The construction-time probe must reject it up front, naming the
  // exact budget.
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaMcs;
  config.words_per_slot_override = 1;  // RMA-MCS needs several words
  EXPECT_DEATH(lockspace::LockSpace(*world, config),
               "LockSpace arena under-provisioned");
}

// ---------------------------------------------------------------------------
// Versioned payloads and the optimistic read path
// ---------------------------------------------------------------------------

TEST(LockSpaceOptimistic, CapabilityFollowsPayloadWords) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig plain;
  lockspace::LockSpace no_payload(*world, plain);
  EXPECT_FALSE(no_payload.optimistic_capable());
  EXPECT_EQ(no_payload.payload_words(), 0);

  auto world2 =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig with_payload;
  with_payload.payload_words = 4;
  lockspace::LockSpace payload(*world2, with_payload);
  EXPECT_TRUE(payload.optimistic_capable());
  EXPECT_EQ(payload.payload_words(), 4);
}

TEST(LockSpaceOptimistic, PayloadRoundTripAndVersionParity) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 3;
  lockspace::LockSpace space(*world, config);
  const u64 key = 42;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    // A fresh slot starts at version 0 (even, quiescent) with a zero image.
    EXPECT_EQ(space.payload_version(comm, key), 0);
    if (comm.rank() == 0) {
      const i64 image[3] = {7, 8, 9};
      space.acquire(comm, key);
      space.write_payload(comm, key, image, 3);
      space.release(comm, key);
    }
    comm.barrier();
    // Every completed write session bumps the version by exactly 2 (odd
    // while mid-publication, back to even at rest).
    const i64 version = space.payload_version(comm, key);
    EXPECT_EQ(version, 2);
    EXPECT_EQ(version % 2, 0);
    i64 out[3] = {0, 0, 0};
    space.locked_read(comm, key, out, 3);
    EXPECT_EQ(out[0], 7);
    EXPECT_EQ(out[1], 8);
    EXPECT_EQ(out[2], 9);
  });
  EXPECT_TRUE(result.ok());
}

TEST(LockSpaceOptimistic, UncontendedOptimisticReadSucceedsFirstTry) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 2;
  lockspace::LockSpace space(*world, config);
  const u64 key = 5;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      const i64 image[2] = {11, 11};
      space.acquire(comm, key);
      space.write_payload(comm, key, image, 2);
      space.release(comm, key);
    }
    comm.barrier();
    i64 out[2] = {0, 0};
    const lockspace::LockSpace::OptimisticResult r =
        space.optimistic_read(comm, key, out, 2);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.fell_back);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(out[0], 11);
    EXPECT_EQ(out[1], 11);
  });
  EXPECT_TRUE(result.ok());
}

TEST(LockSpaceOptimistic, ContendedReadsAlwaysReturnConsistentImages) {
  // Writers publish all-words-equal images; whatever mix of validated
  // optimistic snapshots and read-lock fallbacks the schedule produces,
  // no returned image may ever mix two write sessions.
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 4)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 4;
  config.optimistic_retries = 1;
  lockspace::LockSpace space(*world, config);
  const u64 key = 3;
  u64 torn = 0;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    std::vector<i64> buf(4, 0);
    for (i32 i = 0; i < 20; ++i) {
      if (comm.rank() % 2 == 0) {
        const i64 gen = comm.rank() * 100 + i;
        std::fill(buf.begin(), buf.end(), gen);
        space.acquire(comm, key);
        space.write_payload(comm, key, buf.data(), 4);
        space.release(comm, key);
      } else {
        space.optimistic_read(comm, key, buf.data(), 4);
        for (i32 w = 1; w < 4; ++w) {
          if (buf[static_cast<usize>(w)] != buf[0]) ++torn;
        }
      }
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(torn, 0u);
}

TEST(LockSpaceRecovery, RecoverOrphansReclaimsOnlyTheOrphanedLease) {
  // A victim instantiates several named lease locks (so the sweep has
  // live-but-free slots it must skip), then dies holding one of them. A
  // survivor's administrative sweep reclaims exactly that lease, and the
  // orphaned name serves new claimants again.
  rma::SimOptions opts = sim_options(topo::Topology::uniform({2}, 2));
  opts.faults.max_crashes = 1;
  opts.faults.crash_chance_permille = 1000;  // the armed point fires for sure
  auto world = rma::SimWorld::create(opts);
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kLeaseMcs;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);

  const Rank victim = static_cast<Rank>(world->nprocs() - 1);
  constexpr u64 kOrphanKey = 3;
  u64 reclaimed = 0;
  u64 reclaimed_again = 0;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == victim) {
      for (u64 key = 0; key < 8; ++key) {
        space.acquire(comm, key);
        space.release(comm, key);
      }
      space.acquire(comm, kOrphanKey);
      comm.crash_point();  // dies holding the lease
      space.release(comm, kOrphanKey);
    } else if (comm.rank() == 0) {
      while (!comm.suspected(victim)) comm.compute(500);
      reclaimed = space.recover_orphans(comm);
      // The reclaimed name must be acquirable again; every other slot was
      // already free, so a second sweep finds nothing.
      space.acquire(comm, kOrphanKey);
      space.release(comm, kOrphanKey);
      reclaimed_again = space.recover_orphans(comm);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.injected[rma::FaultKind::kCrash], 1u);
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(reclaimed_again, 0u);
}

}  // namespace
}  // namespace rmalock

#include "dht/dht.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../support/test_support.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::dht {
namespace {

using test::make_sim;
using test::make_threads;

DhtConfig small_config() {
  DhtConfig config;
  config.table_buckets = 8;
  config.heap_entries = 64;
  return config;
}

TEST(Dht, InsertThenContains) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  DistributedHashTable table(*world, small_config());
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    EXPECT_EQ(table.insert_atomic(comm, 1, 42), InsertStatus::kInserted);
    EXPECT_TRUE(table.contains_atomic(comm, 1, 42));
    EXPECT_FALSE(table.contains_atomic(comm, 1, 43));
  });
}

TEST(Dht, VolumesAreIndependent) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  DistributedHashTable table(*world, small_config());
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    table.insert_atomic(comm, 0, 7);
    EXPECT_TRUE(table.contains_atomic(comm, 0, 7));
    EXPECT_FALSE(table.contains_atomic(comm, 1, 7));
  });
}

TEST(Dht, DuplicateBucketInsertReportsDuplicate) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DistributedHashTable table(*world, small_config());
  world->run([&](rma::RmaComm& comm) {
    EXPECT_EQ(table.insert_atomic(comm, 0, 5), InsertStatus::kInserted);
    EXPECT_EQ(table.insert_atomic(comm, 0, 5), InsertStatus::kDuplicate);
  });
  EXPECT_EQ(table.overflow_used(*world, 0), 0);
}

TEST(Dht, CollisionsGoToOverflowChain) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DhtConfig config;
  config.table_buckets = 1;  // everything collides
  config.heap_entries = 32;
  DistributedHashTable table(*world, config);
  world->run([&](rma::RmaComm& comm) {
    for (i64 v = 1; v <= 10; ++v) {
      EXPECT_EQ(table.insert_atomic(comm, 0, v), InsertStatus::kInserted);
    }
    for (i64 v = 1; v <= 10; ++v) {
      EXPECT_TRUE(table.contains_atomic(comm, 0, v)) << v;
    }
    EXPECT_FALSE(table.contains_atomic(comm, 0, 11));
  });
  EXPECT_EQ(table.overflow_used(*world, 0), 9);  // first went to the bucket
}

TEST(Dht, SnapshotReturnsAllValues) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DhtConfig config;
  config.table_buckets = 2;
  config.heap_entries = 32;
  DistributedHashTable table(*world, config);
  world->run([&](rma::RmaComm& comm) {
    for (i64 v = 1; v <= 12; ++v) table.insert_atomic(comm, 0, v);
  });
  auto snapshot = table.snapshot(*world, 0);
  std::sort(snapshot.begin(), snapshot.end());
  ASSERT_EQ(snapshot.size(), 12u);
  for (i64 v = 1; v <= 12; ++v) {
    EXPECT_EQ(snapshot[static_cast<usize>(v - 1)], v);
  }
}

TEST(Dht, ConcurrentDistinctInsertsAllSurvive) {
  auto world = make_sim(topo::Topology::nodes(2, 8));
  DhtConfig config;
  config.table_buckets = 4;  // heavy collisions across 16 writers
  config.heap_entries = 512;
  DistributedHashTable table(*world, config);
  constexpr i64 kPerRank = 20;
  world->run([&](rma::RmaComm& comm) {
    for (i64 i = 0; i < kPerRank; ++i) {
      table.insert_atomic(comm, 0, 1 + comm.rank() * kPerRank + i);
    }
  });
  auto snapshot = table.snapshot(*world, 0);
  std::sort(snapshot.begin(), snapshot.end());
  ASSERT_EQ(snapshot.size(), static_cast<usize>(16 * kPerRank))
      << "no insert may be lost";
  for (i64 v = 1; v <= 16 * kPerRank; ++v) {
    EXPECT_EQ(snapshot[static_cast<usize>(v - 1)], v);
  }
}

TEST(Dht, ConcurrentDistinctInsertsAllSurviveOnThreads) {
  auto world = make_threads(topo::Topology::uniform({}, 6));
  DhtConfig config;
  config.table_buckets = 4;
  config.heap_entries = 2048;
  DistributedHashTable table(*world, config);
  constexpr i64 kPerRank = 200;
  world->run([&](rma::RmaComm& comm) {
    for (i64 i = 0; i < kPerRank; ++i) {
      table.insert_atomic(comm, 0, 1 + comm.rank() * kPerRank + i);
    }
  });
  auto snapshot = table.snapshot(*world, 0);
  std::set<i64> unique(snapshot.begin(), snapshot.end());
  EXPECT_EQ(unique.size(), static_cast<usize>(6 * kPerRank));
}

TEST(Dht, ConcurrentSameValueRemainsFindable) {
  auto world = make_sim(topo::Topology::uniform({}, 8));
  DistributedHashTable table(*world, small_config());
  world->run([&](rma::RmaComm& comm) {
    table.insert_atomic(comm, 0, 99);
    comm.barrier();
    EXPECT_TRUE(table.contains_atomic(comm, 0, 99));
  });
}

TEST(Dht, LockedModeKeepsExactSetSemantics) {
  auto world = make_sim(topo::Topology::nodes(2, 4));
  DhtConfig config;
  config.table_buckets = 4;
  config.heap_entries = 256;
  DistributedHashTable table(*world, config);
  locks::RmaRw lock(*world);
  constexpr i64 kValues = 40;  // every rank inserts the same 40 values
  world->run([&](rma::RmaComm& comm) {
    for (i64 v = 1; v <= kValues; ++v) {
      lock.acquire_write(comm);
      table.insert_locked(comm, 0, v);
      lock.release_write(comm);
    }
    comm.barrier();
    for (i64 v = 1; v <= kValues; ++v) {
      lock.acquire_read(comm);
      EXPECT_TRUE(table.contains_locked(comm, 0, v));
      lock.release_read(comm);
    }
  });
  // Exact set: duplicates were filtered by the chain walk under the lock.
  auto snapshot = table.snapshot(*world, 0);
  std::sort(snapshot.begin(), snapshot.end());
  ASSERT_EQ(snapshot.size(), static_cast<usize>(kValues));
  for (i64 v = 1; v <= kValues; ++v) {
    EXPECT_EQ(snapshot[static_cast<usize>(v - 1)], v);
  }
}

TEST(Dht, MixedReadersAndWritersUnderLock) {
  auto world = make_sim(topo::Topology::nodes(2, 4));
  DistributedHashTable table(*world, small_config());
  locks::RmaRw lock(*world);
  i64 read_hits = 0;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() % 4 == 0) {  // writers
      for (i64 v = 0; v < 10; ++v) {
        lock.acquire_write(comm);
        table.insert_locked(comm, 0, 1 + comm.rank() * 100 + v);
        lock.release_write(comm);
      }
    } else {  // readers
      for (i64 i = 0; i < 10; ++i) {
        lock.acquire_read(comm);
        read_hits += table.contains_locked(comm, 0, 1) ? 1 : 0;
        lock.release_read(comm);
      }
    }
  });
  EXPECT_EQ(table.snapshot(*world, 0).size(), 20u);
  EXPECT_GE(read_hits, 0);
}

TEST(Dht, OwnerOfCoversAllRanks) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  DistributedHashTable table(*world, small_config());
  std::set<Rank> owners;
  for (i64 v = 0; v < 200; ++v) {
    const Rank owner = table.owner_of(v);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    owners.insert(owner);
  }
  EXPECT_EQ(owners.size(), 4u);  // a decent hash spreads over all volumes
}

TEST(Dht, BucketOfIsStable) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DistributedHashTable table(*world, small_config());
  for (i64 v = 0; v < 50; ++v) {
    const i64 bucket = table.bucket_of(v);
    EXPECT_GE(bucket, 0);
    EXPECT_LT(bucket, 8);
    EXPECT_EQ(bucket, table.bucket_of(v));
  }
}

TEST(DhtDeathTest, RejectsEmptySentinel) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DistributedHashTable table(*world, small_config());
  EXPECT_DEATH(world->run([&](rma::RmaComm& comm) {
                 table.insert_atomic(comm, 0, DistributedHashTable::kEmpty);
               }),
               "sentinel");
}

TEST(Dht, HeapExhaustionDropsWithStatusAtomic) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DhtConfig config;
  config.table_buckets = 1;  // everything collides into one chain
  config.heap_entries = 2;
  DistributedHashTable table(*world, config);
  world->run([&](rma::RmaComm& comm) {
    // v=1 takes the bucket slot, v=2..3 the two heap entries; everything
    // after that is dropped with kHeapFull instead of aborting the run.
    for (i64 v = 1; v <= 3; ++v) {
      EXPECT_EQ(table.insert_atomic(comm, 0, v), InsertStatus::kInserted) << v;
    }
    for (i64 v = 4; v <= 10; ++v) {
      EXPECT_EQ(table.insert_atomic(comm, 0, v), InsertStatus::kHeapFull) << v;
    }
    // Everything that reported kInserted stays findable; drops are absent.
    for (i64 v = 1; v <= 3; ++v) {
      EXPECT_TRUE(table.contains_atomic(comm, 0, v)) << v;
    }
    for (i64 v = 4; v <= 10; ++v) {
      EXPECT_FALSE(table.contains_atomic(comm, 0, v)) << v;
    }
  });
  // The atomic claim over-increments the cursor on every failed insert
  // (documented benign); the cursor never shrinks back to capacity.
  EXPECT_EQ(table.overflow_used(*world, 0), 2 + 7);
  EXPECT_EQ(table.snapshot(*world, 0).size(), 3u);
}

TEST(Dht, HeapExhaustionDropsWithStatusLocked) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  DhtConfig config;
  config.table_buckets = 1;
  config.heap_entries = 2;
  DistributedHashTable table(*world, config);
  world->run([&](rma::RmaComm& comm) {
    for (i64 v = 1; v <= 3; ++v) {
      EXPECT_EQ(table.insert_locked(comm, 0, v), InsertStatus::kInserted) << v;
    }
    for (i64 v = 4; v <= 10; ++v) {
      EXPECT_EQ(table.insert_locked(comm, 0, v), InsertStatus::kHeapFull) << v;
      // The drop path is read-only; without an intervening write or compute
      // the repeated identical reads look like a pure spin to SimWorld's
      // poll detector (real callers hold a lock, whose release writes).
      comm.compute(10);
    }
    // A duplicate of a stored value still reports kDuplicate, not kHeapFull:
    // the chain walk runs before the allocation attempt.
    EXPECT_EQ(table.insert_locked(comm, 0, 2), InsertStatus::kDuplicate);
    for (i64 v = 1; v <= 3; ++v) {
      EXPECT_TRUE(table.contains_locked(comm, 0, v)) << v;
      comm.compute(10);
    }
    EXPECT_FALSE(table.contains_locked(comm, 0, 4));
  });
  // The locked path checks capacity before writing: the cursor stays
  // exactly at capacity no matter how many inserts were dropped.
  EXPECT_EQ(table.overflow_used(*world, 0), 2);
  EXPECT_EQ(table.snapshot(*world, 0).size(), 3u);
}

TEST(Dht, LockedChainWalkCostsOneRoundTripPerEntry) {
  // An absent value in a bucket with a three-entry chain, looked up on an
  // idle remote owner: the bucket and head reads are blocking gets, then
  // each entry's value and next are an iget pair behind one flush, which
  // costs one round trip plus two injection slots (the blocking pair paid
  // two round trips and a flush).
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  DhtConfig config;
  config.table_buckets = 1;
  config.heap_entries = 8;
  DistributedHashTable table(*world, config);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    for (i64 v = 1; v <= 4; ++v) {
      ASSERT_EQ(table.insert_locked(comm, 1, v), InsertStatus::kInserted);
    }
    const Nanos cost = model.rma_ns[2];
    const Nanos occ = model.rma_occupancy_ns[2];
    const Nanos t0 = comm.now_ns();
    EXPECT_FALSE(table.contains_locked(comm, 1, 99));
    const Nanos head = 2 * (cost + occ + model.flush_ns);
    EXPECT_EQ(comm.now_ns() - t0, head + 3 * (cost + 2 * occ));
  });
  EXPECT_EQ(table.overflow_used(*world, 1), 3);
}

}  // namespace
}  // namespace rmalock::dht

// Differential property tests: random insert/contains sequences driven
// through the DHT's two protocols and checked, operation by operation,
// against an in-memory reference model, then validated structurally via
// snapshot()/overflow_used() — on SimWorld and ThreadWorld.
//
// The reference model mirrors the documented protocol semantics exactly:
//
//   * atomic mode is a *multiset* — insert_atomic only deduplicates against
//     the bucket slot (set fast path), so re-inserting a value that lives in
//     the overflow chain appends a duplicate and burns a heap slot;
//   * locked mode is an exact *set* — the chain walk under the lock filters
//     duplicates and returns false for them.
#include "dht/dht.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "../support/test_support.hpp"
#include "common/rng.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::dht {
namespace {

using test::make_sim;
using test::make_threads;

/// Reference model of one local volume.
struct VolumeModel {
  explicit VolumeModel(const DistributedHashTable& table) : table_(&table) {}

  /// Mirrors insert_atomic under a single mutator: returns what the real
  /// insert must return and tracks contents/overflow usage. The test
  /// configs over-provision the heap, so kHeapFull is unreachable here
  /// (exhaustion semantics are covered directly in test_dht.cpp).
  InsertStatus insert_atomic(i64 value) {
    const i64 bucket = table_->bucket_of(value);
    const auto slot = bucket_slot_.find(bucket);
    if (slot == bucket_slot_.end()) {
      bucket_slot_[bucket] = value;
      contents_.insert(value);
      return InsertStatus::kInserted;
    }
    if (slot->second == value) return InsertStatus::kDuplicate;  // fast path
    contents_.insert(value);  // chained: duplicates allowed
    ++overflow_used_;
    return InsertStatus::kInserted;
  }

  /// Mirrors insert_locked: exact set semantics.
  InsertStatus insert_locked(i64 value) {
    const i64 bucket = table_->bucket_of(value);
    const auto slot = bucket_slot_.find(bucket);
    if (slot == bucket_slot_.end()) {
      bucket_slot_[bucket] = value;
      contents_.insert(value);
      return InsertStatus::kInserted;
    }
    if (contents_.count(value) > 0) return InsertStatus::kDuplicate;
    contents_.insert(value);
    ++overflow_used_;
    return InsertStatus::kInserted;
  }

  [[nodiscard]] bool contains(i64 value) const {
    return contents_.count(value) > 0;
  }
  [[nodiscard]] i64 overflow_used() const { return overflow_used_; }
  [[nodiscard]] std::vector<i64> sorted_contents() const {
    return {contents_.begin(), contents_.end()};
  }

 private:
  const DistributedHashTable* table_;
  std::map<i64, i64> bucket_slot_;  // bucket index -> slot value
  std::multiset<i64> contents_;     // every stored value, duplicates included
  i64 overflow_used_ = 0;
};

DhtConfig tight_config() {
  DhtConfig config;
  config.table_buckets = 4;  // heavy collisions on a small value range
  config.heap_entries = 2048;
  return config;
}

void check_volumes_against_models(const DistributedHashTable& table,
                                  const rma::World& world,
                                  const std::vector<VolumeModel>& models) {
  for (Rank owner = 0; owner < world.nprocs(); ++owner) {
    const auto& model = models[static_cast<usize>(owner)];
    std::vector<i64> actual = table.snapshot(world, owner);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, model.sorted_contents()) << "volume " << owner;
    EXPECT_EQ(table.overflow_used(world, owner), model.overflow_used())
        << "volume " << owner;
  }
}

/// Overwrites the overflow heap of a table just constructed on `world`
/// (the constructor's last allocation) on every rank with what a protocol
/// reading an unlinked entry would trip over: values from the tests'
/// range, and next links chaining the whole heap (finite, so such a read
/// returns a wrong answer rather than hanging).
void poison_heap(rma::World& world, const DhtConfig& config) {
  const WinOffset heap = static_cast<WinOffset>(world.window_words()) -
                         2 * static_cast<WinOffset>(config.heap_entries);
  for (Rank r = 0; r < world.nprocs(); ++r) {
    for (i64 h = 0; h < config.heap_entries; ++h) {
      world.write_word(r, heap + 2 * h, 1 + h % 24);
      world.write_word(r, heap + 2 * h + 1,
                       h + 1 < config.heap_entries ? h + 1 : kNilRank);
    }
  }
}

/// One mutator drives insert_atomic/contains_atomic against the model.
void run_atomic_sequential(bool poisoned_heap) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  DistributedHashTable table(*world, tight_config());
  if (poisoned_heap) poison_heap(*world, table.config());
  std::vector<VolumeModel> models(3, VolumeModel(table));
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;  // single mutator: model order == op order
    Xoshiro256 rng(42);
    for (i32 op = 0; op < 400; ++op) {
      const auto owner = static_cast<Rank>(rng.below(3));
      const i64 value = rng.range(1, 24);  // small range: collisions + dups
      auto& model = models[static_cast<usize>(owner)];
      if (rng.chance(2, 3)) {
        EXPECT_EQ(table.insert_atomic(comm, owner, value),
                  model.insert_atomic(value))
            << "op " << op << " insert " << value << "@" << owner;
      } else {
        EXPECT_EQ(table.contains_atomic(comm, owner, value),
                  model.contains(value))
            << "op " << op << " contains " << value << "@" << owner;
      }
    }
  });
  check_volumes_against_models(table, *world, models);
}

/// One mutator drives insert_locked/contains_locked under RMA-RW against
/// the model.
void run_locked_sequential(bool poisoned_heap) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  DistributedHashTable table(*world, tight_config());
  if (poisoned_heap) poison_heap(*world, table.config());
  locks::RmaRw lock(*world);
  std::vector<VolumeModel> models(3, VolumeModel(table));
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    Xoshiro256 rng(43);
    for (i32 op = 0; op < 400; ++op) {
      const auto owner = static_cast<Rank>(rng.below(3));
      const i64 value = rng.range(1, 24);
      auto& model = models[static_cast<usize>(owner)];
      if (rng.chance(2, 3)) {
        lock.acquire_write(comm);
        EXPECT_EQ(table.insert_locked(comm, owner, value),
                  model.insert_locked(value))
            << "op " << op << " insert " << value << "@" << owner;
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        EXPECT_EQ(table.contains_locked(comm, owner, value),
                  model.contains(value))
            << "op " << op << " contains " << value << "@" << owner;
        lock.release_read(comm);
      }
    }
  });
  check_volumes_against_models(table, *world, models);
}

TEST(DhtDifferential, AtomicSequentialMatchesModel) {
  run_atomic_sequential(/*poisoned_heap=*/false);
}

TEST(DhtDifferential, LockedSequentialMatchesModel) {
  run_locked_sequential(/*poisoned_heap=*/false);
}

// The constructor leaves heap entries unwritten: no protocol may read an
// entry before linking it, so garbage there must change no result.
TEST(DhtDifferential, AtomicSequentialIgnoresUnlinkedHeapWords) {
  run_atomic_sequential(/*poisoned_heap=*/true);
}

TEST(DhtDifferential, LockedSequentialIgnoresUnlinkedHeapWords) {
  run_locked_sequential(/*poisoned_heap=*/true);
}

/// Concurrent differential check: every rank inserts a disjoint random
/// value stream (insert order across ranks does not matter for the final
/// state), then the union must equal the reference set exactly.
template <typename WorldPtr>
void run_concurrent_locked_differential(WorldPtr& world, u64 seed) {
  const i32 p = world->nprocs();
  DistributedHashTable table(*world, tight_config());
  locks::RmaRw lock(*world);
  constexpr i32 kOpsPerRank = 60;
  world->run([&](rma::RmaComm& comm) {
    Xoshiro256 rng(mix_seed(seed, static_cast<u64>(comm.rank())));
    for (i32 op = 0; op < kOpsPerRank; ++op) {
      // Disjoint per-rank ranges; duplicates within a rank exercised too.
      const i64 value = 1000 * (comm.rank() + 1) + rng.range(0, 39);
      const Rank owner = table.owner_of(value);
      lock.acquire_write(comm);
      table.insert_locked(comm, owner, value);
      lock.release_write(comm);
      if (op % 4 == 3) {
        lock.acquire_read(comm);
        EXPECT_TRUE(table.contains_locked(comm, owner, value));
        lock.release_read(comm);
      }
    }
  });
  // Reference: replay the per-rank streams into plain sets.
  std::vector<std::set<i64>> expected(static_cast<usize>(p));
  for (Rank r = 0; r < p; ++r) {
    Xoshiro256 rng(mix_seed(seed, static_cast<u64>(r)));
    for (i32 op = 0; op < kOpsPerRank; ++op) {
      const i64 value = 1000 * (r + 1) + rng.range(0, 39);
      expected[static_cast<usize>(table.owner_of(value))].insert(value);
    }
  }
  for (Rank owner = 0; owner < p; ++owner) {
    std::vector<i64> actual = table.snapshot(*world, owner);
    std::sort(actual.begin(), actual.end());
    const auto& model = expected[static_cast<usize>(owner)];
    EXPECT_EQ(actual, std::vector<i64>(model.begin(), model.end()))
        << "volume " << owner;
    // Exact set semantics: overflow usage is contents minus occupied buckets.
    EXPECT_LE(table.overflow_used(*world, owner),
              static_cast<i64>(model.size()));
  }
}

TEST(DhtDifferential, ConcurrentLockedOnSimWorld) {
  auto world = make_sim(topo::Topology::nodes(2, 3), /*seed=*/9);
  run_concurrent_locked_differential(world, 9);
}

TEST(DhtDifferential, ConcurrentLockedOnThreadWorld) {
  auto world = make_threads(topo::Topology::uniform({}, 4), /*seed=*/10);
  run_concurrent_locked_differential(world, 10);
}

TEST(DhtDifferential, ConcurrentAtomicDisjointOnBothWorlds) {
  // Atomic mode with globally distinct values: no duplicates are possible,
  // so the final state must be the exact union on either backend.
  const auto drive = [](rma::World& world) {
    DistributedHashTable table(world, tight_config());
    const i32 p = world.nprocs();
    constexpr i64 kPerRank = 50;
    world.run([&](rma::RmaComm& comm) {
      for (i64 i = 0; i < kPerRank; ++i) {
        const i64 value = 1 + comm.rank() * kPerRank + i;
        table.insert_atomic(comm, table.owner_of(value), value);
      }
    });
    std::multiset<i64> all;
    for (Rank owner = 0; owner < p; ++owner) {
      const auto snap = table.snapshot(world, owner);
      all.insert(snap.begin(), snap.end());
    }
    ASSERT_EQ(all.size(), static_cast<usize>(p) * kPerRank);
    i64 expected = 1;
    for (const i64 v : all) EXPECT_EQ(v, expected++);
  };
  auto sim = make_sim(topo::Topology::uniform({}, 4), 11);
  drive(*sim);
  auto threads = make_threads(topo::Topology::uniform({}, 4), 11);
  drive(*threads);
}

}  // namespace
}  // namespace rmalock::dht

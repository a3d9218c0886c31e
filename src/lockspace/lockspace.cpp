#include "lockspace/lockspace.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/check.hpp"
#include "locks/lease.hpp"

namespace rmalock::lockspace {

namespace {

/// A bump sub-allocator over a pre-reserved window range of a parent
/// World. Lock constructors only ever allocate() and write initial words;
/// both are legal against the parent even while run() is in flight (the
/// backing windows were grown when LockSpace reserved the arena), which is
/// what makes lazy slot construction possible. run() is forbidden.
class SlotArena final : public rma::World {
 public:
  SlotArena(rma::World& parent, WinOffset base, usize words)
      : World(parent.topology()),
        parent_(parent),
        limit_(static_cast<usize>(base) + words) {
    allocated_words_ = static_cast<usize>(base);
  }

  rma::RunResult run(const std::function<void(rma::RmaComm&)>&) override {
    RMALOCK_CHECK_MSG(false, "SlotArena cannot run SPMD bodies");
    return {};
  }

  [[nodiscard]] i64 read_word(Rank rank, WinOffset offset) const override {
    return parent_.read_word(rank, offset);
  }
  void write_word(Rank rank, WinOffset offset, i64 value) override {
    // Lock constructors initialize their words through write_word; route
    // them to the parent's init path, which stays legal mid-run for the
    // never-yet-accessed cells of a freshly carved slot.
    parent_.init_word(rank, offset, value);
  }
  [[nodiscard]] rma::OpStats aggregate_stats() const override {
    return parent_.aggregate_stats();
  }

 protected:
  void grow_windows(usize words) override {
    RMALOCK_CHECK_MSG(words <= limit_,
                      "slot arena overflow: backend needs " << words
                          << " words but the slot reserves up to " << limit_
                          << " — update LockSpace::slot_words");
  }

 private:
  rma::World& parent_;
  usize limit_;
};

/// A window-less World that only counts allocations: constructing a backend
/// against it measures the true per-instance footprint without touching the
/// real world. Lock constructors only allocate() and write initial words,
/// both of which this absorbs locally.
class MeasureWorld final : public rma::World {
 public:
  explicit MeasureWorld(const topo::Topology& topo) : World(topo) {}

  rma::RunResult run(const std::function<void(rma::RmaComm&)>&) override {
    RMALOCK_CHECK_MSG(false, "MeasureWorld cannot run SPMD bodies");
    return {};
  }
  [[nodiscard]] i64 read_word(Rank, WinOffset) const override { return 0; }
  void write_word(Rank, WinOffset, i64) override {}
  [[nodiscard]] rma::OpStats aggregate_stats() const override { return {}; }

 protected:
  void grow_windows(usize) override {}
};

}  // namespace

usize LockSpace::slot_words(locks::Backend backend,
                            const topo::Topology& topo) {
  const usize n = static_cast<usize>(topo.num_levels());
  switch (backend) {
    case locks::Backend::kFompiSpin:
    case locks::Backend::kFompiRw:
      return 1;  // one lock word on the home rank
    case locks::Backend::kDMcs:
      return 3;  // NEXT + WAIT per process, TAIL on the home rank
    case locks::Backend::kDTree:
    case locks::Backend::kRmaMcs:
      return 3 * n;  // DistributedTree: NEXT/STATUS/TAIL per level
    case locks::Backend::kRmaRw:
      return 3 * n + 2;  // tree + ARRIVE/DEPART counter words
    case locks::Backend::kLeaseMcs:
      return 3 * n + 1;  // inner RMA-MCS + the lease word
    case locks::Backend::kLeaseRw:
      return 3 * n + 3;  // inner RMA-RW + the lease word
  }
  return 0;
}

LockSpace::LockSpace(rma::World& world, LockSpaceConfig config)
    : world_(world), config_(config) {
  const topo::Topology& topo = world.topology();
  num_shards_ = config_.shards > 0
                    ? config_.shards
                    : topo.num_elements(topo.num_levels());
  RMALOCK_CHECK_MSG(num_shards_ >= 1, "LockSpace needs >= 1 shard");
  RMALOCK_CHECK_MSG(config_.slots_per_shard >= 1,
                    "LockSpace needs >= 1 slot per shard");
  words_per_slot_ = config_.words_per_slot_override > 0
                        ? config_.words_per_slot_override
                        : slot_words(config_.backend, topo);
  RMALOCK_CHECK(words_per_slot_ > 0);
  RMALOCK_CHECK_MSG(config_.rehome_epochs >= 0 && config_.quarantine_after >= 0,
                    "LockSpace health knobs must be non-negative");
  RMALOCK_CHECK_MSG(config_.rehome_epochs == 0 || !rw_capable(),
                    "re-homing supports exclusive backends only (the "
                    "migration fence covers one grant path)");

  // Probe the backend's true footprint now, against a measuring world, so
  // an under-provisioned reservation fails here — with the full budget in
  // the message — instead of mid-run when a lazy first touch overruns its
  // arena range.
  {
    MeasureWorld probe(topo);
    if (rw_capable()) {
      (void)locks::make_rw(config_.backend, probe, /*home=*/0);
    } else {
      (void)locks::make_exclusive(config_.backend, probe, /*home=*/0);
    }
    backend_words_ = probe.window_words();
  }
  RMALOCK_CHECK_MSG(
      backend_words_ <= words_per_slot_,
      "LockSpace arena under-provisioned: backend "
          << locks::backend_name(config_.backend) << " needs "
          << backend_words_ << " words per slot under this topology, but "
          << "the space reserves only " << words_per_slot_
          << " words for each of " << num_shards_ << " shards x "
          << config_.slots_per_shard << " slots ("
          << words_per_slot_ * static_cast<usize>(total_slots())
          << " words total) — "
          << (config_.words_per_slot_override > 0
                  ? "raise words_per_slot_override"
                  : "update LockSpace::slot_words"));
  RMALOCK_CHECK_MSG(
      config_.words_per_slot_override > 0 ||
          backend_words_ == words_per_slot_,
      "slot_words over-reports backend "
          << locks::backend_name(config_.backend) << ": table says "
          << words_per_slot_ << " words but an instance allocates "
          << backend_words_ << " — the grid would waste "
          << (words_per_slot_ - backend_words_) *
                 static_cast<usize>(total_slots())
          << " words across " << total_slots() << " slots");

  // One contiguous reservation for the whole grid — times planes() when
  // re-homing pre-reserves migration successors. Slot (plane p, gs)'s range
  // starts at base + (p * total_slots + gs) * words_per_slot_, so lazy
  // construction never grows windows, even for a plane first touched
  // mid-run by a migration.
  const WinOffset base = world.allocate(words_per_slot_ *
                                        static_cast<usize>(total_slots()) *
                                        static_cast<usize>(planes()));

  // Leaf-major spread: consecutive shards land on distinct leaves first
  // (balancing per-NIC lock-word traffic across nodes), then cycle through
  // the ranks inside each leaf.
  const i32 leaves = topo.num_elements(topo.num_levels());
  const i32 ppl = topo.procs_per_leaf();
  shards_.reserve(static_cast<usize>(num_shards_));
  for (i32 s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    const i32 leaf = s % leaves;
    const i32 index_in_leaf = (s / leaves) % ppl;
    shard->home = leaf * ppl + index_in_leaf;
    shards_.push_back(std::move(shard));
  }

  slots_ = std::vector<Slot>(static_cast<usize>(total_slots()) *
                             static_cast<usize>(planes()));
  for (i32 plane = 0; plane < planes(); ++plane) {
    for (u32 gs = 0; gs < total_slots(); ++gs) {
      slots_[slot_index(plane, gs)].arena_base =
          base + static_cast<WinOffset>(slot_index(plane, gs) *
                                        words_per_slot_);
    }
  }

  // Per-shard migration control words, hosted on rank 0 (the directory
  // keeper): (epoch << 1) | migrating, starting quiescent at epoch 0.
  if (rehoming()) {
    rehome_ctl_base_ = world.allocate(static_cast<usize>(num_shards_));
    for (i32 s = 0; s < num_shards_; ++s) {
      world.write_word(0, ctl_offset(s), 0);
    }
    holds_.resize(static_cast<usize>(world.nprocs()));
  }

  // Versioned-payload arena: reserved separately from the lock arena so
  // backend footprints (and the probe CHECKs above) are unaffected. Fresh
  // window words are zero, so every version starts even-quiescent.
  if (config_.payload_words > 0) {
    payload_stride_ = 1 + static_cast<usize>(config_.payload_words);
    payload_base_ = world.allocate(payload_stride_ *
                                   static_cast<usize>(total_slots()));
  }

  if (config_.eager) {
    // Eager builds the original placement; migration planes stay lazy —
    // they only materialize if a rehome ever reaches them.
    for (u32 gs = 0; gs < total_slots(); ++gs) {
      instantiate_slot(static_cast<i32>(gs) / config_.slots_per_shard, gs,
                       /*plane=*/0);
    }
  }
}

LockRef LockSpace::resolve(u64 key) const {
  // Two independent SplitMix64 draws decorrelate the shard choice from the
  // slot choice (a single draw's low bits would make slot collide whenever
  // shard does).
  u64 state = key ^ config_.salt;
  const u64 h_shard = splitmix64(state);
  const u64 h_slot = splitmix64(state);
  LockRef ref;
  ref.shard = static_cast<i32>(h_shard % static_cast<u64>(num_shards_));
  ref.slot =
      static_cast<i32>(h_slot % static_cast<u64>(config_.slots_per_shard));
  ref.home = shards_[static_cast<usize>(ref.shard)]->home;
  ref.global_slot = static_cast<u32>(ref.shard) *
                        static_cast<u32>(config_.slots_per_shard) +
                    static_cast<u32>(ref.slot);
  return ref;
}

Rank LockSpace::home_of_shard(i32 shard) const {
  return shards_[static_cast<usize>(shard)]->home;
}

Rank LockSpace::home_of_shard_at(i32 shard, i32 plane) const {
  RMALOCK_CHECK(plane >= 0 && plane < planes());
  // Same leaf-major spread as construction, with the leaf rotated by the
  // migration epoch: each rehome moves the shard to the next leaf, which
  // is by construction a different node whenever the machine has more
  // than one.
  const topo::Topology& topo = world_.topology();
  const i32 leaves = topo.num_elements(topo.num_levels());
  const i32 ppl = topo.procs_per_leaf();
  const i32 leaf = (shard % leaves + plane) % leaves;
  const i32 index_in_leaf = (shard / leaves) % ppl;
  return leaf * ppl + index_in_leaf;
}

Rank LockSpace::slot_home(i32 shard, i32 slot, i32 plane) const {
  const i32 ppl = world_.topology().procs_per_leaf();
  const Rank home = home_of_shard_at(shard, plane);
  return home - home % ppl + (home % ppl + slot) % ppl;
}

std::vector<u64> LockSpace::distinct_slot_keys(i32 count) const {
  RMALOCK_CHECK_MSG(static_cast<u32>(count) <= total_slots(),
                    "cannot pick " << count << " cross-slot keys from "
                                   << total_slots() << " slots");
  std::vector<u64> keys;
  std::vector<u32> slots;
  for (u64 key = 0; static_cast<i32>(keys.size()) < count; ++key) {
    const u32 slot = resolve(key).global_slot;
    if (std::find(slots.begin(), slots.end(), slot) != slots.end()) continue;
    keys.push_back(key);
    slots.push_back(slot);
  }
  return keys;
}

void LockSpace::instantiate_slot(i32 shard_index, u32 global_slot,
                                 i32 plane) {
  Slot& slot = slots_[slot_index(plane, global_slot)];
  const Rank home = slot_home(
      shard_index,
      static_cast<i32>(global_slot %
                       static_cast<u32>(config_.slots_per_shard)),
      plane);
  SlotArena arena(world_, slot.arena_base, words_per_slot_);
  if (rw_capable()) {
    slot.rw = locks::make_rw(config_.backend, arena, home);
  } else {
    slot.ex = locks::make_exclusive(config_.backend, arena, home);
    slot.lease = dynamic_cast<locks::LeaseExclusive*>(slot.ex.get());
  }
  // Consistency check against the construction-time probe: every instance
  // of one backend must allocate identically (footprint depends only on
  // the topology), or the arena ranges would drift.
  RMALOCK_CHECK_MSG(
      arena.window_words() ==
          static_cast<usize>(slot.arena_base) + backend_words_,
      "backend " << locks::backend_name(config_.backend)
                 << " allocated a different footprint than the probe "
                    "instance measured at construction");
  instantiated_.fetch_add(1, std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
}

LockSpace::Slot& LockSpace::ensure_slot(const LockRef& ref, i32 plane) {
  Slot& slot = slots_[slot_index(plane, ref.global_slot)];
  if (slot.ready.load(std::memory_order_acquire)) return slot;
  Shard& shard = *shards_[static_cast<usize>(ref.shard)];
  const std::lock_guard<std::mutex> guard(shard.init_mutex);
  if (!slot.ready.load(std::memory_order_relaxed)) {
    instantiate_slot(ref.shard, ref.global_slot, plane);
  }
  return slot;
}

LockSpace::SlotInstance LockSpace::slot_instance(u64 key, i32 plane) {
  RMALOCK_CHECK(plane >= 0 && plane < planes());
  const Slot& slot = ensure_slot(resolve(key), plane);
  return SlotInstance{slot.rw.get(), slot.ex.get()};
}

template <typename Fn>
void LockSpace::with_shard_stats(rma::RmaComm& comm, i32 shard_index,
                                 Fn&& fn) {
  if (!config_.track_op_stats) {
    fn();
    return;
  }
  rma::OpStats delta = comm.stats();  // snapshot "before" (subtracted below)
  fn();
  rma::OpStats after = comm.stats();
  after -= delta;
  Shard& shard = *shards_[static_cast<usize>(shard_index)];
  const std::lock_guard<std::mutex> guard(shard.stats_mutex);
  shard.op_stats += after;
}

i64 LockSpace::read_ctl(rma::RmaComm& comm, i32 shard) const {
  const i64 ctl = comm.get(0, ctl_offset(shard));
  comm.flush(0);
  return ctl;
}

void LockSpace::backend_release(Slot& slot, rma::RmaComm& comm) {
  if (slot.rw != nullptr) {
    slot.rw->release_write(comm);
  } else {
    slot.ex->release(comm);
  }
}

void LockSpace::record_timeout(i32 shard_index) {
  Shard& shard = *shards_[static_cast<usize>(shard_index)];
  shard.timeouts.fetch_add(1, std::memory_order_relaxed);
  const i32 consec =
      shard.consec_timeouts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.quarantine_after > 0 && consec >= config_.quarantine_after) {
    shard.quarantined.store(true, std::memory_order_release);
  }
}

void LockSpace::record_success(i32 shard_index) {
  shards_[static_cast<usize>(shard_index)]->consec_timeouts.store(
      0, std::memory_order_relaxed);
}

LockSpace::Slot& LockSpace::rehomed_blocking_acquire(rma::RmaComm& comm,
                                                     const LockRef& ref) {
  for (;;) {
    const i64 ctl = read_ctl(comm, ref.shard);
    if ((ctl & 1) != 0) {
      // Migration in flight: wait it out. The drain is deadline-bounded,
      // so this resolves in bounded virtual time.
      comm.compute(200);
      continue;
    }
    const i32 plane = static_cast<i32>(ctl >> 1);
    Slot& slot = ensure_slot(ref, plane);
    with_shard_stats(comm, ref.shard, [&] { slot.ex->acquire(comm); });
    if (!config_.rehome_skip_fence) {
      // The migration fence: between our directory read and our grant the
      // shard may have been re-homed — in which case the plane we hold was
      // drained and abandoned, and the real lock now lives elsewhere.
      // Re-validate the control word before claiming the CS; on any change
      // release the stale plane and chase the new one.
      if (read_ctl(comm, ref.shard) != ctl) {
        backend_release(slot, comm);
        continue;
      }
    }
    holds_[static_cast<usize>(comm.rank())].push_back(
        {ref.global_slot, plane});
    return slot;
  }
}

void LockSpace::acquire(rma::RmaComm& comm, u64 key) {
  const LockRef ref = resolve(key);
  if (rehoming()) {
    (void)rehomed_blocking_acquire(comm, ref);
  } else {
    Slot& slot = ensure_slot(ref, /*plane=*/0);
    with_shard_stats(comm, ref.shard, [&] {
      if (slot.rw != nullptr) {
        slot.rw->acquire_write(comm);
      } else {
        slot.ex->acquire(comm);
      }
    });
  }
  shards_[static_cast<usize>(ref.shard)]->write_acquires.fetch_add(
      1, std::memory_order_relaxed);
}

void LockSpace::release(rma::RmaComm& comm, u64 key) {
  const LockRef ref = resolve(key);
  i32 plane = 0;
  if (rehoming()) {
    // Pop the grant's plane: the most recent live hold of this physical
    // slot by this rank (nested distinct keys unwind LIFO).
    auto& stack = holds_[static_cast<usize>(comm.rank())];
    auto it = stack.rbegin();
    for (; it != stack.rend(); ++it) {
      if (it->first == ref.global_slot) break;
    }
    RMALOCK_CHECK_MSG(it != stack.rend(),
                      "release(key) without a live hold of slot "
                          << ref.global_slot << " on rank " << comm.rank());
    plane = it->second;
    stack.erase(std::next(it).base());
  }
  Slot& slot = ensure_slot(ref, plane);
  with_shard_stats(comm, ref.shard, [&] {
    if (slot.rw != nullptr) {
      slot.rw->release_write(comm);
    } else {
      slot.ex->release(comm);
    }
  });
}

void LockSpace::acquire_read(rma::RmaComm& comm, u64 key) {
  const LockRef ref = resolve(key);
  if (rehoming()) {
    // Re-homing is exclusive-only (constructor CHECK), so the read path is
    // the serialized exclusive path with the same fence.
    (void)rehomed_blocking_acquire(comm, ref);
  } else {
    Slot& slot = ensure_slot(ref, /*plane=*/0);
    with_shard_stats(comm, ref.shard, [&] {
      if (slot.rw != nullptr) {
        slot.rw->acquire_read(comm);
      } else {
        slot.ex->acquire(comm);  // exclusive backend: readers serialize
      }
    });
  }
  shards_[static_cast<usize>(ref.shard)]->read_acquires.fetch_add(
      1, std::memory_order_relaxed);
}

void LockSpace::release_read(rma::RmaComm& comm, u64 key) {
  if (rehoming()) {
    release(comm, key);  // symmetric with the serialized read acquire
    return;
  }
  const LockRef ref = resolve(key);
  Slot& slot = ensure_slot(ref, /*plane=*/0);
  with_shard_stats(comm, ref.shard, [&] {
    if (slot.rw != nullptr) {
      slot.rw->release_read(comm);
    } else {
      slot.ex->release(comm);
    }
  });
}

locks::AcquireResult LockSpace::try_acquire_for(rma::RmaComm& comm, u64 key,
                                                Nanos deadline_ns,
                                                const locks::RetryPolicy&
                                                    retry) {
  const LockRef ref = resolve(key);
  Shard& shard = *shards_[static_cast<usize>(ref.shard)];
  if (shard.quarantined.load(std::memory_order_acquire)) {
    // Fail fast: the health score says this shard's home is gray. The
    // caller gets its deadline budget back instead of burning it.
    return locks::AcquireResult{locks::AcquireStatus::kDegraded, 0};
  }
  u32 attempts = 0;
  for (;;) {
    i64 ctl = 0;
    i32 plane = 0;
    if (rehoming()) {
      ctl = read_ctl(comm, ref.shard);
      if ((ctl & 1) != 0) {
        // Migration in flight: retry with backoff inside the deadline.
        ++attempts;
        if (attempts >= retry.max_attempts ||
            comm.now_ns() >= deadline_ns) {
          record_timeout(ref.shard);
          return locks::AcquireResult{locks::AcquireStatus::kTimeout,
                                      attempts};
        }
        const Nanos delay = retry.delay_for(attempts - 1, comm.rng());
        if (delay > 0) comm.compute(delay);
        continue;
      }
      plane = static_cast<i32>(ctl >> 1);
    }
    Slot& slot = ensure_slot(ref, plane);
    locks::AcquireResult result{};
    with_shard_stats(comm, ref.shard, [&] {
      result = slot.rw != nullptr
                   ? slot.rw->try_acquire_write_for(comm, deadline_ns, retry)
                   : slot.ex->try_acquire_for(comm, deadline_ns, retry);
    });
    attempts += result.attempts;
    if (result.status != locks::AcquireStatus::kAcquired) {
      record_timeout(ref.shard);
      result.attempts = attempts;
      return result;
    }
    if (rehoming() && !config_.rehome_skip_fence) {
      // The migration fence (see rehomed_blocking_acquire).
      if (read_ctl(comm, ref.shard) != ctl) {
        backend_release(slot, comm);
        if (attempts >= retry.max_attempts ||
            comm.now_ns() >= deadline_ns) {
          record_timeout(ref.shard);
          return locks::AcquireResult{locks::AcquireStatus::kTimeout,
                                      attempts};
        }
        continue;
      }
    }
    if (rehoming()) {
      holds_[static_cast<usize>(comm.rank())].push_back(
          {ref.global_slot, plane});
    }
    record_success(ref.shard);
    shard.write_acquires.fetch_add(1, std::memory_order_relaxed);
    return locks::AcquireResult{locks::AcquireStatus::kAcquired, attempts};
  }
}

bool LockSpace::rehome_shard(rma::RmaComm& comm, i32 shard_index,
                             Nanos drain_budget_ns) {
  RMALOCK_CHECK_MSG(rehoming(), "LockSpaceConfig::rehome_epochs = 0");
  const i64 ctl = read_ctl(comm, shard_index);
  if ((ctl & 1) != 0) return false;  // already migrating
  const i64 epoch = ctl >> 1;
  if (epoch >= config_.rehome_epochs) return false;  // planes exhausted
  // Phase 1: flip to migrating. New claimants now wait; losing this CAS
  // means a concurrent migration won.
  if (comm.cas((epoch << 1) | 1, ctl, 0, ctl_offset(shard_index)) != ctl) {
    return false;
  }
  // Phase 2: drain the old plane — acquire and release every instantiated
  // slot once, which serializes with every grant issued before the flip.
  // Claimants granted on the old plane after this drain saw the pre-flip
  // control word and are deflected by the fence before entering their CS.
  const i32 plane = static_cast<i32>(epoch);
  const Nanos deadline = comm.now_ns() + drain_budget_ns;
  const locks::RetryPolicy drain_retry{};
  for (i32 s = 0; s < config_.slots_per_shard; ++s) {
    const u32 gs = static_cast<u32>(shard_index) *
                       static_cast<u32>(config_.slots_per_shard) +
                   static_cast<u32>(s);
    Slot& slot = slots_[slot_index(plane, gs)];
    if (!slot.ready.load(std::memory_order_acquire)) continue;
    locks::AcquireResult r{};
    if (slot.ex != nullptr) {
      r = slot.ex->try_acquire_for(comm, deadline, drain_retry);
    }
    if (r.status != locks::AcquireStatus::kAcquired) {
      // Drain timed out (e.g. a wedged holder): abort the migration and
      // reopen the old plane — claimants resume where they were.
      comm.put(epoch << 1, 0, ctl_offset(shard_index));
      comm.flush(0);
      return false;
    }
    backend_release(slot, comm);
  }
  // Phase 3: commit the bumped epoch; the successor plane (and home) is
  // instantiated on first touch.
  comm.put((epoch + 1) << 1, 0, ctl_offset(shard_index));
  comm.flush(0);
  return true;
}

bool LockSpace::shard_quarantined(i32 shard) const {
  return shards_[static_cast<usize>(shard)]->quarantined.load(
      std::memory_order_acquire);
}

u64 LockSpace::shard_timeouts(i32 shard) const {
  return shards_[static_cast<usize>(shard)]->timeouts.load(
      std::memory_order_relaxed);
}

void LockSpace::reset_shard_health(i32 shard) {
  Shard& s = *shards_[static_cast<usize>(shard)];
  s.consec_timeouts.store(0, std::memory_order_relaxed);
  s.quarantined.store(false, std::memory_order_release);
}

i64 LockSpace::shard_epoch(rma::RmaComm& comm, i32 shard) {
  if (!rehoming()) return 0;
  return read_ctl(comm, shard) >> 1;
}

i64 LockSpace::write_payload(rma::RmaComm& comm, u64 key, const i64* data,
                             usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK_MSG(n <= static_cast<usize>(config_.payload_words),
                    "payload write of " << n << " words exceeds the "
                                        << config_.payload_words
                                        << "-word slot payload");
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  // Serialized by the caller-held write lock: bump to odd (publication in
  // progress), store the words in ascending index order — the order the
  // optimistic monitor's consistency check relies on — then bump to even.
  const i64 v = comm.get(ref.home, voff);
  comm.put(v + 1, ref.home, voff);
  for (usize i = 0; i < n; ++i) {
    comm.put(data[i], ref.home, voff + 1 + static_cast<WinOffset>(i));
  }
  comm.put(v + 2, ref.home, voff);
  return v + 2;
}

bool LockSpace::write_payload_fenced(rma::RmaComm& comm, u64 key, i64 token,
                                     const i64* data, usize n,
                                     i64* admitted_version) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  RMALOCK_CHECK_MSG(token > 0 && token <= (i64{1} << (62 - kTokenSeqBits)),
                    "fencing token " << token << " out of range");
  if (config_.skip_token_check) {
    // PLANTED BUG: trust the caller outright. Any overlap the lease's
    // clock assumptions let through now reaches the payload unfiltered.
    const i64 closing = write_payload(comm, key, data, n);
    if (admitted_version != nullptr) *admitted_version = closing;
    return true;
  }
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  for (;;) {
    const i64 v = comm.get(ref.home, voff);
    comm.flush(ref.home);
    if ((v & 1) != 0) {
      // Another admitted session is mid-publication: wait for its closing
      // version write (the runtime parks this poll and wakes on it), then
      // re-validate — our token may well be stale by then.
      continue;
    }
    if (token < token_of_version(v)) return false;  // stale: fenced out
    const i64 seq = v & kTokenSeqMask;
    RMALOCK_CHECK_MSG(seq + 2 <= kTokenSeqMask,
                      "payload seq field exhausted on slot "
                          << ref.global_slot);
    // Session-begin CAS: admits the token and flips to odd in one atomic
    // unit, so no second writer — fenced or plain — can interleave between
    // the validation and the publication start.
    if (comm.cas((token << kTokenSeqBits) | (seq + 1), v, ref.home, voff) !=
        v) {
      continue;  // lost a race with another session: re-validate
    }
    for (usize i = 0; i < n; ++i) {
      comm.put(data[i], ref.home, voff + 1 + static_cast<WinOffset>(i));
    }
    comm.put((token << kTokenSeqBits) | (seq + 2), ref.home, voff);
    if (admitted_version != nullptr) {
      *admitted_version = (token << kTokenSeqBits) | (seq + 2);
    }
    return true;
  }
}

void LockSpace::locked_read(rma::RmaComm& comm, u64 key, i64* out, usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  acquire_read(comm, key);
  // Writers are excluded, so even a torn get_vec observes one quiescent
  // payload state.
  comm.get_vec(ref.home, voff + 1, out, n);
  release_read(comm, key);
}

i64 LockSpace::payload_version(rma::RmaComm& comm, u64 key) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  const LockRef ref = resolve(key);
  return comm.get(ref.home, version_offset(ref.global_slot));
}

LockSpace::OptimisticResult LockSpace::optimistic_read(rma::RmaComm& comm,
                                                       u64 key, i64* out,
                                                       usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  OptimisticResult result;
  const u32 attempts =
      static_cast<u32>(std::max<i32>(0, config_.optimistic_retries)) + 1;
  for (u32 attempt = 0; attempt < attempts; ++attempt) {
    result.retries = attempt;
    const i64 v1 = comm.get(ref.home, voff);
    if ((v1 & 1) != 0) continue;  // writer mid-publication
    comm.get_vec(ref.home, voff + 1, out, n);
    if (config_.skip_read_validation) {
      // PLANTED BUG: certifying the snapshot without re-reading the version
      // accepts torn observations. Only the torn-read fault model exposes
      // this — an atomic multi-word read mid-write never violates the
      // ascending-order consistency check (see the header).
      result.ok = true;
      return result;
    }
    const i64 v2 = comm.get(ref.home, voff);
    if (v2 == v1) {
      result.ok = true;
      return result;
    }
  }
  // Retries exhausted (sustained write pressure): fall back to the read
  // lock, which always yields a consistent snapshot.
  result.retries = attempts;
  result.fell_back = true;
  acquire_read(comm, key);
  comm.get_vec(ref.home, voff + 1, out, n);
  release_read(comm, key);
  result.ok = true;
  return result;
}

u64 LockSpace::recover_orphans(rma::RmaComm& comm) {
  u64 reclaimed = 0;
  // Lock-free sweep: `ready` is published with release ordering after the
  // lease pointer is set, and reclaiming races regular claimants through a
  // single CAS — so no shard mutex is needed (holding one across comm ops
  // would wedge SimWorld's cooperative fibers anyway).
  for (Slot& slot : slots_) {
    if (!slot.ready.load(std::memory_order_acquire)) continue;
    if (slot.lease == nullptr) continue;
    if (slot.lease->recover_orphan(comm)) ++reclaimed;
  }
  return reclaimed;
}

u64 LockSpace::total_acquires() const {
  u64 sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->write_acquires.load(std::memory_order_relaxed);
    sum += shard->read_acquires.load(std::memory_order_relaxed);
  }
  return sum;
}

rma::OpStats LockSpace::shard_op_stats(i32 shard) const {
  const Shard& s = *shards_[static_cast<usize>(shard)];
  const std::lock_guard<std::mutex> guard(s.stats_mutex);
  return s.op_stats;
}

LockSpace::ShardMetrics LockSpace::shard_metrics(i32 shard) const {
  const Shard& s = *shards_[static_cast<usize>(shard)];
  ShardMetrics m;
  m.shard = shard;
  m.home = s.home;
  m.write_acquires = s.write_acquires.load(std::memory_order_relaxed);
  m.read_acquires = s.read_acquires.load(std::memory_order_relaxed);
  m.timeouts = s.timeouts.load(std::memory_order_relaxed);
  m.quarantined = s.quarantined.load(std::memory_order_relaxed);
  const u32 first = static_cast<u32>(shard) *
                    static_cast<u32>(config_.slots_per_shard);
  for (i32 plane = 0; plane < planes(); ++plane) {
    for (i32 slot = 0; slot < config_.slots_per_shard; ++slot) {
      if (slots_[slot_index(plane, first + static_cast<u32>(slot))]
              .ready.load(std::memory_order_acquire)) {
        ++m.instantiated_slots;
      }
    }
  }
  return m;
}

std::vector<LockSpace::ShardMetrics> LockSpace::metrics() const {
  std::vector<ShardMetrics> out;
  out.reserve(static_cast<usize>(num_shards_));
  for (i32 shard = 0; shard < num_shards_; ++shard) {
    out.push_back(shard_metrics(shard));
  }
  return out;
}

std::string LockSpace::describe() const {
  std::ostringstream out;
  out << "LockSpace<" << locks::backend_name(config_.backend) << "> "
      << num_shards_ << " shards x " << config_.slots_per_shard
      << " slots (" << total_slots() << " locks, " << words_per_slot_
      << " words/slot, "
      << (config_.eager ? "eager" : "lazy") << ")";
  if (optimistic_capable()) {
    out << " + versioned payload (" << config_.payload_words
        << " words/slot)";
  }
  return out.str();
}

}  // namespace rmalock::lockspace

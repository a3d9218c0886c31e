// LockSpace — a sharded, topology-aware manager for millions of named locks.
//
// Every bench and test below this layer exercises one global lock instance;
// a lock *service* (the paper's DHT case study scaled out, the ROADMAP's
// "millions of users") needs many named locks with skewed popularity. A
// LockSpace multiplexes an arbitrary 64-bit key space onto a fixed grid of
// physical lock instances:
//
//   key --hash--> shard s --hash--> slot within s --> one locks:: instance
//
// * Directory: owner-computes. resolve(key) is pure arithmetic over the
//   configured shard/slot counts — every process computes home rank and
//   slot in O(1) with zero extra round trips (no directory server, no
//   lookup RPC). This is the placement style of the paper's DHT (§5.3) and
//   of ALock's per-key handle tables.
// * Topology-aware homing: shards are spread across the machine's leaf
//   elements round-robin (leaf-major). Each slot is built at its own slot
//   home: the shard's home rotated inside its leaf by the slot index, so
//   the slots of one shard sit on distinct ranks of the shard's node. The
//   slot home hosts the hot word of centralized backends (foMPI-Spin/RW
//   lock word, D-MCS tail, lease word) and is the placement anchor of the
//   hierarchical ones (RMA-MCS, DTree, RMA-RW): their root tail sits on it
//   and their per-element representatives and counters at the same offset
//   inside every other element (docs/DESIGN.md §2.7). Without the rotation
//   every slot's root tail would queue on one rank's NIC. The versioned
//   payload words stay on the shard's home rank.
// * Striping: two keys that collide on (shard, slot) share a physical lock.
//   Mutual exclusion per key is preserved (the shared lock is simply
//   coarser); cross-key concurrency is what slots_per_shard buys.
// * Lazy instantiation: construction (collective, outside run()) reserves
//   one window arena for the whole grid but builds no lock objects. A
//   slot's backend instance is constructed on first touch — possibly mid
//   run() — from its pre-reserved arena range. This is safe because window
//   growth happened up front (both worlds' windows already hold the arena;
//   SimWorld's waiter index is sized by the cells parked on at once, not
//   by window words) and initialization writes target words no process
//   has ever polled. In SimWorld the construction costs zero virtual time
//   and adds no scheduling decisions, so replay and exhaustive enumeration
//   are unaffected; in ThreadWorld first-touch is serialized per shard and
//   published with release/acquire ordering.
// * Per-shard accounting: read/write acquire counters always; full
//   rma::OpStats deltas per shard when track_op_stats is set (snapshot
//   diff of the caller's per-process stats around each hold).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "locks/factory.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {
class LeaseExclusive;
}

namespace rmalock::lockspace {

struct LockSpaceConfig {
  /// Number of shards; 0 = one per leaf element (compute node).
  i32 shards = 0;
  /// Physical lock instances per shard. Keys stripe over
  /// shards * slots_per_shard independent locks.
  i32 slots_per_shard = 16;
  locks::Backend backend = locks::Backend::kRmaRw;
  /// Construct every slot at build time instead of on first touch.
  bool eager = false;
  /// Aggregate rma::OpStats deltas per shard (adds two stats snapshots per
  /// hold — measurement mode, off on hot paths).
  bool track_op_stats = false;
  /// Directory hash salt: lets tests steer keys onto chosen shards/slots.
  u64 salt = 0;
  /// Payload words per slot published through the versioned read path
  /// (optimistic_read / write_payload / locked_read). 0 = no versioned
  /// data area; the optimistic API is then unavailable. The payload arena
  /// (1 version word + payload_words data words per slot, on the slot's
  /// home rank) is reserved separately from the lock arena, so backend
  /// footprints are unaffected.
  i32 payload_words = 0;
  /// optimistic_read attempts before falling back to the read lock.
  i32 optimistic_retries = 3;
  /// PLANTED-BUG knob (MC verification only): skip the version
  /// re-validation read in optimistic_read, certifying torn observations.
  /// The optimistic MC campaigns must catch this — and a torn-read-blind
  /// run must NOT (the false negative the fault model exists to prevent).
  bool skip_read_validation = false;
  /// Testing knob: reserve this many words per slot instead of the
  /// slot_words() table value. The constructor still probes the backend's
  /// true footprint and aborts if the reservation is too small — which is
  /// exactly what the under-provisioning regression test provokes.
  usize words_per_slot_override = 0;
  /// Graceful degradation: consecutive try_acquire_for timeouts on a shard
  /// before the shard is quarantined (0 = never). A quarantined shard
  /// fails fast with AcquireStatus::kDegraded instead of burning the
  /// caller's deadline against a home rank the fault model says is gray.
  i32 quarantine_after = 0;
  /// Epoch-stamped re-homing: number of successor placements (slot planes)
  /// pre-reserved beyond the original one, so a gray shard can be migrated
  /// to a fresh home mid-run (rehome_shard). 0 = off. Exclusive backends
  /// only. Each extra plane costs a full grid arena.
  i32 rehome_epochs = 0;
  /// PLANTED-BUG knob (MC verification only): skip the post-acquire
  /// control-word re-validation — the fence that deflects a claimant whose
  /// plane was migrated away between its directory read and its grant. With
  /// the fence skipped, a migration can admit one owner on the old plane
  /// and one on the new: two owners across the migration epoch. The
  /// rehome MC campaigns must catch this.
  bool rehome_skip_fence = false;
  /// PLANTED-BUG knob (MC verification only): write_payload_fenced accepts
  /// every write without validating the caller's fencing token against the
  /// newest admitted one. A time-based lease then has no resource-side
  /// defense left: once local clocks let a paused or drift-slow holder's
  /// belief overlap a reclaimer's grant, the stale holder's write commits.
  /// The clock-drift MC campaigns must catch this as a stale-token commit.
  bool skip_token_check = false;
};

/// Result of the O(1) directory computation for one key.
struct LockRef {
  i32 shard = 0;
  i32 slot = 0;        // within the shard
  Rank home = 0;       // shard's home rank
  u32 global_slot = 0; // shard * slots_per_shard + slot
};

class LockSpace {
 public:
  /// Collective: reserves the window arena for every slot (and, when
  /// config.eager, constructs every backend instance). Must run outside
  /// World::run(), like any lock constructor. The world must outlive the
  /// LockSpace.
  LockSpace(rma::World& world, LockSpaceConfig config);

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  // --- directory (pure arithmetic, zero RTTs) ------------------------------

  [[nodiscard]] LockRef resolve(u64 key) const;

  /// Home rank of shard s: shards spread leaf-major across the machine.
  [[nodiscard]] Rank home_of_shard(i32 shard) const;

  /// Slot home of (shard, slot) at migration epoch `plane`: the shard's
  /// home at that plane rotated inside its leaf by the slot index,
  /// leaf_base + (home mod ppl + slot) mod ppl. The slot's backend is
  /// built at this rank (see locks::make_exclusive for what `home` places).
  [[nodiscard]] Rank slot_home(i32 shard, i32 slot, i32 plane = 0) const;

  /// First `count` keys (scanning upward from 0) that resolve to pairwise
  /// distinct slots — the keys tests and MC campaigns use so "different
  /// keys" provably means "different physical locks". Requires
  /// count <= total_slots().
  [[nodiscard]] std::vector<u64> distinct_slot_keys(i32 count) const;

  // --- lock protocol -------------------------------------------------------
  // Exclusive mode works with every backend (RW backends take the writer
  // path). Shared mode degrades to exclusive on exclusive-only backends —
  // readers serialize, which is exactly the regime the RW comparison
  // benches quantify; rw_capable() tells callers which case they are in.

  void acquire(rma::RmaComm& comm, u64 key);
  void release(rma::RmaComm& comm, u64 key);
  void acquire_read(rma::RmaComm& comm, u64 key);
  void release_read(rma::RmaComm& comm, u64 key);

  // --- deadlines, health, re-homing ----------------------------------------
  // The gray-failure story: a straggling or partitioned shard home makes
  // blocking acquires arbitrarily slow without ever tripping the crash
  // detector. try_acquire_for bounds each attempt by the caller's deadline;
  // repeated timeouts score the shard's health and eventually quarantine it
  // (fail-fast kDegraded); an operator — or a bench policy — then migrates
  // the shard to a healthy successor home with rehome_shard.

  /// Deadline-bounded exclusive acquire (write path on RW backends).
  /// `deadline_ns` is absolute virtual time, as in ExclusiveLock. On
  /// success release with the ordinary release(key) — the space remembers
  /// which plane the grant landed on.
  locks::AcquireResult try_acquire_for(rma::RmaComm& comm, u64 key,
                                       Nanos deadline_ns,
                                       const locks::RetryPolicy& retry = {});

  /// Migrates `shard` to its next epoch plane (fresh home rank, fresh slot
  /// instances). Two-phase: CAS the shard's control word to `migrating`
  /// (new claimants wait), drain every instantiated old-plane slot by
  /// acquiring and releasing it once — bounded by `drain_budget_ns` of
  /// virtual time — then commit the bumped epoch. Returns false without
  /// migrating if the shard is already migrating, out of planes, the CAS
  /// is lost, or the drain times out (the control word is restored).
  /// Safety: a claimant granted on the old plane after the drain re-reads
  /// the control word before entering its CS and bails (the fence), so no
  /// two owners exist across the migration epoch.
  bool rehome_shard(rma::RmaComm& comm, i32 shard, Nanos drain_budget_ns);

  [[nodiscard]] bool shard_quarantined(i32 shard) const;
  /// Cumulative try_acquire_for timeouts charged to the shard.
  [[nodiscard]] u64 shard_timeouts(i32 shard) const;
  /// Clears the shard's timeout score and lifts its quarantine (operator
  /// action after a rehome or a repaired network).
  void reset_shard_health(i32 shard);
  /// Current migration epoch of the shard (reads the control word; 0 when
  /// re-homing is off).
  [[nodiscard]] i64 shard_epoch(rma::RmaComm& comm, i32 shard);
  /// Home rank of `shard` at migration epoch `plane` (plane 0 = original).
  [[nodiscard]] Rank home_of_shard_at(i32 shard, i32 plane) const;

  // --- versioned payload (optimistic reads) --------------------------------
  // Per-slot version word bumped odd/even around every write-side critical
  // section; readers snapshot the payload lock-free and validate the
  // version unchanged. Write sessions store payload words in ascending
  // index order, which gives snapshots a checkable consistency order: any
  // single-instant observation is non-increasing in write-session age along
  // the word index, so an "older word after a newer word" observation can
  // only come from a torn (time-split) read — the property the optimistic
  // MC monitor checks.

  [[nodiscard]] bool optimistic_capable() const {
    return config_.payload_words > 0;
  }
  [[nodiscard]] i32 payload_words() const { return config_.payload_words; }

  /// Writer-side publication of the key's payload. The caller MUST hold
  /// acquire(key): the version bump to odd (before the data words) and back
  /// to even (after) assumes write sessions are serialized by the lock.
  /// Returns the closing (even) version word the session published — its
  /// low kTokenSeqBits are the slot's session sequence number, which
  /// monitors use to recover the slot's own admission order.
  i64 write_payload(rma::RmaComm& comm, u64 key, const i64* data, usize n);

  /// Token-validating publication for time-based leases (TimedLease):
  /// unlike write_payload it does NOT trust the caller to be serialized —
  /// the write session begins with a CAS on the version word that
  /// atomically (a) rejects any token older than the newest one the slot
  /// has admitted and (b) serializes concurrent fenced writers. Returns
  /// true iff the write was admitted; false means the caller's token is
  /// stale — its lease was reclaimed out from under it — and no word was
  /// written. This is the resource-side half of the fencing-token story:
  /// a paused or drift-slow holder that still believes its lease valid
  /// fails *here*, deterministically, instead of corrupting the payload.
  /// With LockSpaceConfig::skip_token_check set (planted bug) it degrades
  /// to the trusting write_payload and always returns true. On acceptance,
  /// `admitted_version` (if non-null) receives the closing version word the
  /// session published (see write_payload's return value).
  bool write_payload_fenced(rma::RmaComm& comm, u64 key, i64 token,
                            const i64* data, usize n,
                            i64* admitted_version = nullptr);

  // Version-word layout under fenced writes: (token << kTokenSeqBits) | seq,
  // where seq keeps the plain seqlock odd/even discipline (even = quiescent,
  // odd = publication in progress). Plain write_payload's v+1/v+2 bumps
  // touch only the seq field, so the two write paths and optimistic_read
  // (which compares full version words) compose unchanged. The seq field
  // caps write sessions per slot at ~2^19, CHECKed loudly on overflow.
  static constexpr i32 kTokenSeqBits = 20;
  static constexpr i64 kTokenSeqMask = (i64{1} << kTokenSeqBits) - 1;
  [[nodiscard]] static i64 token_of_version(i64 v) {
    return v >> kTokenSeqBits;
  }

  /// Reads the payload under the read lock — always a consistent snapshot;
  /// the comparison baseline for the optimistic path.
  void locked_read(rma::RmaComm& comm, u64 key, i64* out, usize n);

  /// Current version word of the key's slot (even = quiescent, odd = write
  /// in progress). Stable only while the caller holds the write lock.
  [[nodiscard]] i64 payload_version(rma::RmaComm& comm, u64 key);

  struct OptimisticResult {
    /// Payload attempts that validated (or, with fell_back, the locked
    /// read); out[] holds a read of the payload either way.
    bool ok = false;
    /// Retries exhausted; out[] was read under the read lock instead.
    bool fell_back = false;
    /// Optimistic attempts that did not validate before success/fallback.
    u32 retries = 0;
  };

  /// Lock-free versioned read: snapshot version, get_vec the payload,
  /// validate the version unchanged-and-even; retry up to
  /// config.optimistic_retries times, then fall back to locked_read.
  OptimisticResult optimistic_read(rma::RmaComm& comm, u64 key, i64* out,
                                   usize n);

  /// Administrative recovery sweep: walks every instantiated slot whose
  /// backend is a LeaseExclusive and reclaims leases held by
  /// suspected-crashed owners, fencing each with a bumped epoch. Returns
  /// the number of orphaned leases reclaimed. Any rank may run the sweep
  /// (including concurrently with regular claimants — the reclaim CAS makes
  /// the race benign); non-lease backends always recover 0.
  u64 recover_orphans(rma::RmaComm& comm);

  [[nodiscard]] bool rw_capable() const {
    return locks::backend_is_rw(config_.backend);
  }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const LockSpaceConfig& config() const { return config_; }
  [[nodiscard]] i32 shards() const { return num_shards_; }
  [[nodiscard]] i32 slots_per_shard() const { return config_.slots_per_shard; }
  [[nodiscard]] u32 total_slots() const {
    return static_cast<u32>(num_shards_) *
           static_cast<u32>(config_.slots_per_shard);
  }
  /// Slots whose backend instance has been constructed so far.
  [[nodiscard]] u64 instantiated_slots() const {
    return instantiated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string describe() const;

  /// The backend instance serving `key` at migration epoch `plane`,
  /// constructed on first touch as an acquire would (placement
  /// inspection). Exactly one member is set, per backend kind.
  struct SlotInstance {
    const locks::RwLock* rw = nullptr;
    const locks::ExclusiveLock* ex = nullptr;
  };
  [[nodiscard]] SlotInstance slot_instance(u64 key, i32 plane = 0);

  /// Window words reserved per slot for this backend under this topology.
  [[nodiscard]] static usize slot_words(locks::Backend backend,
                                        const topo::Topology& topo);

  // --- per-shard accounting ------------------------------------------------

  [[nodiscard]] u64 shard_write_acquires(i32 shard) const {
    return shards_[static_cast<usize>(shard)]->write_acquires.load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] u64 shard_read_acquires(i32 shard) const {
    return shards_[static_cast<usize>(shard)]->read_acquires.load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] u64 total_acquires() const;
  /// Summed OpStats of every hold routed through `shard` (zeroed unless
  /// config.track_op_stats).
  [[nodiscard]] rma::OpStats shard_op_stats(i32 shard) const;

  /// One shard's gauges, snapshot at call time — the unit of the bench
  /// metrics export (rmalock-bench-v2 "metrics" object). Counters are
  /// relaxed-atomic reads: exact after run() joins, advisory mid-run.
  struct ShardMetrics {
    i32 shard = 0;
    Rank home = 0;
    u64 write_acquires = 0;
    u64 read_acquires = 0;
    u64 timeouts = 0;
    bool quarantined = false;
    /// Backend instances constructed on this shard, summed over planes
    /// (lazy instantiation makes this a working-set gauge).
    u64 instantiated_slots = 0;
  };
  [[nodiscard]] ShardMetrics shard_metrics(i32 shard) const;
  /// Every shard's gauges in shard-index order (deterministic export).
  [[nodiscard]] std::vector<ShardMetrics> metrics() const;

 private:
  struct Shard {
    Rank home = 0;
    std::mutex init_mutex;  // serializes first-touch construction
    std::atomic<u64> write_acquires{0};
    std::atomic<u64> read_acquires{0};
    // Health score: cumulative and consecutive timed-acquire timeouts.
    // consec resets on every success; crossing quarantine_after trips the
    // quarantine latch (cleared only by reset_shard_health).
    std::atomic<u64> timeouts{0};
    std::atomic<i32> consec_timeouts{0};
    std::atomic<bool> quarantined{false};
    mutable std::mutex stats_mutex;  // guards op_stats when tracking
    rma::OpStats op_stats;
  };

  struct Slot {
    std::atomic<bool> ready{false};
    WinOffset arena_base = 0;
    // Exactly one of the two is set, per backend kind.
    std::unique_ptr<locks::RwLock> rw;
    std::unique_ptr<locks::ExclusiveLock> ex;
    // Non-owning view of `ex` when the backend is lease-capable (set before
    // `ready` is published), so recover_orphans can sweep without casts.
    locks::LeaseExclusive* lease = nullptr;
  };

  /// Returns the (plane, slot) backend instance, constructing it on first
  /// touch. Plane 0 is the original placement; planes 1..rehome_epochs are
  /// the pre-reserved migration successors.
  Slot& ensure_slot(const LockRef& ref, i32 plane);

  /// Builds the (plane, global_slot) instance from its pre-reserved arena
  /// range. Callers hold the shard's init_mutex (or are the collective
  /// constructor).
  void instantiate_slot(i32 shard_index, u32 global_slot, i32 plane);

  [[nodiscard]] bool rehoming() const { return config_.rehome_epochs > 0; }
  [[nodiscard]] i32 planes() const { return config_.rehome_epochs + 1; }
  [[nodiscard]] usize slot_index(i32 plane, u32 global_slot) const {
    return static_cast<usize>(plane) * static_cast<usize>(total_slots()) +
           static_cast<usize>(global_slot);
  }
  /// Shard control words live on rank 0, packing (epoch << 1) | migrating.
  [[nodiscard]] WinOffset ctl_offset(i32 shard) const {
    return rehome_ctl_base_ + static_cast<WinOffset>(shard);
  }
  [[nodiscard]] i64 read_ctl(rma::RmaComm& comm, i32 shard) const;
  /// Blocking acquire with plane resolution + the migration fence.
  Slot& rehomed_blocking_acquire(rma::RmaComm& comm, const LockRef& ref);
  void backend_release(Slot& slot, rma::RmaComm& comm);
  void record_timeout(i32 shard);
  void record_success(i32 shard);

  /// Runs `hold` (acquire-CS-release is the caller's business; this wraps
  /// one protocol call) and attributes its OpStats delta to the shard.
  template <typename Fn>
  void with_shard_stats(rma::RmaComm& comm, i32 shard, Fn&& fn);

  /// Window offset of slot `global_slot`'s version word (payload words
  /// follow it) on the slot's home rank.
  [[nodiscard]] WinOffset version_offset(u32 global_slot) const {
    return payload_base_ +
           static_cast<WinOffset>(static_cast<usize>(global_slot) *
                                  payload_stride_);
  }

  rma::World& world_;
  LockSpaceConfig config_;
  i32 num_shards_ = 0;
  usize words_per_slot_ = 0;   // reserved per slot (table or override)
  usize backend_words_ = 0;    // probed true footprint of one instance
  WinOffset payload_base_ = 0; // versioned-payload arena (when payload_words)
  usize payload_stride_ = 0;   // 1 version word + payload_words per slot
  WinOffset rehome_ctl_base_ = 0;  // per-shard control words (when rehoming)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Slot> slots_;    // planes() x total_slots(), plane-major
  // Per-rank stack of live grants as (global_slot, plane), so release(key)
  // finds the plane a grant landed on. Each rank only touches its own
  // stack. Maintained only when re-homing is enabled.
  std::vector<std::vector<std::pair<u32, i32>>> holds_;
  std::atomic<u64> instantiated_{0};
};

}  // namespace rmalock::lockspace

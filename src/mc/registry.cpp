#include "mc/registry.hpp"

#include "locks/factory.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::mc {

namespace {

/// RMA-RW with locality `locality` at every level and the given T_DC /
/// T_R (tdc 0 keeps the topology default).
RwLockFactory rma_rw(i32 tdc, i32 tr, i32 locality, bool faithful_reset) {
  return [=](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    if (tdc != 0) params.tdc = tdc;
    params.tr = tr;
    params.locality.assign(static_cast<usize>(world.topology().num_levels()),
                           locality);
    params.paper_faithful_reader_reset = faithful_reset;
    return std::make_unique<locks::RmaRw>(world, params);
  };
}

ExclusiveLockFactory rma_mcs() {
  return [](rma::World& world) {
    locks::RmaMcsParams params =
        locks::RmaMcsParams::defaults(world.topology());
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 2);
    return std::make_unique<locks::RmaMcs>(world, params);
  };
}

LeaseLockFactory lease(locks::Backend inner, bool fence) {
  return [inner, fence](rma::World& world) {
    auto in = locks::make_exclusive(inner, world, /*home=*/0);
    locks::LeaseParams params;
    params.home = 0;
    params.fence_on_steal = fence;
    return std::make_unique<locks::LeaseExclusive>(world, std::move(in),
                                                   params);
  };
}

// Write-side view of an RW lock, so the timed-acquire campaigns can drive
// RmaRw::try_acquire_write_for through the ExclusiveLock interface.
class WriteLockAdapter final : public locks::ExclusiveLock {
 public:
  explicit WriteLockAdapter(std::unique_ptr<locks::RwLock> inner)
      : inner_(std::move(inner)) {}
  void acquire(rma::RmaComm& comm) override { inner_->acquire_write(comm); }
  void release(rma::RmaComm& comm) override { inner_->release_write(comm); }
  locks::AcquireResult try_acquire_for(
      rma::RmaComm& comm, Nanos deadline_ns,
      const locks::RetryPolicy& retry) override {
    return inner_->try_acquire_write_for(comm, deadline_ns, retry);
  }
  [[nodiscard]] std::string name() const override {
    return inner_->name() + " (write side)";
  }

 private:
  std::unique_ptr<locks::RwLock> inner_;
};

LockSpaceFactory space(lockspace::LockSpaceConfig config) {
  return [config](rma::World& world) {
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

}  // namespace

std::optional<Workload> named_workload(const std::string& id,
                                       const topo::Topology& topology) {
  if (id == "rw:rma-rw") {
    // Small thresholds stress mode changes.
    return Workload::rw(rma_rw(/*tdc=*/0, /*tr=*/3, /*locality=*/2, false));
  }
  if (id == "rw:rma-rw-faithful-reset" || id == "rw:rma-rw-fixed-reset") {
    // Readers hit T_R constantly: maximal reset traffic.
    return Workload::rw(rma_rw(/*tdc=*/2, /*tr=*/1, /*locality=*/1,
                               id == "rw:rma-rw-faithful-reset"));
  }
  if (id == "ex:rma-mcs") return Workload::exclusive(rma_mcs());

  // Crash/recovery lease workloads. "lease:mcs-nofence" is a *planted* bug
  // — the recovery reclaims a suspected-dead owner's lease without bumping
  // the epoch, so a mid-CS-crashed owner shares its epoch with the thief.
  if (id == "lease:mcs") {
    return Workload::lease(lease(locks::Backend::kRmaMcs, /*fence=*/true));
  }
  if (id == "lease:rw") {
    return Workload::lease(lease(locks::Backend::kRmaRw, /*fence=*/true));
  }
  if (id == "lease:mcs-nofence") {
    return Workload::lease(lease(locks::Backend::kRmaMcs, /*fence=*/false));
  }

  // Timed-acquire workloads (deadline + retry/backoff under gray failures).
  if (id == "timeout:rma-mcs") return Workload::timed(rma_mcs());
  if (id == "timeout:rma-rw") {
    const RwLockFactory rw = rma_rw(/*tdc=*/0, /*tr=*/3, /*locality=*/2, false);
    return Workload::timed(
        [rw](rma::World& world) -> std::unique_ptr<locks::ExclusiveLock> {
          return std::make_unique<WriteLockAdapter>(rw(world));
        });
  }
  if (id == "timeout:lease-mcs") {
    const LeaseLockFactory inner = lease(locks::Backend::kRmaMcs, true);
    return Workload::timed(
        [inner](rma::World& world) -> std::unique_ptr<locks::ExclusiveLock> {
          return inner(world);
        });
  }
  if (id == "timeout:no-backoff") {
    // A *planted* bug in the retry *policy*, not the lock: the rma-mcs
    // workload with RetryPolicy::backoff = false, pinned here so every
    // campaign and replay of the id spins the same way. Failed attempts
    // never advance the virtual clock, the deadline never expires, and a
    // starved rank spins to the attempts valve: the livelock the
    // LivelockMonitor must flag.
    const Workload timed = Workload::timed(rma_mcs());
    return Workload([timed](const CheckConfig& config,
                            const rma::SimOptions& opts) {
      CheckConfig planted = config;
      planted.retry.backoff = false;
      return timed(planted, opts);
    });
  }

  // Keyed LockSpace workloads: a small grid (4 slots per shard, shards per
  // leaf) so P=2 machines still offer distinct slots for K=2 keys. Keys
  // are a pure function of (factory, topology) — picked by
  // pick_cross_slot_keys, so "different keys" provably means "different
  // physical locks", and a campaign and any later replay of its trace
  // derive the same ones.
  if (id == "ls:rma-mcs" || id == "ls:rma-rw") {
    const LockSpaceFactory factory = space(
        {.slots_per_shard = 4,
         .backend = id == "ls:rma-mcs" ? locks::Backend::kRmaMcs
                                       : locks::Backend::kRmaRw});
    return Workload::keyed(factory, pick_cross_slot_keys(factory, topology, 2));
  }

  // Versioned optimistic-read workloads over a payload-capable LockSpace.
  // "opt:skip-validation" is a *planted* bug — optimistic_read skips the
  // version re-validation, certifying torn snapshots. The campaigns must
  // catch it with the torn-read fault model armed (max_tears > 0); a
  // torn-read-blind run of the same workload must MISS it — the false
  // negative the fault model exists to prevent.
  if (id == "opt:versioned" || id == "opt:skip-validation") {
    const LockSpaceFactory factory = space(
        {.slots_per_shard = 4,
         .backend = locks::Backend::kRmaRw,
         .payload_words = 2,  // one split point: smallest tearable payload
         .skip_read_validation = id == "opt:skip-validation"});
    return Workload::optimistic(factory,
                                pick_cross_slot_keys(factory, topology, 1));
  }

  // Re-homing workloads over a one-slot LockSpace with one pre-reserved
  // migration plane. "rehome:nofence" is a *planted* bug — the
  // post-acquire control-word re-validation is skipped, so a claimant
  // granted on the old plane after a migration coexists with the new
  // plane's owner: two owners across the migration epoch, caught as a
  // per-key mutex violation.
  if (id == "rehome:fenced" || id == "rehome:nofence") {
    const LockSpaceFactory factory =
        space({.shards = 1,
               .slots_per_shard = 1,
               .backend = locks::Backend::kRmaMcs,
               .rehome_epochs = 1,
               .rehome_skip_fence = id == "rehome:nofence"});
    return Workload::rehome(factory,
                            pick_cross_slot_keys(factory, topology, 1));
  }

  // Wall-clock timed-lease workloads over a payload-capable one-slot
  // LockSpace: grants are valid for duration_ns on the holder's clock,
  // reclaimed after duration_ns + safety_margin_ns on the claimant's clock,
  // and every write carries the grant epoch as a fencing token that
  // LockSpace::write_payload_fenced validates. Two *planted* bugs:
  // "drift:margin0" trusts the local clocks outright (safety_margin_ns = 0)
  // — safe under perfect clocks, a belief overlap once the drift model is
  // armed; "drift:skip-token-check" additionally drops the resource-side
  // token validation, so the stale holder's write *commits* (a stale-token
  // commit on top of the overlap).
  if (id == "drift:fenced" || id == "drift:margin0" ||
      id == "drift:skip-token-check") {
    const bool margin = id == "drift:fenced";
    const bool skip_token = id == "drift:skip-token-check";
    return Workload::drift([margin, skip_token](rma::World& world) {
      DriftLeaseSubject subject;
      locks::TimedLeaseParams params;
      params.home = 0;
      if (!margin) params.safety_margin_ns = 0;
      subject.lease = std::make_unique<locks::TimedLease>(world, params);
      subject.space = space({.shards = 1,
                             .slots_per_shard = 1,
                             .backend = locks::Backend::kRmaMcs,
                             .payload_words = 2,
                             .skip_token_check = skip_token})(world);
      subject.key = 0;  // one slot: every key resolves to it
      return subject;
    });
  }
  return std::nullopt;
}

}  // namespace rmalock::mc

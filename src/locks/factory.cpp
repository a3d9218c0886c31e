#include "locks/factory.hpp"

#include "locks/d_mcs.hpp"
#include "locks/dtree.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/lease.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::locks {

namespace {

/// DistributedTree driven as a plain exclusive lock: the locality threshold
/// is pinned to 1, so every release takes the full release-upward path
/// through all levels — the branch RMA-MCS only reaches after exhausting
/// T_L,q local passes. (Previously a private helper of the conformance
/// matrix; LockSpace needs it as a constructible backend.)
class DTreeExclusive final : public ExclusiveLock {
 public:
  DTreeExclusive(rma::World& world, Rank anchor) : tree_(world, anchor) {}

  void acquire(rma::RmaComm& comm) override {
    for (i32 q = tree_.num_levels(); q >= 1; --q) {
      if (tree_.acquire_level(comm, q).acquired) return;
    }
    // Climbed past the root with no predecessor: the lock is ours.
  }

  void release(rma::RmaComm& comm) override {
    i32 q = tree_.num_levels();
    while (q >= 2 && !tree_.try_pass_local(comm, q, /*tl=*/1)) --q;
    if (q == 1) tree_.release_root_exclusive(comm);
    for (i32 up = q + 1; up <= tree_.num_levels(); ++up) {
      tree_.finish_release_upward(comm, up);
    }
  }

  [[nodiscard]] std::string name() const override { return "DTree"; }

 private:
  DistributedTree tree_;
};

/// RwLock driven as an exclusive lock (writer mode only), so RW backends
/// can serve exclusive callers through one interface.
class RwAsExclusive final : public ExclusiveLock {
 public:
  explicit RwAsExclusive(std::unique_ptr<RwLock> rw) : rw_(std::move(rw)) {}

  void acquire(rma::RmaComm& comm) override { rw_->acquire_write(comm); }
  void release(rma::RmaComm& comm) override { rw_->release_write(comm); }
  [[nodiscard]] std::string name() const override { return rw_->name(); }

 private:
  std::unique_ptr<RwLock> rw_;
};

[[nodiscard]] Rank resolve_home(Rank home) { return home < 0 ? 0 : home; }

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFompiSpin: return "fompi-spin";
    case Backend::kDMcs: return "d-mcs";
    case Backend::kRmaMcs: return "rma-mcs";
    case Backend::kDTree: return "dtree";
    case Backend::kFompiRw: return "fompi-rw";
    case Backend::kRmaRw: return "rma-rw";
    case Backend::kLeaseMcs: return "lease-mcs";
    case Backend::kLeaseRw: return "lease-rw";
  }
  return "?";
}

std::optional<Backend> backend_from_name(const std::string& name) {
  for (const Backend b : all_backends()) {
    if (name == backend_name(b)) return b;
  }
  return std::nullopt;
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {
      Backend::kFompiSpin, Backend::kDMcs,  Backend::kRmaMcs,
      Backend::kDTree,     Backend::kFompiRw, Backend::kRmaRw,
      Backend::kLeaseMcs,  Backend::kLeaseRw};
  return kAll;
}

std::unique_ptr<ExclusiveLock> make_exclusive(Backend b, rma::World& world,
                                              Rank home) {
  switch (b) {
    case Backend::kFompiSpin:
      return std::make_unique<FompiSpin>(world, resolve_home(home));
    case Backend::kDMcs:
      return std::make_unique<DMcs>(world, resolve_home(home));
    case Backend::kRmaMcs:
      return std::make_unique<RmaMcs>(
          world, RmaMcsParams::defaults(world.topology()), resolve_home(home));
    case Backend::kDTree:
      return std::make_unique<DTreeExclusive>(world, resolve_home(home));
    case Backend::kFompiRw:
    case Backend::kRmaRw:
      return std::make_unique<RwAsExclusive>(make_rw(b, world, home));
    case Backend::kLeaseMcs:
    case Backend::kLeaseRw: {
      // Inner lock first: its words precede the lease word, which is what
      // LockSpace::slot_words assumes (inner footprint + 1).
      auto inner = make_exclusive(
          b == Backend::kLeaseMcs ? Backend::kRmaMcs : Backend::kRmaRw, world,
          home);
      LeaseParams params;
      params.home = resolve_home(home);
      return std::make_unique<LeaseExclusive>(world, std::move(inner), params);
    }
  }
  return nullptr;
}

std::unique_ptr<RwLock> make_rw(Backend b, rma::World& world, Rank home) {
  switch (b) {
    case Backend::kFompiRw:
      return std::make_unique<FompiRw>(world, resolve_home(home));
    case Backend::kRmaRw:
      return std::make_unique<RmaRw>(
          world, RmaRwParams::defaults(world.topology()), resolve_home(home));
    default:
      return nullptr;
  }
}

}  // namespace rmalock::locks

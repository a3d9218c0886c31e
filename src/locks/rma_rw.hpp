// RMA-RW — the topology-aware distributed Reader-Writer lock (§3).
//
// The lock is an interplay of three distributed structures:
//
//   DC  (distributed counter, §3.2.1): one physical counter on every
//       T_DC-th process, each two words — ARRIVE and DEPART — counting
//       readers that entered/left the CS. A dedicated high bit of ARRIVE
//       (kWriteFlag) marks WRITE mode. Readers touch only their own
//       counter; a writer flags *all* counters and waits for readers to
//       drain. T_DC trades reader locality/contention against writer work.
//
//   DQ  (distributed queues, §3.2.2): one D-MCS queue per machine element
//       per level, ordering writers of that element. T_L,q bounds
//       consecutive intra-element passes — locality vs fairness.
//
//   DT  (distributed tree, §3.2.3): binds the DQs; writers climb from the
//       leaves to the root, where they synchronize with readers. After
//       T_L,1 root passes (≈ T_W = ∏ T_L,q writer CS entries, see
//       docs/DESIGN.md §2.3) the lock is handed to the readers (MODE_CHANGE);
//       after T_R consecutive readers per counter, readers back off in
//       favor of waiting writers.
//
// Readers never enter DQs: acquire_read is one FAO on the local counter in
// the common case, which is what makes read-dominated workloads (§1: 99.8%
// reads at Facebook) scale.
//
// Protocol sources: writer levels N..2 — Listings 4/5 (via DistributedTree);
// writer level 1 — Listings 7/8; counters — Listing 6; readers — Listings
// 9/10. Deviations (writer read-drain, reader-side reset that preserves the
// WRITE flag) are documented in docs/DESIGN.md §2.4-2.5.
#pragma once

#include <vector>

#include "locks/dtree.hpp"
#include "locks/lock.hpp"

namespace rmalock::locks {

struct RmaRwParams {
  /// T_DC: processes per physical counter. The paper's recommended default
  /// is one counter per compute node (§6).
  i32 tdc = 1;
  /// T_L,q for q = 1..N (index q-1). locality[0] is the root threshold
  /// T_L,1: the number of root-level writer passes before the lock is
  /// handed to the readers (together: T_W = ∏ T_L,q).
  std::vector<i64> locality;
  /// T_R: max readers admitted per counter between writer turns.
  i64 tr = 1000;
  /// Use the *literal* Listing 6 reset_counter for the reader-side reset
  /// (Listing 9 line 20), which may erase a just-arrived writer's WRITE
  /// flag and break mutual exclusion under an adversarial schedule (see
  /// docs/DESIGN.md §2.5). Kept for the model-checking demonstration only.
  bool paper_faithful_reader_reset = false;

  static RmaRwParams defaults(const topo::Topology& topo) {
    RmaRwParams p;
    p.tdc = topo.procs_per_leaf();
    p.locality.assign(static_cast<usize>(topo.num_levels()), 16);
    p.tr = 1000;
    return p;
  }

  /// T_W = ∏ T_L,q — max consecutive writer acquires (Table 2).
  [[nodiscard]] i64 tw() const {
    i64 product = 1;
    for (const i64 t : locality) product *= t;
    return product;
  }
};

class RmaRw final : public RwLock {
 public:
  /// Collective. `anchor` places the tree's representatives
  /// (DistributedTree) and each counter inside its T_DC group (counter g at
  /// g·T_DC + anchor mod T_DC, see topo::Topology::counter_hosts); 0 is the
  /// paper's lowest-rank placement.
  RmaRw(rma::World& world, RmaRwParams params, Rank anchor = 0);
  explicit RmaRw(rma::World& world)
      : RmaRw(world, RmaRwParams::defaults(world.topology())) {}

  // Listings 9 / 10.
  void acquire_read(rma::RmaComm& comm) override;
  void release_read(rma::RmaComm& comm) override;
  // Listings 4/7 and 5/8.
  void acquire_write(rma::RmaComm& comm) override;
  void release_write(rma::RmaComm& comm) override;
  /// Timed write: CAS-if-empty climb to the root (never waits behind a
  /// predecessor), then flag + deadline-bounded reader drain. A drain
  /// timeout undoes the claim — counters reopen, the root queue is left
  /// with any successor handed MODE_CHANGE (the readers hold the lock) —
  /// and the attempt retries with backoff. A successful claim releases via
  /// the normal release_write.
  AcquireResult try_acquire_write_for(rma::RmaComm& comm, Nanos deadline_ns,
                                      const RetryPolicy& retry) override;
  [[nodiscard]] std::string name() const override { return "RMA-RW"; }

  [[nodiscard]] const RmaRwParams& params() const { return params_; }
  [[nodiscard]] const DistributedTree& tree() const { return tree_; }

  /// c(p) — the physical counter serving process p (§3.2.1).
  [[nodiscard]] Rank counter_of(Rank p) const {
    return counter_hosts_[static_cast<usize>(p / params_.tdc)];
  }
  [[nodiscard]] const std::vector<Rank>& counter_hosts() const {
    return counter_hosts_;
  }

  /// Window offsets of the physical-counter words (tests/inspection).
  [[nodiscard]] WinOffset arrive_offset() const { return arrive_; }
  [[nodiscard]] WinOffset depart_offset() const { return depart_; }

  // Listing 6 counter manipulation — the writer's mode-switch steps.
  // Public because the distributed counter is a structure in its own right
  // (§3.2.1) and its cost model is pinned by unit tests (the pipelined
  // WRITE-flag broadcast must stay ~1 RTT + one injection slot per
  // counter, see tests/locks/test_rma_rw.cpp). Only meaningful while the
  // caller holds the write lock at the root.
  void set_counters_to_write(rma::RmaComm& comm);
  void drain_readers(rma::RmaComm& comm);
  void reset_counters(rma::RmaComm& comm);

 private:
  /// acquire_read's protocol body; split out so acquire_read can bracket it
  /// with an observability span (the early returns stay structured).
  void acquire_read_impl(rma::RmaComm& comm);

  [[nodiscard]] i64 locality_threshold(i32 q) const {
    return params_.locality[static_cast<usize>(q - 1)];
  }

  // Listing 7 (with the §4.1 read-drain, see docs/DESIGN.md §2.4).
  void acquire_root_writer(rma::RmaComm& comm);
  // Listing 8.
  void release_root_writer(rma::RmaComm& comm);
  // Deadline-bounded drain_readers: false iff the deadline (or poll valve)
  // fired before every counter drained; the WRITE flags stay set.
  bool try_drain_readers(rma::RmaComm& comm, Nanos deadline_ns,
                         const RetryPolicy& retry);
  // Undo of a timed root claim whose drain timed out: reopen the counters
  // and leave the root DQ, handing any successor MODE_CHANGE (the readers
  // hold the lock, exactly the signal a threshold-exhausted release sends).
  void abandon_root_writer(rma::RmaComm& comm);
  // Reader-side counter reset: clears the departed readers but never the
  // WRITE flag (docs/DESIGN.md §2.5 — fixes a mutual-exclusion race in the
  // literal Listing 6/9 composition).
  void reader_reset_counter(rma::RmaComm& comm, Rank counter);

  DistributedTree tree_;
  RmaRwParams params_;
  std::vector<Rank> counter_hosts_;
  WinOffset arrive_;  // per-counter-host arrival count + WRITE flag
  WinOffset depart_;  // per-counter-host departure count
};

}  // namespace rmalock::locks

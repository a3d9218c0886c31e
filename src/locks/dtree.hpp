// DistributedTree — the DQ + DT machinery shared by RMA-MCS and RMA-RW
// (§3.2.2, §3.2.3; Listings 4-5).
//
// One D-MCS queue (DQ) exists per machine element per level; all DQs form a
// tree (DT) mirroring the machine. Queue entries:
//
//   * at the leaf level q = N, processes enqueue their own per-process
//     queue node (NEXT/STATUS words in their own window);
//   * at levels q < N, what queues up are *elements* of level q+1: each such
//     element owns one statically-placed queue node hosted in the window of
//     its representative rank (the element's lowest rank). Whichever process
//     currently acts for the element uses that shared node.
//
// The per-element nodes are the detail that makes the paper's protocols
// well-defined: the process that releases a level upward (Listing 5 line 12)
// is generally *not* the process that enqueued there (the paper's own Fig. 2
// walkthrough: W_x releases level 2 where W1 enqueued), so the node must
// belong to the element — the design of Chabbi et al.'s HMCS, which §2.3.2
// cites as DT's basis (see docs/DESIGN.md §2.2). Queue entries are encoded
// as the *host rank* of the enqueued node; with per-level offsets that
// identifies the node uniquely.
//
// The paper's correctness argument (§4.1) applies: within one element, only
// the current local winner climbs, so an element's node is used by at most
// one process at a time.
#pragma once

#include <vector>

#include "locks/status.hpp"
#include "rma/world.hpp"
#include "topo/topology.hpp"

namespace rmalock::locks {

class DistributedTree {
 public:
  /// Collective: allocates NEXT/STATUS/TAIL words for every level.
  explicit DistributedTree(rma::World& world);

  [[nodiscard]] i32 num_levels() const { return topo_.num_levels(); }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  /// Result of an acquire attempt at one level.
  struct LevelClaim {
    /// True: the lock was passed within this element — the caller holds the
    /// *global* lock and `status` carries the count of consecutive local
    /// acquires. False: the caller became the element's representative and
    /// must acquire the parent level (its STATUS is set to ACQUIRE_START).
    bool acquired = false;
    i64 status = kStatusAcquireStart;
  };

  /// Listing 4 for queue level q (the level-1 variants of RMA-MCS/RMA-RW
  /// add their own handling on top): enqueue into the DQ of the caller's
  /// element at level q, spin until the predecessor passes the lock or
  /// tells us to climb.
  LevelClaim acquire_level(rma::RmaComm& comm, i32 q);

  /// Timed-acquire building block: CAS-if-empty enqueue at level q. Enters
  /// the DQ only when it is empty (tail == nil), so the caller never waits
  /// behind a predecessor — the unbounded spin of acquire_level is replaced
  /// by an instant succeed-or-fail attempt. On success the caller is the
  /// element's representative with STATUS = ACQUIRE_START, exactly like a
  /// contention-free acquire_level winner, so the normal release paths
  /// (try_pass_local / release_root_exclusive / finish_release_upward)
  /// apply unchanged. On failure nothing was enqueued. The exclusivity
  /// argument for the shared element node is the same as acquire_level's:
  /// callers attempt level q only after winning level q+1.
  bool try_enqueue_level(rma::RmaComm& comm, i32 q);

  /// Listing 5 lines 2-9: if a successor exists at level q and the locality
  /// threshold `tl` is not reached, pass the lock (with the incremented
  /// count) and return true — the release is complete. Otherwise return
  /// false: the caller must release the parent level first and then call
  /// finish_release_upward(q).
  bool try_pass_local(rma::RmaComm& comm, i32 q, i64 tl);

  /// Listing 5 lines 13-23: leave the DQ at level q after the parent level
  /// has been released; any (possibly just-arrived) successor is told to
  /// acquire the parent level itself.
  void finish_release_upward(rma::RmaComm& comm, i32 q);

  /// Full release of the root queue for exclusive (RMA-MCS) semantics:
  /// pass to a successor with the incremented count (no threshold — §3.5:
  /// T_L,1 is not applicable without readers), or empty the queue.
  void release_root_exclusive(rma::RmaComm& comm);

  // --- placement ---------------------------------------------------------

  /// Host rank of the queue node the caller uses when enqueuing at queue
  /// level q: itself at the leaf level, the representative of its level-q+1
  /// element above.
  [[nodiscard]] Rank node_host(Rank p, i32 q) const {
    if (q == num_levels()) return p;
    return topo_.rep_rank(q + 1, topo_.element_of(p, q + 1));
  }

  /// The paper's tail_rank[q, e(p,q)]: rank hosting the TAIL pointer of the
  /// DQ serving p's element at level q.
  [[nodiscard]] Rank tail_host(Rank p, i32 q) const {
    return topo_.rep_rank(q, topo_.element_of(p, q));
  }

  [[nodiscard]] WinOffset next_offset(i32 q) const {
    return next_[static_cast<usize>(q - 1)];
  }
  [[nodiscard]] WinOffset status_offset(i32 q) const {
    return status_[static_cast<usize>(q - 1)];
  }
  [[nodiscard]] WinOffset tail_offset(i32 q) const {
    return tail_[static_cast<usize>(q - 1)];
  }

 private:
  topo::Topology topo_;
  // Window offsets, one triple per level (index q-1).
  std::vector<WinOffset> next_;
  std::vector<WinOffset> status_;
  std::vector<WinOffset> tail_;
};

}  // namespace rmalock::locks

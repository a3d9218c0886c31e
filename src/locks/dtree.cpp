#include "locks/dtree.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

DistributedTree::DistributedTree(rma::World& world, Rank anchor)
    : topo_(world.topology()), anchor_(anchor) {
  RMALOCK_CHECK_MSG(anchor_ >= 0 && anchor_ < world.nprocs(),
                    "placement anchor " << anchor_ << " outside [0, "
                                        << world.nprocs() << ")");
  const i32 n = topo_.num_levels();
  next_.reserve(static_cast<usize>(n));
  status_.reserve(static_cast<usize>(n));
  tail_.reserve(static_cast<usize>(n));
  for (i32 q = 1; q <= n; ++q) {
    next_.push_back(world.allocate(1));
    status_.push_back(world.allocate(1));
    tail_.push_back(world.allocate(1));
  }
  for (Rank r = 0; r < world.nprocs(); ++r) {
    for (i32 q = 1; q <= n; ++q) {
      world.write_word(r, next_offset(q), kNilRank);
      world.write_word(r, status_offset(q), kStatusWait);
      world.write_word(r, tail_offset(q), kNilRank);
    }
  }
}

// Listing 4.
DistributedTree::LevelClaim DistributedTree::acquire_level(rma::RmaComm& comm,
                                                           i32 q) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  const WinOffset next = next_offset(q);
  const WinOffset status_off = status_offset(q);

  comm.iput(kNilRank, node, next);
  comm.iput(kStatusWait, node, status_off);
  comm.flush(node);
  // Enter the DQ at level q within this machine element.
  const Rank tail_rank = tail_host(p, q);
  const i64 pred = comm.fao(node, tail_rank, tail_offset(q),
                            rma::AccumOp::kReplace);
  comm.flush(tail_rank);
  if (pred != kNilRank) {
    // Make the predecessor see us.
    comm.iput(node, static_cast<Rank>(pred), next);
    comm.flush(static_cast<Rank>(pred));
    i64 status = kStatusWait;
    do {  // wait until the predecessor passes the lock
      status = comm.get(node, status_off);
      comm.flush(node);
    } while (status == kStatusWait);
    // If the predecessor released the lock to the parent level (T_L,q was
    // reached), we must acquire it there ourselves; otherwise the lock was
    // passed to us and we directly own the global lock.
    if (status != kStatusAcquireParent) {
      return LevelClaim{/*acquired=*/true, status};
    }
  }
  // Start to acquire the next level of the tree.
  comm.iput(kStatusAcquireStart, node, status_off);
  comm.flush(node);
  return LevelClaim{/*acquired=*/false, kStatusAcquireStart};
}

bool DistributedTree::try_enqueue_level(rma::RmaComm& comm, i32 q) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  // Prepare the node before publishing it: an empty-queue winner starts at
  // ACQUIRE_START directly (there is no predecessor to pass us anything).
  comm.iput(kNilRank, node, next_offset(q));
  comm.iput(kStatusAcquireStart, node, status_offset(q));
  comm.flush(node);
  const Rank tail_rank = tail_host(p, q);
  const i64 prev = comm.cas(node, kNilRank, tail_rank, tail_offset(q));
  comm.flush(tail_rank);
  return prev == kNilRank;
}

// Listing 5, lines 2-9.
bool DistributedTree::try_pass_local(rma::RmaComm& comm, i32 q, i64 tl) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  const i64 succ = comm.get(node, next_offset(q));
  const i64 status = comm.get(node, status_offset(q));
  comm.flush(node);
  if (succ != kNilRank && status < tl) {
    // Pass the lock to succ at this level together with the number of past
    // lock passings within this machine element.
    comm.iput(status + 1, static_cast<Rank>(succ), status_offset(q));
    comm.flush(static_cast<Rank>(succ));
    return true;
  }
  return false;
}

// Listing 5, lines 13-23 (runs after the parent level has been released).
void DistributedTree::finish_release_upward(rma::RmaComm& comm, i32 q) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  const WinOffset next = next_offset(q);
  i64 succ = comm.get(node, next);
  comm.flush(node);
  if (succ == kNilRank) {
    // Check whether some process has just enqueued itself.
    const Rank tail_rank = tail_host(p, q);
    const i64 current = comm.cas(kNilRank, node, tail_rank, tail_offset(q));
    comm.flush(tail_rank);
    if (current == node) return;  // queue empty: fully dequeued
    do {  // otherwise wait until the successor makes itself visible
      succ = comm.get(node, next);
      comm.flush(node);
    } while (succ == kNilRank);
  }
  // Notify succ to acquire the lock at the parent level.
  comm.iput(kStatusAcquireParent, static_cast<Rank>(succ), status_offset(q));
  comm.flush(static_cast<Rank>(succ));
}

void DistributedTree::release_root_exclusive(rma::RmaComm& comm) {
  const i32 q = 1;
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  i64 succ = comm.get(node, next_offset(q));
  const i64 status = comm.get(node, status_offset(q));
  comm.flush(node);
  if (succ == kNilRank) {
    const Rank tail_rank = tail_host(p, q);
    const i64 current = comm.cas(kNilRank, node, tail_rank, tail_offset(q));
    comm.flush(tail_rank);
    if (current == node) return;  // only entry in the root queue
    do {
      succ = comm.get(node, next_offset(q));
      comm.flush(node);
    } while (succ == kNilRank);
  }
  // Pass the root lock with the incremented count (never ACQUIRE_PARENT:
  // the root has no parent, and without readers no threshold applies).
  comm.iput(status + 1, static_cast<Rank>(succ), status_offset(q));
  comm.flush(static_cast<Rank>(succ));
}

}  // namespace rmalock::locks

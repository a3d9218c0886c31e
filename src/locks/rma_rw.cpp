#include "locks/rma_rw.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

RmaRw::RmaRw(rma::World& world, RmaRwParams params)
    : tree_(world),
      params_(std::move(params)),
      counter_hosts_(world.topology().counter_hosts(params_.tdc)),
      arrive_(world.allocate(1)),
      depart_(world.allocate(1)) {
  RMALOCK_CHECK_MSG(params_.locality.size() ==
                        static_cast<usize>(tree_.num_levels()),
                    "RmaRwParams::locality needs one threshold per level");
  for (const i64 t : params_.locality) {
    RMALOCK_CHECK_MSG(t >= 1, "T_L must be >= 1 at every level");
  }
  RMALOCK_CHECK_MSG(params_.tr >= 1, "T_R must be >= 1");
  RMALOCK_CHECK_MSG(params_.tr < kWriteFlagThreshold / 2,
                    "T_R too large for the WRITE-flag encoding");
  for (Rank r = 0; r < world.nprocs(); ++r) {
    world.write_word(r, arrive_, 0);
    world.write_word(r, depart_, 0);
  }
}

// ---------------------------------------------------------------------------
// Counter manipulation (Listing 6)
// ---------------------------------------------------------------------------

void RmaRw::set_counters_to_write(rma::RmaComm& comm) {
  // Raise the WRITE flag on every counter: blocks new readers (their FAO
  // result jumps past T_R, so they back off). The flags are independent, so
  // issue them all nonblocking and complete them in one flush round: the
  // broadcast pipelines in the NIC and costs ~1 round trip + one injection
  // slot per counter instead of one full round trip per counter.
  for (const Rank host : counter_hosts_) {
    comm.iaccumulate(kWriteFlag, host, arrive_, rma::AccumOp::kSum);
  }
  for (const Rank host : counter_hosts_) {
    comm.flush(host);
  }
}

void RmaRw::drain_readers(rma::RmaComm& comm) {
  // §4.1: after changing all counters the writer "checks each counter
  // again for active readers" — wait until every reader that slipped in
  // before the flag has left the CS (ARRIVE - flag == DEPART; back-offs
  // cancel their own arrivals).
  for (const Rank host : counter_hosts_) {
    for (;;) {
      const i64 arrived = comm.get(host, arrive_);
      const i64 departed = comm.get(host, depart_);
      comm.flush(host);
      if (arrived < kWriteFlagThreshold) {
        // Defensive self-healing: the flag can only disappear through a
        // counter reset; re-apply and re-check (cannot fire with the
        // flag-preserving reader reset, see docs/DESIGN.md §2.5).
        comm.iaccumulate(kWriteFlag, host, arrive_, rma::AccumOp::kSum);
        comm.flush(host);
        continue;
      }
      if (arrived - kWriteFlag == departed) break;
    }
  }
}

void RmaRw::reset_counters(rma::RmaComm& comm) {
  // Pipelined, in the *original* per-host op order (read, read, clear
  // DEPART, clear ARRIVE — so recorded schedules keep replaying
  // bit-identically over this path, see tests/mc/test_replay_compat.cpp).
  //
  // Per counter the invariant is unchanged: DEPART is cleared *before*
  // ARRIVE drops below the flag threshold — once readers can run again, a
  // reader-side reset may claim the DEPART quantum by CAS (see
  // reader_reset_counter); clearing it first means such a claim can only
  // see 0 and back off, never double-subtract. The flush between the two
  // iaccumulates pins that ordering (it is the nonblocking ops' ordering
  // point). Only the ARRIVE clear's acknowledgement is deferred: it
  // overlaps with the next counter's reads and is collected by the
  // trailing flush round.
  for (const Rank host : counter_hosts_) {
    const i64 arrived = comm.get(host, arrive_);
    const i64 departed = comm.get(host, depart_);
    comm.flush(host);
    i64 sub_arrive = -departed;
    if (arrived >= kWriteFlagThreshold) {
      sub_arrive -= kWriteFlag;  // reset the WRITE mode if it was set
    }
    comm.iaccumulate(-departed, host, depart_, rma::AccumOp::kSum);
    comm.flush(host);  // DEPART cleared before ARRIVE moves
    comm.iaccumulate(sub_arrive, host, arrive_, rma::AccumOp::kSum);
  }
  for (const Rank host : counter_hosts_) {
    comm.flush(host);
  }
}

void RmaRw::reader_reset_counter(rma::RmaComm& comm, Rank counter) {
  if (params_.paper_faithful_reader_reset) {
    // Listing 6's reset_counter verbatim — subtracts the WRITE flag if it
    // is set, which admits the mutual-exclusion race of docs/DESIGN.md §2.5.
    const i64 arrived = comm.get(counter, arrive_);
    const i64 departed = comm.get(counter, depart_);
    comm.flush(counter);
    i64 sub_arrive = -departed;
    if (arrived >= kWriteFlagThreshold) sub_arrive -= kWriteFlag;
    comm.accumulate(sub_arrive, counter, arrive_, rma::AccumOp::kSum);
    comm.accumulate(-departed, counter, depart_, rma::AccumOp::kSum);
    comm.flush(counter);
    return;
  }
  // Reclaim the departed quantum exactly once: claim DEPART by CAS'ing it
  // to zero, then subtract the claimed amount from ARRIVE. Blind paired
  // subtraction (the literal Listing 6 shape) is not safe once resets are
  // concurrent (docs/DESIGN.md §2.6): two resetters reading the same DEPART
  // both subtract it, the words go negative, and subsequent resets of
  // negative values swing ARRIVE with growing amplitude — eventually into
  // the WRITE-flag range with no writer around to clear it. The CAS claim
  // also never touches the WRITE flag, so a reader whose "no writers
  // waiting" check went stale cannot erase a just-arrived writer's flag
  // (docs/DESIGN.md §2.5).
  const i64 departed = comm.get(counter, depart_);
  comm.flush(counter);
  if (departed <= 0) return;  // nothing to reclaim (or already claimed)
  const i64 previous = comm.cas(0, departed, counter, depart_);
  comm.flush(counter);
  if (previous != departed) return;  // another resetter claimed it
  comm.iaccumulate(-departed, counter, arrive_, rma::AccumOp::kSum);
  comm.flush(counter);
}

// ---------------------------------------------------------------------------
// Readers (Listings 9 / 10)
// ---------------------------------------------------------------------------

void RmaRw::acquire_read(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquireRead);
    acquire_read_impl(comm);
  }
  rma::obs_event(comm, obs::EventCode::kReadSection, obs::Phase::kBegin);
}

void RmaRw::acquire_read_impl(rma::RmaComm& comm) {
  const Rank counter = counter_of(comm.rank());
  const Rank root_tail = tree_.tail_host(comm.rank(), 1);
  bool done = false;
  bool barrier = false;
  while (!done) {
    if (barrier) {
      // Wait for the counter to come back under T_R. Listing 9 waits
      // passively, relying on the exact T_R-th arrival to have performed
      // the reset — but concurrent back-off decrements can reorder the
      // observed FAO values so that *no* reader sees exactly T_R while the
      // root queue is empty, leaving ARRIVE stuck at >= T_R forever (see
      // docs/DESIGN.md §2.6). Backed-off readers therefore share the reset
      // duty: whoever observes a plain (unflagged) T_R overrun with no
      // writer queued reclaims the departed count (exactly once, via the
      // CAS claim in reader_reset_counter).
      for (;;) {
        const i64 current = comm.get(counter, arrive_);
        comm.flush(counter);
        if (current < params_.tr) break;  // counter reopened
        if (current < kWriteFlagThreshold) {  // T_R overrun, no WRITE flag
          const i64 tail = comm.get(root_tail, tree_.tail_offset(1));
          comm.flush(root_tail);
          if (tail == kNilRank) {  // no waiting writers: reopen ourselves
            reader_reset_counter(comm, counter);
          }
          // Otherwise a writer is queued: it will flag, drain, and reset.
        }
      }
    }
    // Increment the arrival counter.
    const i64 current = comm.fao(1, counter, arrive_, rma::AccumOp::kSum);
    comm.flush(counter);
    if (current >= params_.tr) {  // T_R reached (or WRITE mode)
      barrier = true;
      if (current == params_.tr) {  // we are the first to reach T_R
        // Pass the lock to the writers if any are waiting at the root.
        const i64 tail = comm.get(root_tail, tree_.tail_offset(1));
        comm.flush(root_tail);
        if (tail == kNilRank) {  // no waiting writers: keep reading
          reader_reset_counter(comm, counter);
          barrier = false;
        }
      }
      // Back off and try again.
      comm.iaccumulate(-1, counter, arrive_, rma::AccumOp::kSum);
      comm.flush(counter);
    } else {
      done = true;  // admitted: we are in the CS
    }
  }
}

AcquireResult RmaRw::try_acquire_read_for(rma::RmaComm& comm,
                                          Nanos deadline_ns,
                                          const RetryPolicy& retry) {
  AcquireResult result{};
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquireRead, /*a=*/1);
    const Rank counter = counter_of(comm.rank());
    const Rank root_tail = tree_.tail_host(comm.rank(), 1);
    u32 attempts = 0;
    for (;;) {
      ++attempts;
      const i64 current = comm.fao(1, counter, arrive_, rma::AccumOp::kSum);
      comm.flush(counter);
      if (current < params_.tr) {
        result = AcquireResult{AcquireStatus::kAcquired, attempts};
        break;
      }
      // T_R overrun or WRITE mode: cancel the arrival — a timed-out reader
      // must hold nothing — and retry with backoff instead of parking.
      comm.iaccumulate(-1, counter, arrive_, rma::AccumOp::kSum);
      comm.flush(counter);
      if (current < kWriteFlagThreshold) {
        // Plain overrun: keep the shared reader-side reset duty (see
        // acquire_read) so timed readers do not strand a writer-free
        // counter.
        const i64 tail = comm.get(root_tail, tree_.tail_offset(1));
        comm.flush(root_tail);
        if (tail == kNilRank) reader_reset_counter(comm, counter);
      }
      if (attempts >= retry.max_attempts || comm.now_ns() >= deadline_ns) {
        result = AcquireResult{AcquireStatus::kTimeout, attempts};
        break;
      }
      const Nanos delay = retry.delay_for(attempts - 1, comm.rng());
      if (delay > 0) comm.compute(delay);
    }
  }
  if (result.status == AcquireStatus::kAcquired) {
    rma::obs_event(comm, obs::EventCode::kReadSection, obs::Phase::kBegin);
  }
  return result;
}

void RmaRw::release_read(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kReadSection, obs::Phase::kEnd);
  const Rank counter = counter_of(comm.rank());
  comm.iaccumulate(1, counter, depart_, rma::AccumOp::kSum);
  comm.flush(counter);
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

void RmaRw::acquire_write(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire);
    bool passed = false;
    for (i32 q = tree_.num_levels(); q >= 2; --q) {
      const DistributedTree::LevelClaim claim = tree_.acquire_level(comm, q);
      if (claim.acquired) {  // lock passed within our element
        passed = true;
        break;
      }
    }
    if (!passed) acquire_root_writer(comm);
  }
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kBegin);
}

// Listing 7.
void RmaRw::acquire_root_writer(rma::RmaComm& comm) {
  const i32 q = 1;
  const Rank p = comm.rank();
  const Rank node = tree_.node_host(p, q);
  const WinOffset status_off = tree_.status_offset(q);

  comm.iput(kNilRank, node, tree_.next_offset(q));
  comm.iput(kStatusWait, node, status_off);
  comm.flush(node);  // prepare to enter the DQ
  // Enqueue at the end of the root DQ.
  const Rank tail_rank = tree_.tail_host(p, q);
  const i64 pred =
      comm.fao(node, tail_rank, tree_.tail_offset(q), rma::AccumOp::kReplace);
  comm.flush(tail_rank);

  if (pred != kNilRank) {  // there is a predecessor
    comm.iput(node, static_cast<Rank>(pred), tree_.next_offset(q));
    comm.flush(static_cast<Rank>(pred));
    i64 status = kStatusWait;
    do {  // wait until the predecessor notifies us
      status = comm.get(node, status_off);
      comm.flush(node);
    } while (status == kStatusWait);
    if (status == kStatusModeChange) {
      // The readers have the lock now; take it back.
      set_counters_to_write(comm);
      drain_readers(comm);
      comm.iput(kStatusAcquireStart, node, status_off);
      comm.flush(node);
    }
    // Otherwise: writer-to-writer pass — counters are already in WRITE
    // mode and `status` carries the root pass count.
  } else {  // no predecessor: take the lock from the readers
    set_counters_to_write(comm);
    drain_readers(comm);
    comm.iput(kStatusAcquireStart, node, status_off);
    comm.flush(node);
  }
}

bool RmaRw::try_drain_readers(rma::RmaComm& comm, Nanos deadline_ns,
                              const RetryPolicy& retry) {
  for (const Rank host : counter_hosts_) {
    u32 polls = 0;
    for (;;) {
      if (++polls > retry.max_attempts || comm.now_ns() >= deadline_ns) {
        return false;
      }
      const i64 arrived = comm.get(host, arrive_);
      const i64 departed = comm.get(host, depart_);
      comm.flush(host);
      if (arrived < kWriteFlagThreshold) {
        // Same defensive re-flag as the blocking drain.
        comm.iaccumulate(kWriteFlag, host, arrive_, rma::AccumOp::kSum);
        comm.flush(host);
        continue;
      }
      if (arrived - kWriteFlag == departed) break;
    }
  }
  return true;
}

void RmaRw::abandon_root_writer(rma::RmaComm& comm) {
  const i32 q = 1;
  const Rank p = comm.rank();
  const Rank node = tree_.node_host(p, q);
  // Reopen the counters first: the flags were ours, and readers must not
  // stay blocked by a writer that is giving up.
  reset_counters(comm);
  i64 succ = comm.get(node, tree_.next_offset(q));
  comm.flush(node);
  if (succ == kNilRank) {
    const Rank tail_rank = tree_.tail_host(p, q);
    const i64 current =
        comm.cas(kNilRank, node, tail_rank, tree_.tail_offset(q));
    comm.flush(tail_rank);
    if (current == node) return;  // queue empty: the readers have the lock
    do {  // a successor is mid-enqueue: wait for it to become visible
      succ = comm.get(node, tree_.next_offset(q));
      comm.flush(node);
    } while (succ == kNilRank);
  }
  comm.iput(kStatusModeChange, static_cast<Rank>(succ),
            tree_.status_offset(q));
  comm.flush(static_cast<Rank>(succ));
}

AcquireResult RmaRw::try_acquire_write_for(rma::RmaComm& comm,
                                           Nanos deadline_ns,
                                           const RetryPolicy& retry) {
  AcquireResult result{};
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire, /*a=*/1);
    u32 attempts = 0;
    for (;;) {
      ++attempts;
      i32 q = tree_.num_levels();
      bool won = true;
      for (; q >= 1; --q) {
        if (!tree_.try_enqueue_level(comm, q)) {
          won = false;
          break;
        }
      }
      if (won) {
        // Sole entry at the root: take the lock from the readers, but bound
        // the drain by the deadline — a straggling reader must not convert
        // a timed acquire into an unbounded wait.
        set_counters_to_write(comm);
        if (try_drain_readers(comm, deadline_ns, retry)) {
          result = AcquireResult{AcquireStatus::kAcquired, attempts};
          break;
        }
        abandon_root_writer(comm);
        for (i32 up = 2; up <= tree_.num_levels(); ++up) {
          tree_.finish_release_upward(comm, up);
        }
      } else {
        // Busy at level q (never entered it): abandon the levels we won.
        for (i32 up = q + 1; up <= tree_.num_levels(); ++up) {
          tree_.finish_release_upward(comm, up);
        }
      }
      if (attempts >= retry.max_attempts || comm.now_ns() >= deadline_ns) {
        result = AcquireResult{AcquireStatus::kTimeout, attempts};
        break;
      }
      const Nanos delay = retry.delay_for(attempts - 1, comm.rng());
      if (delay > 0) comm.compute(delay);
    }
  }
  if (result.status == AcquireStatus::kAcquired) {
    rma::obs_event(comm, obs::EventCode::kCriticalSection,
                   obs::Phase::kBegin);
  }
  return result;
}

void RmaRw::release_write(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kEnd);
  i32 q = tree_.num_levels();
  while (q >= 2 && !tree_.try_pass_local(comm, q, locality_threshold(q))) {
    --q;
  }
  if (q == 1) release_root_writer(comm);
  for (i32 up = q + 1; up <= tree_.num_levels(); ++up) {
    tree_.finish_release_upward(comm, up);
  }
}

// Listing 8.
void RmaRw::release_root_writer(rma::RmaComm& comm) {
  const i32 q = 1;
  const Rank p = comm.rank();
  const Rank node = tree_.node_host(p, q);
  const WinOffset status_off = tree_.status_offset(q);

  bool counters_reset = false;
  // Count of consecutive root-level lock passes.
  i64 next_stat = comm.get(node, status_off);
  comm.flush(node);
  if (++next_stat >= locality_threshold(1)) {
    // T_W reached: pass the lock to the readers.
    reset_counters(comm);
    next_stat = kStatusModeChange;
    counters_reset = true;
  }
  i64 succ = comm.get(node, tree_.next_offset(q));
  comm.flush(node);
  if (succ == kNilRank) {  // no known successor
    if (!counters_reset) {
      reset_counters(comm);  // pass the lock to the readers
      next_stat = kStatusModeChange;
    }
    // Check whether some writer has already entered the DQ.
    const Rank tail_rank = tree_.tail_host(p, q);
    const i64 current =
        comm.cas(kNilRank, node, tail_rank, tree_.tail_offset(q));
    comm.flush(tail_rank);
    if (current == node) return;  // queue empty: the readers have the lock
    do {  // wait until the successor makes itself visible
      succ = comm.get(node, tree_.next_offset(q));
      comm.flush(node);
    } while (succ == kNilRank);
  }
  // Pass the lock (or the MODE_CHANGE notification) to the successor.
  comm.iput(next_stat, static_cast<Rank>(succ), status_off);
  comm.flush(static_cast<Rank>(succ));
}

}  // namespace rmalock::locks

#include "locks/rma_mcs.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

RmaMcs::RmaMcs(rma::World& world, RmaMcsParams params, Rank anchor)
    : tree_(world, anchor), params_(std::move(params)) {
  RMALOCK_CHECK_MSG(params_.locality.size() ==
                        static_cast<usize>(tree_.num_levels()),
                    "RmaMcsParams::locality needs one threshold per level");
  for (usize q = 1; q < params_.locality.size(); ++q) {
    RMALOCK_CHECK_MSG(params_.locality[q] >= 1,
                      "T_L must be >= 1 at every level");
  }
}

void RmaMcs::acquire(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire);
    for (i32 q = tree_.num_levels(); q >= 1; --q) {
      const DistributedTree::LevelClaim claim = tree_.acquire_level(comm, q);
      if (claim.acquired) {
        // The lock was passed to us within our element at level q: we hold
        // the global lock (the element keeps its positions above level q).
        RMALOCK_CHECK_MSG(q > 1 || claim.status != kStatusAcquireParent,
                          "root must never delegate upward");
        break;
      }
    }
    // Climbed past the root with no predecessor anywhere: we own the lock.
  }
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kBegin);
}

AcquireResult RmaMcs::try_acquire_for(rma::RmaComm& comm, Nanos deadline_ns,
                                      const RetryPolicy& retry) {
  AcquireResult result{};
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire, /*a=*/1);
    u32 attempts = 0;
    for (;;) {
      ++attempts;
      // One attempt: claim every level leaf..root via CAS-if-empty — each
      // claim makes us the element's representative exactly like a
      // contention-free acquire_level, never blocking behind a predecessor.
      i32 q = tree_.num_levels();
      bool won = true;
      for (; q >= 1; --q) {
        if (!tree_.try_enqueue_level(comm, q)) {
          won = false;
          break;
        }
      }
      if (won) {
        result = AcquireResult{AcquireStatus::kAcquired, attempts};
        break;
      }
      // Busy at level q (never entered it): abandon the levels we did win
      // through the normal release-upward path — any successor that
      // meanwhile enqueued behind us is told to acquire the parent level
      // itself, the same handoff a threshold-exhausted release performs.
      for (i32 up = q + 1; up <= tree_.num_levels(); ++up) {
        tree_.finish_release_upward(comm, up);
      }
      // The attempts valve fires even when the clock is frozen (see
      // RetryPolicy::max_attempts); the deadline governs the common case.
      if (attempts >= retry.max_attempts ||
          comm.now_ns() >= deadline_ns) {
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

void RmaMcs::release(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kEnd);
  // Descend from the leaf: the first level where a successor exists and
  // T_L,q is not exhausted takes the lock locally (Listing 5 lines 2-9).
  i32 q = tree_.num_levels();
  while (q >= 2 && !tree_.try_pass_local(comm, q, locality_threshold(q))) {
    --q;
  }
  if (q == 1) {
    tree_.release_root_exclusive(comm);
  }
  // Unwind: leave every level whose threshold forced us upward, telling
  // any successor there to acquire the (already released) parent level.
  for (i32 up = q + 1; up <= tree_.num_levels(); ++up) {
    tree_.finish_release_upward(comm, up);
  }
}

}  // namespace rmalock::locks

// Planted-bug lock fixtures for the model-checker test suite.
//
// These are true positives: locks with a deliberately injected protocol bug
// that the random, PCT, and bounded-exhaustive checkers must all detect
// (and whose shrunk counterexamples must replay deterministically). The
// second planted bug — an RW lock whose reader-side counter reset clobbers
// the WRITE flag — is not re-implemented here because the real RmaRw
// already carries it behind RmaRwParams::paper_faithful_reader_reset
// (docs/DESIGN.md §2.5); tests instantiate that directly.
#pragma once

#include <string>

#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::mc::test {

/// A minimal home-hosted MCS queue lock with an optional planted bug:
/// with `drop_handoff` the release path "forgets" the handoff write that
/// clears the successor's spin flag, so the successor blocks forever and
/// the engine must report a deadlock (the checker's deadlock-freedom
/// property catches it; mutual exclusion still holds).
class PlantedMcs final : public locks::ExclusiveLock {
 public:
  /// Collective. The queue tail lives on rank 0.
  PlantedMcs(rma::World& world, bool drop_handoff)
      : drop_handoff_(drop_handoff),
        tail_(world.allocate(1)),
        next_(world.allocate(1)),
        locked_(world.allocate(1)) {
    for (Rank r = 0; r < world.nprocs(); ++r) {
      world.write_word(r, tail_, kNilRank);
      world.write_word(r, next_, kNilRank);
      world.write_word(r, locked_, 0);
    }
  }

  void acquire(rma::RmaComm& comm) override {
    const Rank me = comm.rank();
    comm.put(kNilRank, me, next_);
    comm.put(1, me, locked_);
    comm.flush(me);
    // Swap ourselves in as the tail; the previous tail is our predecessor.
    const i64 pred = comm.fao(me, 0, tail_, rma::AccumOp::kReplace);
    comm.flush(0);
    if (pred == kNilRank) return;  // lock was free
    comm.put(me, static_cast<Rank>(pred), next_);
    comm.flush(static_cast<Rank>(pred));
    while (comm.get(me, locked_) != 0) {
      comm.flush(me);
    }
  }

  void release(rma::RmaComm& comm) override {
    const Rank me = comm.rank();
    i64 succ = comm.get(me, next_);
    comm.flush(me);
    if (succ == kNilRank) {
      if (comm.cas(kNilRank, me, 0, tail_) == me) return;  // no successor
      comm.flush(0);
      do {  // a successor is linking itself: wait for the pointer
        succ = comm.get(me, next_);
        comm.flush(me);
      } while (succ == kNilRank);
    }
    // THE PLANTED BUG: dropping this handoff leaves the successor spinning
    // on its locked flag forever.
    if (!drop_handoff_) {
      comm.put(0, static_cast<Rank>(succ), locked_);
      comm.flush(static_cast<Rank>(succ));
    }
  }

  [[nodiscard]] std::string name() const override {
    return drop_handoff_ ? "PlantedMcs[drop-handoff]" : "PlantedMcs";
  }

 private:
  bool drop_handoff_;
  WinOffset tail_;    // queue tail, on rank 0
  WinOffset next_;    // successor pointer, per rank
  WinOffset locked_;  // spin flag, per rank
};

}  // namespace rmalock::mc::test

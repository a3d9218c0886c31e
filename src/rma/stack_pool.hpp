// Fiber-stack pool: reuses stacks across SimWorld instances.
//
// Benchmark sweeps and model-checking campaigns construct a fresh SimWorld
// per measurement point / explored schedule — at ~3e5 schedules per
// exhaustive sweep, allocating (and zero-initializing) P stacks per world
// dominates wall time through page faulting alone; the mc_verification
// --exhaustive sweep spent half its runtime in the kernel before pooling.
// The pool keeps released stacks on thread-local free lists keyed by size,
// so a sweep touches each stack page once instead of once per world.
//
// Thread-locality makes the pool lock-free and is sufficient: all fibers of
// a SimWorld run on the thread that calls run(), and worlds are created and
// destroyed on that same thread in every existing driver. Stacks are never
// zeroed on reuse — fiber entry rebuilds its frame from scratch, and a
// simulated process only ever reads stack memory it wrote. Under ASan a
// reused stack is unpoisoned instead: its last fiber never unwound.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace rmalock::rma {

class StackPool {
 public:
  /// The calling thread's pool.
  static StackPool& local();

  /// A stack of exactly `bytes` bytes: reused if one is pooled, freshly
  /// allocated (uninitialized) otherwise.
  [[nodiscard]] std::unique_ptr<char[]> acquire(usize bytes);

  /// Returns a stack obtained from acquire(bytes) to the pool. Frees it
  /// instead when the pool already holds kMaxPooledBytes.
  void release(std::unique_ptr<char[]> stack, usize bytes);

  /// Bytes currently pooled on this thread (tests/inspection).
  [[nodiscard]] usize pooled_bytes() const { return pooled_bytes_; }

  /// Frees every pooled stack (tests; memory-pressure escape hatch).
  void clear();

  /// Cap on pooled bytes per thread: a P=1024 sweep with the default
  /// 256 KiB stacks keeps exactly one generation of stacks resident.
  static constexpr usize kMaxPooledBytes = usize{512} * 1024 * 1024;

 private:
  struct SizeClass {
    usize bytes = 0;
    std::vector<std::unique_ptr<char[]>> stacks;
  };

  // Few distinct sizes in practice (the SimOptions default and the MC
  // explorer's small stacks): linear scan beats a map.
  std::vector<SizeClass> classes_;
  usize pooled_bytes_ = 0;
};

}  // namespace rmalock::rma

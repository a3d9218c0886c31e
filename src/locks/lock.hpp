// Lock interfaces.
//
// Lock objects are immutable shared descriptors: construction is collective
// (it allocates window offsets and initializes window words through the
// World), after which any process may call the protocol methods with its own
// RmaComm. All mutable protocol state lives in RMA windows, exactly as in
// the paper — the C++ object carries only offsets, parameters, and the
// topology.
#pragma once

#include <string>

#include "locks/deadline.hpp"
#include "rma/comm.hpp"

namespace rmalock::locks {

/// Mutual-exclusion lock: one process in the critical section at a time.
class ExclusiveLock {
 public:
  virtual ~ExclusiveLock() = default;

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

  virtual void acquire(rma::RmaComm& comm) = 0;
  virtual void release(rma::RmaComm& comm) = 0;

  /// Deadline-bounded acquire: tries until `deadline_ns` (absolute, in the
  /// caller's now_ns() timeline), backing off between attempts per
  /// `retry`. On kAcquired the caller releases as usual; on kTimeout
  /// nothing is held. The default has no timed path and falls back to the
  /// blocking acquire — always correct, never times out.
  virtual AcquireResult try_acquire_for(rma::RmaComm& comm, Nanos deadline_ns,
                                        const RetryPolicy& retry) {
    (void)deadline_ns;
    (void)retry;
    acquire(comm);
    return AcquireResult{};
  }

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  ExclusiveLock() = default;
};

/// Reader-writer lock: concurrent readers or one exclusive writer (§2.2.1).
class RwLock {
 public:
  virtual ~RwLock() = default;

  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  virtual void acquire_read(rma::RmaComm& comm) = 0;
  virtual void release_read(rma::RmaComm& comm) = 0;
  virtual void acquire_write(rma::RmaComm& comm) = 0;
  virtual void release_write(rma::RmaComm& comm) = 0;

  /// Deadline-bounded writer acquire (see ExclusiveLock::try_acquire_for).
  /// The default falls back to the blocking path.
  virtual AcquireResult try_acquire_write_for(rma::RmaComm& comm,
                                              Nanos deadline_ns,
                                              const RetryPolicy& retry) {
    (void)deadline_ns;
    (void)retry;
    acquire_write(comm);
    return AcquireResult{};
  }

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  RwLock() = default;
};

}  // namespace rmalock::locks

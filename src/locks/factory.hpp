// Central lock factory — one name per backend, one construction path.
//
// Before LockSpace, every harness that needed "a lock of kind X" grew its
// own switch (the conformance matrix, the MC workload registry, the figure
// benches). LockSpace multiplexes thousands of lock instances and needs the
// same choice as data, so the switch lives here once: a Backend enum, name
// round-tripping for CLIs and JSON records, and make_exclusive / make_rw
// constructors that accept an optional home rank.
//
// Home semantics: every backend is placed at `home`. The centralized
// protocols (foMPI-Spin, foMPI-RW) host their single lock word there; D-MCS
// hosts its tail pointer there; the lease backends host their lease word
// there. The hierarchical locks (RMA-MCS, DTree, RMA-RW) take `home` as
// their placement anchor: the root tail sits on `home`, every other
// element is represented by the rank at offset home mod |element| inside
// it, and RMA-RW's counter g sits at g·T_DC + home mod T_DC
// (docs/DESIGN.md §2.7). Home 0 (the default) is the paper's lowest-rank
// placement.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {

enum class Backend : u8 {
  kFompiSpin,  // centralized TTS spinlock (exclusive)
  kDMcs,       // distributed MCS queue (exclusive)
  kRmaMcs,     // topology-aware MCS (exclusive)
  kDTree,      // DistributedTree driven as an exclusive lock (T_L = 1)
  kFompiRw,    // centralized reader-writer (rw)
  kRmaRw,      // topology-aware reader-writer (rw)
  kLeaseMcs,   // LeaseExclusive over RMA-MCS (crash recovery; exclusive)
  kLeaseRw,    // LeaseExclusive over RMA-RW writer mode (crash recovery)
};

/// True iff the backend implements the RwLock interface (reader
/// concurrency); the others are exclusive-only.
[[nodiscard]] constexpr bool backend_is_rw(Backend b) {
  return b == Backend::kFompiRw || b == Backend::kRmaRw;
}

/// Stable identifier, e.g. "rma-rw" — used in bench series names, CLI
/// flags, and MC workload ids.
[[nodiscard]] const char* backend_name(Backend b);

/// Inverse of backend_name(); nullopt for unknown names.
[[nodiscard]] std::optional<Backend> backend_from_name(const std::string&);

/// All backends, in declaration order (test matrices iterate this).
[[nodiscard]] const std::vector<Backend>& all_backends();

/// Collective: constructs one exclusive lock of the given backend. RW
/// backends are adapted (acquire == acquire_write) so every backend can
/// serve exclusive callers. `home` as documented above; kNilRank = rank 0.
std::unique_ptr<ExclusiveLock> make_exclusive(Backend b, rma::World& world,
                                              Rank home = kNilRank);

/// Collective: constructs one reader-writer lock. Exclusive-only backends
/// return nullptr — callers that need shared mode must check
/// backend_is_rw() first.
std::unique_ptr<RwLock> make_rw(Backend b, rma::World& world,
                                Rank home = kNilRank);

}  // namespace rmalock::locks

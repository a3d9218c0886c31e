// World — a set of P processes with RMA windows, able to run SPMD bodies.
//
// Usage mirrors an MPI program:
//
//   auto world = rma::SimWorld::create(opts);
//   locks::RmaRw lock(*world, params);      // collective: allocates window
//   world->run([&](rma::RmaComm& comm) {    // like MPI_Init..Finalize
//     lock.acquire_read(comm);
//     ...
//     lock.release_read(comm);
//   });
//
// Window words persist across run() calls, so a world can execute warmup
// and measurement phases (or a sequence of tests) against the same lock
// state. Offsets are allocated collectively before any run.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "rma/comm.hpp"
#include "topo/topology.hpp"

namespace rmalock::rma {

/// The injectable fault kinds, in the order of SimWorld's fault table
/// (SimWorld::fault_pick), which is also their pick-encoding order.
enum class FaultKind : u8 { kCrash, kTear, kDelay, kPartition, kDrift };
inline constexpr usize kNumFaultKinds = 5;

/// Events injected per fault kind (RunResult::injected).
struct FaultCounts {
  std::array<u64, kNumFaultKinds> n{};

  u64& operator[](FaultKind kind) { return n[static_cast<usize>(kind)]; }
  u64 operator[](FaultKind kind) const { return n[static_cast<usize>(kind)]; }
};

/// A recorded schedule: the rank chosen at every scheduler decision point of
/// a SimWorld run under a list policy (kRandom/kPct/kReplay). Replaying the
/// same picks against the same SimOptions re-executes the run bit-identically
/// (the engine has no other source of nondeterminism); a truncated or edited
/// trace still replays — unmatched decisions fall back to the deterministic
/// smallest-rank policy — which is what makes ddmin-style shrinking possible.
///
/// Armed fault decisions (SimOptions::faults) share the stream under every
/// policy: the fault-free outcome records the caller's rank, a fault
/// records a negative pick from its row of the fault table (see
/// SimWorld::fault_pick; the rows' ranges are disjoint). A disarmed fault
/// model makes no decision and records nothing, so traces stay
/// bit-compatible with the formats that predate it.
struct ScheduleTrace {
  std::vector<Rank> picks;

  [[nodiscard]] bool empty() const { return picks.empty(); }
  [[nodiscard]] usize size() const { return picks.size(); }

  friend bool operator==(const ScheduleTrace&, const ScheduleTrace&) = default;
};

/// Outcome of one World::run() invocation.
struct RunResult {
  /// True if the runtime detected that every unfinished process was blocked
  /// forever (SimWorld only; ThreadWorld cannot detect this).
  bool deadlocked = false;
  /// True if the configured step limit stopped the run (model checking).
  bool step_limit_hit = false;
  /// Engine steps executed (SimWorld; 0 for ThreadWorld).
  u64 steps = 0;
  /// Virtual (SimWorld) or wall (ThreadWorld) time of the longest process.
  Nanos makespan_ns = 0;
  /// Decisions taken, when SimOptions::record_schedule was set: scheduler
  /// picks under a list policy (kRandom/kPct/kReplay) and armed fault
  /// decisions under any policy; empty otherwise.
  ScheduleTrace schedule;
  /// Replayed (or hooked) decisions that named no available choice
  /// (possible with shrunk/edited traces) and fell back to the smallest
  /// runnable rank or the fault-free outcome. 0 on a faithful replay of an
  /// unmodified trace.
  u64 replay_divergences = 0;
  /// Fault events injected, per kind (SimWorld with the kind armed in
  /// SimOptions::faults; always 0 otherwise). With restarts enabled a
  /// process can contribute several crashes.
  FaultCounts injected;
  /// Ranks that were dead when the run finished (fail-stop crashes, or
  /// crashes whose restart never got scheduled before the run ended).
  std::vector<Rank> crashed_ranks;

  [[nodiscard]] bool ok() const { return !deadlocked && !step_limit_hit; }
};

class World {
 public:
  virtual ~World() = default;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] i32 nprocs() const { return topology_.nprocs(); }

  /// Collectively allocates `words` consecutive window words on every rank
  /// and returns their base offset (same on all ranks, like an MPI window
  /// created over a symmetric heap). The new words read 0 on every rank.
  /// Must not be called during run().
  WinOffset allocate(usize words) {
    const WinOffset base = static_cast<WinOffset>(allocated_words_);
    allocated_words_ += words;
    grow_windows(allocated_words_);
    return base;
  }

  [[nodiscard]] usize window_words() const { return allocated_words_; }

  /// Runs `body` on all P processes and waits for completion.
  virtual RunResult run(const std::function<void(RmaComm&)>& body) = 0;

  /// Direct window access for initialization and post-run inspection
  /// (not legal while run() is in flight).
  [[nodiscard]] virtual i64 read_word(Rank rank, WinOffset offset) const = 0;
  virtual void write_word(Rank rank, WinOffset offset, i64 value) = 0;

  /// Initialization write for *pre-reserved, never-yet-accessed* window
  /// cells: identical to write_word outside run(), and additionally legal
  /// while run() is in flight — which is what lets LockSpace construct a
  /// slot's lock lazily mid-run from its reserved arena range. Such writes
  /// carry no virtual-time cost and wake no parked waiters; both are
  /// vacuous because no process has ever read or polled the cell.
  virtual void init_word(Rank rank, WinOffset offset, i64 value) {
    write_word(rank, offset, value);
  }

  /// Sum of the op statistics of all processes from completed runs.
  [[nodiscard]] virtual OpStats aggregate_stats() const = 0;

 protected:
  explicit World(topo::Topology topology) : topology_(std::move(topology)) {}

  virtual void grow_windows(usize words) = 0;

  topo::Topology topology_;
  usize allocated_words_ = 0;
};

}  // namespace rmalock::rma

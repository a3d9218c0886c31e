// SimWorld — deterministic virtual-time discrete-event RMA runtime.
//
// Role in the reproduction: the paper evaluates on a Cray XC30 with up to
// 1024 MPI processes. A single host has a handful of cores, so wall-clock
// measurement of real threads cannot reproduce any scaling behaviour.
// SimWorld instead executes P cooperatively-scheduled processes (user-space
// fibers) whose RMA operations advance per-process *virtual clocks*
// according to a LatencyModel (distance-based cost + per-target NIC
// occupancy). Results are deterministic for a given seed, and P sweeps to
// 1024 just like the paper's.
//
// Execution model
//   * Exactly one process runs at a time (fiber switching on one OS
//     thread), so RMA ops apply in a single global order — sequential
//     consistency by construction, no data races on window memory.
//   * Scheduling policy:
//       kVirtualTime — runnable process with the smallest clock runs next
//                      (deterministic DES; used by all benchmarks);
//       kRandom      — uniformly random runnable process (model checking);
//       kPct         — PCT priority scheduling with d change points
//                      (Burckhardt et al.; stronger bug-finding guarantees);
//       kReplay      — re-execute a recorded ScheduleTrace (and/or drive
//                      decisions through SimOptions::pick_hook): the
//                      foundation of deterministic repro, counterexample
//                      shrinking, and bounded-exhaustive exploration.
//   * Flush is not a scheduling point: it changes no shared state, so
//     skipping its yield halves engine steps without losing interleavings.
//   * Nonblocking issue (iput/iaccumulate/iget) applies its effect at
//     issue — same engine path, same scheduling point, same visibility and
//     poll/park handling as the blocking op; an iget reads its value there
//     — but charges the origin only its NIC injection slot; the round trip
//     is charged by the next flush(target) as max(completion times) of the
//     ops pending there. A flush whose
//     settlement jumps the clock yields under kVirtualTime (so procs keep
//     booking NIC slots in arrival order) but never under list policies:
//     converting put to iput or get to iget changes *costs* only, and
//     kReplay traces and the exhaustive explorer stay bit-compatible (see
//     tests/mc/test_replay_compat.cpp).
//   * Spin-wait parking: a process that re-reads the same unchanged window
//     cells (three identical polls) is parked and woken by the next write
//     to any of those cells, with its clock advanced to the writer's
//     completion time. This models MCS-style local spinning in O(1) engine
//     steps per wait instead of O(wait/poll).
//   * Deadlock detection: if every unfinished process is parked and several
//     force-wake rounds produce no window write, the run is declared
//     deadlocked (reported or aborted per options). This reproduces the
//     deadlock-freedom checking of the paper's §4.4.
//
// Virtual-time caveat: operations are applied eagerly in engine order, so a
// parked process can observe a write that carries a slightly later
// timestamp. Logical behaviour always corresponds to the engine's serial
// order; virtual time is a faithful cost model, not a total order oracle.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "rma/fiber.hpp"
#include "rma/latency_model.hpp"
#include "rma/world.hpp"

namespace rmalock::obs {
enum class EventCode : u8;
class Tracer;
}  // namespace rmalock::obs

namespace rmalock::rma {

enum class SchedPolicy : u8 {
  kVirtualTime,  // deterministic min-clock DES (benchmarks)
  kRandom,       // uniform random walk over interleavings (model checking)
  kPct,          // PCT priority scheduling (model checking)
  kReplay,       // re-execute a recorded ScheduleTrace / drive via pick_hook
};

/// Explicit scheduler hook (kReplay): called at each decision point not
/// covered by SimOptions::replay with the runnable set sorted by rank;
/// must return one of the candidates. This is how the bounded-exhaustive
/// explorer enumerates interleavings.
using PickHook = std::function<Rank(const std::vector<Rank>& candidates)>;

/// The fault-model knobs, declared once: SimOptions, mc::CheckConfig, and
/// mc::TraceCase each embed one as `faults`. Every model is off (budget 0)
/// by default, and then costs no engine step, pick, or rng draw. Armed,
/// each fault site is one decision (SimWorld::decide) in the shared pick
/// stream (see ScheduleTrace), so record/replay, ddmin, and the exhaustive
/// explorer cover every fault placement.
struct FaultConfig {
  // --- crash injection -----------------------------------------------------
  // Failure model: fail-stop crashes at *declared* crash points
  // (RmaComm::crash_point()), window memory surviving the owner process —
  // the RDMA model where the NIC keeps serving remote reads of a dead
  // host's registered memory.

  /// Maximum number of crash events the run may inject (the budget the
  /// exhaustive explorer bounds, like its preemption bound).
  i32 max_crashes = 0;
  /// Chance (permille) of crashing at an armed crash point.
  u32 crash_chance_permille = 500;
  /// Restart crashed processes: a crashed process re-enters the scheduler
  /// and, when next picked, reboots and re-runs the body from the top as a
  /// fresh incarnation — so restart *timing* is an ordinary scheduling
  /// decision that record/replay and the explorer cover for free. When
  /// false, crashes are permanent (fail-stop). Restarting bodies must not
  /// contain barriers: the barrier accounting cannot tell a reborn
  /// first-barrier arrival from a later one.
  bool restart_crashed = false;
  /// Failure detector model for RmaComm::suspected(): false = perfect
  /// (suspected iff crashed); true = adversarial (every other rank is
  /// always suspected — the timeout that always fires). Lease fencing must
  /// keep its epoch-safety property even under the adversarial detector.
  bool adversarial_suspicion = false;

  // --- torn multi-word reads ----------------------------------------------
  // Fault model for RmaComm::get_vec: on real RMA hardware a multi-word
  // read is atomic per word only, so concurrent writers may interleave
  // between the words. Armed, every multi-word get_vec decides: read all n
  // words atomically, or read a prefix of k words (1 <= k < n), yield the
  // cpu (a real scheduling point where writers can run), then read the
  // rest — the observed vector can mix pre- and post-write state.

  /// Maximum number of torn reads the run may inject (budget).
  i32 max_tears = 0;
  /// Chance (permille) of tearing an armed multi-word get_vec.
  u32 tear_chance_permille = 500;

  // --- gray-failure network ------------------------------------------------
  // Fault model for the *common* production failure the paper's healthy
  // interconnect assumes away: stragglers (an op that completes, just much
  // later) and transient partitions (a target unreachable for a window, then
  // fine). With either budget armed, every remote op decides: complete
  // normally, inject a straggler delay (the op's completion charge is
  // multiplied by delay_factor), or open a partition of the target (remote
  // ops against it stall until the window closes; try_* ops fail fast
  // instead).

  /// Maximum number of straggler delays the run may inject (budget).
  i32 max_delays = 0;
  /// Chance (permille) of injecting a fault at an armed remote op; shared
  /// by the delay and partition outcomes (one draw, then a second one
  /// picks which fault fires when both budgets remain).
  u32 delay_chance_permille = 200;
  /// Straggler multiplier: a delayed op's completion charge is multiplied
  /// by this factor (congested-link model).
  i64 delay_factor = 16;
  /// Maximum number of transient partitions the run may open (budget).
  i32 max_partitions = 0;
  /// Virtual duration of one transient partition: remote ops against the
  /// partitioned target stall until `origin clock + partition_span`.
  Nanos partition_span = 50'000;

  // --- clock skew / drift --------------------------------------------------
  // Fault model for the synchronized-clock assumption every time-based
  // lease leans on: per-process local clocks (RmaComm::local_now_ns) that
  // run fast or slow relative to true time and step within a bounded skew
  // window — the NTP reality the paper's model ignores. Disarmed,
  // local_now_ns is the shared wall clock (perfect synchronization). Armed,
  // every remote op decides: keep the caller's clock map, or re-anchor it
  // to an extreme rate (± max_drift_permille) and skew step (±
  // skew_window).

  /// Maximum number of drift events the run may inject (budget).
  i32 max_drift_events = 0;
  /// Chance (permille) of drifting at an armed remote op.
  u32 drift_chance_permille = 200;
  /// Worst-case clock rate error (permille): a drifted clock advances at
  /// (1000 ± this)/1000 of true time.
  u32 max_drift_permille = 200;
  /// Bound on the absolute skew offset a local clock can step to (the NTP
  /// step clamp). A drift event sets the caller's skew to ± this.
  Nanos skew_window = 2'000;
};

struct SimOptions {
  topo::Topology topology;
  /// Network model; defaulted to LatencyModel::xc30(topology levels).
  LatencyModel latency{};
  /// Seed for scheduling and per-process RNG streams.
  u64 seed = 1;
  SchedPolicy policy = SchedPolicy::kVirtualTime;
  /// PCT: number of priority change points (d).
  i32 pct_change_points = 3;
  /// PCT: steps horizon (k) the change points are sampled from. Should
  /// approximate the expected run length — points beyond the actual run
  /// never fire and PCT degenerates to a strict priority schedule.
  /// 0 = derive from max_steps (or 1e6 if unbounded).
  u64 pct_horizon = 0;
  /// Stop the run after this many engine steps (0 = unbounded). Used by the
  /// model checker to bound exploration.
  u64 max_steps = 0;
  /// Abort the process on deadlock (benchmarks want loud failure); when
  /// false the deadlock is reported in RunResult (model checking).
  bool abort_on_deadlock = true;
  /// Record every decision into RunResult::schedule. kVirtualTime
  /// scheduling is deterministic by construction, so under it only fault
  /// decisions are recorded.
  bool record_schedule = false;
  /// The decisions to re-execute (typically a RunResult::schedule from a
  /// recorded run): scheduling picks under kReplay, fault picks under any
  /// policy (SimWorld::decide). Not owned; must outlive run(). Decisions
  /// beyond the trace fall through to pick_hook, then to the deterministic
  /// smallest-rank (or fault-free) choice.
  const ScheduleTrace* replay = nullptr;
  /// Decision hook consulted after `replay` is exhausted (see PickHook):
  /// for scheduling under kReplay, for fault decisions under any policy.
  /// Used by the exhaustive explorer.
  PickHook pick_hook;
  /// Stack bytes per simulated process.
  usize fiber_stack_bytes = 256 * 1024;

  FaultConfig faults;  // all fault models off by default

  // --- observability -------------------------------------------------------

  /// Structured event sink (obs/trace.hpp): engine and fault-model events
  /// are recorded into its per-rank rings, stamped with the emitting
  /// process's virtual clock. Not owned; must outlive run(). Null (the
  /// default) disarms tracing — every would-be emission costs one
  /// predictable branch. When null and RMALOCK_TRACE is set, the world arms
  /// an internal tracer that echoes the legacy text lines to stderr (one
  /// event schema, two sinks).
  obs::Tracer* tracer = nullptr;
};

class SimWorld final : public World {
 public:
  explicit SimWorld(SimOptions opts);
  ~SimWorld() override;

  static std::unique_ptr<SimWorld> create(SimOptions opts) {
    return std::make_unique<SimWorld>(std::move(opts));
  }

  RunResult run(const std::function<void(RmaComm&)>& body) override;

  [[nodiscard]] i64 read_word(Rank rank, WinOffset offset) const override;
  void write_word(Rank rank, WinOffset offset, i64 value) override;
  void init_word(Rank rank, WinOffset offset, i64 value) override;
  [[nodiscard]] OpStats aggregate_stats() const override;
  void reset_stats();

  [[nodiscard]] const SimOptions& options() const { return opts_; }

  /// Widest tear a run with tears armed may make (a get_vec of up to
  /// kTearPickSpan + 1 words): the tear row of the fault table is
  /// kTearPickSpan + 1 picks wide for every payload size.
  static constexpr Rank kTearPickSpan = 64;
  /// The fault table's pick encoding in a world of `nprocs` processes:
  /// fault `kind` with payload i (the rank it strikes, or a tear's split)
  /// records -(base(kind) + i). Rows stack in FaultKind order from base 2
  /// (clear of kNilRank) with widths P, kTearPickSpan + 1, P, P, P, so
  /// their ranges are disjoint and pick(kind, i) is -(r + 2) for a crash,
  /// -(P + 2 + k) for a tear, -(P + 67 + r) for a delay, -(2P + 67 + t) for
  /// a partition, and -(3P + 67 + r) for a drift.
  [[nodiscard]] static Rank fault_pick(FaultKind kind, Rank i, i32 nprocs);

 private:
  friend class SimComm;

  enum class ProcState : u8 {
    kRunnable,   // waiting in the scheduler for the cpu
    kRunning,    // currently executing
    kParked,     // waiting for a write to registered cells
    kInBarrier,  // waiting for the collective barrier
    kFinished,
  };

  struct PollEntry {
    Rank target = kNilRank;
    WinOffset offset = -1;
    i64 value = 0;
    i32 repeats = 0;
    u64 last_touch = 0;  // poll_epoch of the most recent read of this cell
  };

  struct Proc {
    explicit Proc(u64 rng_seed) : rng(rng_seed) {}

    Fiber fiber;
    std::unique_ptr<char[]> stack;
    Nanos clock = 0;
    ProcState state = ProcState::kRunnable;
    /// Set when a window write (as opposed to a force-wake) unparked this
    /// proc: the pending Get must then *return* so the caller can
    /// re-evaluate its loop condition — any polled cell may have changed,
    /// not just the one the Get targets.
    bool woken_by_write = false;
    // Cells this proc is registered on while parked: (target, offset).
    std::vector<std::pair<Rank, WinOffset>> wait_cells;
    // Nonblocking ops issued but not yet flushed: per target, the virtual
    // time the origin reaches when flush(target) completes them (completion
    // + the acknowledgement's return trip). Small: protocols flush promptly.
    std::vector<std::pair<Rank, Nanos>> pending_acks;
    std::array<PollEntry, 4> polls{};
    i32 num_polls = 0;
    u64 poll_epoch = 0;  // counts this proc's Get operations
    u32 pct_priority = 0;
    /// Dead (crashed at a crash point). Stays true until the restart
    /// reboot (restart_crashed) or the end of the run; suspected() and the
    /// RunResult report read it.
    bool crashed = false;
    u64 incarnation = 0;  // restarts survived (0 = original process)
    // Clock-drift model: piecewise-linear map from the shared wall clock to
    // this proc's local clock (RmaComm::local_now_ns). The default anchors
    // are the identity map, so a proc that never drifts reads perfect time.
    Nanos drift_anchor_wall = 0;
    Nanos drift_anchor_local = 0;
    i32 drift_rate_permille = 0;  // signed deviation from the nominal rate
    Nanos drift_skew = 0;         // current skew offset, |skew| <= window
    u32 drift_events = 0;         // drift events applied to this proc
    Xoshiro256 rng;
    OpStats stats;
  };

  struct HeapEntry {
    Nanos clock;
    Rank rank;
    friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
      return a.clock != b.clock ? a.clock > b.clock : a.rank > b.rank;
    }
  };

  /// Thrown through user code to unwind a stopping run. Lock bodies are
  /// exception-transparent (RAII only), so this is safe.
  struct StopRun {};

  /// Thrown from an armed crash point to fail-stop the calling process
  /// (same exception-transparency argument as StopRun).
  struct ProcCrashed {};

  void grow_windows(usize words) override;

  // --- fiber plumbing ------------------------------------------------------
  static void fiber_entry();
  [[noreturn]] void fiber_body(Rank rank);
  void switch_to_proc(Fiber& from, Rank next);
  [[noreturn]] void finish_proc(Rank rank);

  // --- engine (all called from the currently running fiber) ---------------
  i64 execute_op(Rank origin, OpKind kind, Rank target, WinOffset offset,
                 i64 operand, i64 cmp, AccumOp aop,
                 IssueMode mode = IssueMode::kBlocking);
  void execute_compute(Rank origin, Nanos ns);
  void execute_barrier(Rank origin);
  /// Multi-word get (RmaComm::get_vec) with the torn-read fault model: with
  /// tears armed and n >= 2, an explorable decision to read atomically or
  /// split after a k-word prefix with a scheduling point between the
  /// halves.
  void execute_get_vec(Rank origin, Rank target, WinOffset offset, i64* out,
                       usize n);
  /// Deadline-aware single-attempt op (RmaComm::try_*): one engine step,
  /// never parks; fails fast without applying when the target is inside a
  /// partition window that outlasts the deadline.
  TryResult execute_try_op(Rank origin, OpKind kind, Rank target,
                           WinOffset offset, i64 operand, i64 cmp, AccumOp aop,
                           Nanos deadline_ns);
  /// Declared crash point (RmaComm::crash_point): a no-op unless crash
  /// injection is armed and budget remains, else an explorable binary
  /// decision that may throw ProcCrashed through the caller.
  void execute_crash_point(Rank origin);

  // --- fault decisions -----------------------------------------------------
  /// True iff `kind` still has budget left this run.
  [[nodiscard]] bool armed(FaultKind kind) const;
  /// This world's encoding of fault `kind` with payload i (fault_pick).
  [[nodiscard]] Rank pick(FaultKind kind, Rank i) const {
    return fault_pick(kind, i, nprocs());
  }
  /// The one fault decision: chooses among the candidates the caller left
  /// in fault_picks_ (ascending) and `origin`, the fault-free choice, which
  /// decide() appends last — so every fault costs the exhaustive explorer
  /// one preemption. The rule, for every kind and policy (kVirtualTime runs
  /// record only their fault picks): take the next recorded pick while the
  /// replay trace has one; else ask pick_hook if set; else pick `origin`
  /// if a replay trace is set or the policy is kReplay; else draw — fire
  /// with `kind`'s chance, then pick the candidate (see sim_world.cpp). A
  /// pick naming no candidate counts as a replay divergence and falls back
  /// to `origin`. The pick is recorded when record_schedule is set.
  Rank decide(FaultKind kind, Rank origin);
  /// The cost of a `kind` op from origin to target, after the remote op's
  /// drift then gray decisions, one engine step each while its budget
  /// remains: a straggler multiplies the cost by delay_factor, and a
  /// partition or drift takes effect here.
  Nanos remote_op_faults(Rank origin, Rank target, OpKind kind, i32 dclass) {
    const Nanos cost = opts_.latency.op_cost(kind, dclass);
    if (dclass == 0 || !remote_faults_) return cost;
    return decide_remote_faults(origin, target, cost);
  }
  Nanos decide_remote_faults(Rank origin, Rank target, Nanos cost);
  /// Re-anchors origin's clock map at the current wall time with an
  /// extreme rate and skew step (deterministic — no rng draws, so replay
  /// reproduces the exact clock trajectory).
  void apply_drift(Rank origin);
  /// Counts an applied fault and emits its trace event on origin's ring.
  void note_fault(FaultKind kind, Rank origin, i64 a, i64 b = 0, i64 c = 0);
  /// Failure detector backing RmaComm::suspected().
  [[nodiscard]] bool proc_suspected(Rank origin, Rank target) const;
  /// A crash is a failure-detection event: wakes every parked process with
  /// write semantics so pending Gets return and callers can re-evaluate
  /// suspicion (a dead owner never writes the cell they parked on).
  void wake_all_parked_on_crash(Rank crasher);

  i64 apply_to_window(OpKind kind, Rank target, WinOffset offset, i64 operand,
                      i64 cmp, AccumOp aop, bool* wrote);
  void wake_waiters(Rank target, WinOffset offset, Nanos write_time);

  /// Queues an op arriving at `arrival` behind target's partition window
  /// (all-zero when the gray model is unarmed) and NIC; returns the time
  /// it completes there.
  Nanos book_nic(Rank target, Nanos arrival, Nanos occupancy) {
    const auto t = static_cast<usize>(target);
    nic_free_[t] =
        std::max({arrival, partition_until_[t], nic_free_[t]}) + occupancy;
    return nic_free_[t];
  }

  /// Records a nonblocking op's acknowledgement time (completion + return
  /// trip) for the next flush(target) to charge.
  void note_pending_ack(Proc& proc, Rank target, Nanos ack_time);
  /// flush(target): advances proc.clock past every pending ack to target.
  /// True iff a pending ack actually raised the clock (a jump that needs a
  /// virtual-time rescheduling point, see the flush path in execute_op).
  bool settle_pending_acks(Proc& proc, Rank target);

  /// Updates origin's poll tracker after a get; returns true if the caller
  /// should park (3 identical reads of this cell with no local progress).
  bool track_poll(Proc& proc, Rank target, WinOffset offset, i64 value);
  /// True iff every tracked cell still holds the value the caller last
  /// read (see the comment at the call site); refreshes stale entries.
  bool poll_snapshot_is_current(Proc& proc);
  void clear_polls(Proc& proc) { proc.num_polls = 0; }

  void park_until_cell_write(Rank origin);
  void yield_cpu(Rank origin);
  void hand_off_from_blocked(Rank origin);
  void release_barrier_if_complete();

  /// Picks the next process to run; kNilRank if no one is runnable.
  Rank pick_next();
  /// kReplay: index into ready_list_ of the next decision (replay trace,
  /// then pick_hook, then deterministic smallest-rank fallback).
  usize replay_pick_index();
  /// Called when no process is runnable: force-wake or declare deadlock.
  void handle_no_runnable();
  void begin_stop(bool deadlock, bool step_limit);
  void check_stop(Rank origin);
  void bump_step(Rank origin);

  void make_runnable(Proc& proc, Rank rank);
  void unregister_waits(Proc& proc, Rank rank);

  // --- waiter index --------------------------------------------------------
  /// Key of cell (target, offset): its word index in the window slab.
  [[nodiscard]] u32 waiter_cell(Rank target, WinOffset offset) const {
    return static_cast<u32>(static_cast<usize>(target) * window_stride_ +
                            static_cast<usize>(offset));
  }
  /// Home slot of a cell: Fibonacci hashing (the multiply spreads the key
  /// into the top bits, which pick the slot).
  [[nodiscard]] usize waiter_home(u32 cell) const {
    return static_cast<usize>((cell * 0x9e3779b9u) >> waiter_shift_);
  }
  void register_waiter(Rank target, WinOffset offset, Rank waiter);
  void remove_waiter(Rank target, WinOffset offset, Rank waiter);
  /// The waiter_slots_ index holding cell (target, offset), or the empty
  /// slot where it would go (linear probing from the cell's home slot).
  [[nodiscard]] usize waiter_slot(Rank target, WinOffset offset) const;
  /// Empties a slot, shifting later entries of its probe run back so every
  /// lookup still ends at the first empty slot (no tombstones).
  void erase_waiter_slot(usize slot);
  /// Rehashes the index into `slots` slots (a power of two).
  void resize_waiter_slots(usize slots);

  /// Distance class of (origin, target), precomputed (hot: once per op).
  [[nodiscard]] i32 dclass_of(Rank origin, Rank target) const {
    return dclass_[static_cast<usize>(origin) *
                       static_cast<usize>(nprocs()) +
                   static_cast<usize>(target)];
  }

  // Per-process accessors used by SimComm.
  [[nodiscard]] Nanos proc_clock(Rank rank) const {
    return procs_[static_cast<usize>(rank)]->clock;
  }
  /// rank's local clock (RmaComm::local_now_ns): the drift/skew map applied
  /// to the rank's own virtual clock — the instant its code is executing
  /// at, which is the only "now" its watch can be asked at. (NOT the global
  /// max over proc clocks: a rank whose clock trails a far-ahead peer would
  /// read the future and then watch its local time freeze while its own
  /// ops advance underneath the max.) A parked process's clock is bumped to
  /// the waking instant on resume, so a paused holder's watch catches up —
  /// and its lease reads as expired — the moment it next runs. Identity —
  /// perfect synchronization — until a drift event re-anchors the map; may
  /// step backward within the skew window.
  [[nodiscard]] Nanos local_now(Rank rank) const {
    const Proc& proc = *procs_[static_cast<usize>(rank)];
    const Nanos elapsed = proc.clock - proc.drift_anchor_wall;
    return proc.drift_anchor_local +
           elapsed * (1000 + proc.drift_rate_permille) / 1000;
  }
  [[nodiscard]] Xoshiro256& proc_rng(Rank rank) {
    return procs_[static_cast<usize>(rank)]->rng;
  }
  [[nodiscard]] OpStats& proc_stats(Rank rank) {
    return procs_[static_cast<usize>(rank)]->stats;
  }

  /// Records an instant event on origin's ring (virtual-clock timestamped;
  /// kDrift stamps the drift-adjusted local clock instead, since the event
  /// is *about* that clock). The disarmed path is this inline null test —
  /// the only cost tracing adds to an untraced run.
  void trace_event(Rank origin, obs::EventCode code, i64 a = 0, i64 b = 0,
                   i64 c = 0) {
    if (tracer_ != nullptr) [[unlikely]] {
      trace_event_slow(origin, code, a, b, c);
    }
  }
  void trace_event_slow(Rank origin, obs::EventCode code, i64 a, i64 b,
                        i64 c);

  SimOptions opts_;
  std::vector<std::unique_ptr<Proc>> procs_;

  // Window storage: one slab of P x window_stride_ words, zeroed by its
  // allocator rather than written: a large slab is fresh mmap memory, whose
  // pages the kernel zero-fills on first touch; a small one comes from
  // calloc, so a small MC world makes no syscall. A world therefore pays
  // memory and writes only for the words it touches. windows_[rank] points
  // at rank's window inside the slab.
  struct SlabFree {
    SlabFree() : bytes(0) {}
    explicit SlabFree(usize slab_bytes) : bytes(slab_bytes) {}
    usize bytes;  // the slab's size, which picks munmap or free
    void operator()(i64* slab) const;
  };
  using WindowSlab = std::unique_ptr<i64[], SlabFree>;
  [[nodiscard]] static WindowSlab alloc_window_slab(usize words);
  WindowSlab window_slab_;
  std::vector<i64*> windows_;  // [rank] -> word 0 of rank's window
  usize window_stride_ = 0;    // words reserved per rank
  // Per-rank prefix that may hold nonzero words: the reach of write_word
  // and init_word, or every allocated word once a run has started.
  usize window_dirty_ = 0;

  std::vector<Nanos> nic_free_;  // per-rank NIC availability time
  // Gray model: per-rank virtual time until which the rank is unreachable
  // (transient partition). All-zero when the model is unarmed, making the
  // stall below a no-op.
  std::vector<Nanos> partition_until_;
  std::vector<u8> dclass_;  // [origin * P + target] distance classes
  std::vector<Rank> fault_picks_;  // candidates of the fault decision
  bool remote_faults_ = false;     // a drift or gray budget is configured

  // Parked-waiter index: one singly-linked list of ranks per window cell
  // that has waiters (a list may hold stale entries for procs already
  // woken; filtered by state on wake). An open-addressed table maps the
  // cell to its list head. It doubles whenever a new cell would push its
  // load past one half, so it is sized by the cells parked on at once (at
  // most 4 per parked proc; 631 at P = 1024 in rmabench's dht-volume), not
  // by window words, and wake_waiters on a cell without waiters costs about
  // one probe into a table that stays cache-resident. The index is empty
  // between runs (checked at every run's end), so neither allocate() nor
  // run() has to clear it. Nodes live in a free-listed per-world arena, so
  // parking never heap-allocates after warmup.
  struct WaiterNode {
    Rank rank = kNilRank;
    i32 next = -1;  // index into waiter_nodes_; -1 = end of chain
  };
  static constexpr u32 kNoCell = ~u32{0};
  struct WaiterSlot {
    u32 cell = kNoCell;  // waiter_cell(target, offset); kNoCell = empty
    i32 head = -1;       // index into waiter_nodes_
  };
  std::vector<WaiterSlot> waiter_slots_;  // power-of-two size
  u32 waiter_shift_ = 0;   // 32 - log2(waiter_slots_.size())
  u32 waiter_cells_ = 0;   // occupied slots; 0 whenever no run is in flight
  std::vector<WaiterNode> waiter_nodes_;
  i32 waiter_free_ = -1;   // free list threaded through WaiterNode::next

  // Scheduler state (valid during run()).
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      ready_heap_;                  // kVirtualTime
  std::vector<Rank> ready_list_;    // kRandom / kPct
  Xoshiro256 sched_rng_{0};
  std::vector<u64> pct_change_steps_;
  usize pct_next_change_ = 0;  // index of the next unfired change point
  u32 pct_next_priority_low_ = 0;
  usize replay_pos_ = 0;  // kReplay: next decision in opts_.replay

  Fiber main_fiber_;
  Rank entering_rank_ = kNilRank;  // rank a fresh fiber should adopt
  const std::function<void(RmaComm&)>* body_ = nullptr;

  u64 steps_ = 0;
  u64 window_writes_ = 0;
  u64 writes_at_last_stall_ = 0;
  i32 stall_rounds_ = 0;
  i32 unfinished_ = 0;
  i32 barrier_arrived_ = 0;
  std::vector<Rank> barrier_ranks_;
  bool stopping_ = false;
  bool running_ = false;
  obs::Tracer* tracer_ = nullptr;  // armed event sink; null = disarmed
  /// Backing tracer when RMALOCK_TRACE arms tracing with no external sink
  /// supplied (echoes the legacy stderr lines).
  std::unique_ptr<obs::Tracer> owned_tracer_;
  RunResult result_;
};

}  // namespace rmalock::rma

// Schedule traces: serialization and counterexample shrinking.
//
// A SimWorld run under a list policy (kRandom/kPct/kReplay) is fully
// determined by its SimOptions seed plus the sequence of scheduler picks
// (rma::ScheduleTrace). This module makes that pair a first-class artifact:
//
//   * TraceCase bundles a trace with everything needed to re-execute it —
//     topology, world seed, workload shape, crash- and torn-read-injection
//     knobs — in a line-oriented text format. The magic is "rmalock-trace
//     v5" only when the clock-drift model is armed (a "drift" line is then
//     present), "rmalock-trace v4" only when the gray-failure model is
//     armed ("delays"/"partitions" lines then present), and "rmalock-trace
//     v3" only when the torn-read fault model is armed (a "tears" line is
//     then present); unarmed cases keep serializing byte-identically as v2,
//     and v1 files (which predate the crash model) still parse. Fault
//     decisions live in the same picks stream as scheduling decisions,
//     encoded by the fault table (rma::SimWorld::fault_pick).
//   * shrink_trace() reduces a failing trace to a minimal counterexample
//     with the classic delta-debugging loop (Zeller & Hildebrandt's ddmin):
//     first the shortest failing prefix (violations are detected during
//     execution, so failing-ness is monotone in prefix length and binary
//     search applies), then complement-based chunk removal. Replaying a
//     shortened trace is always well-defined because SimWorld falls back to
//     the deterministic smallest-rank policy beyond (or on divergence from)
//     the trace.
#pragma once

#include <functional>
#include <string>

#include "rma/sim_world.hpp"

namespace rmalock::mc {

/// A self-contained, serializable repro case: one recorded schedule plus the
/// workload parameters needed to re-execute it. `workload` is a free-form id
/// the producing binary understands (mc_verification maps it back to a lock
/// factory); everything else is interpreted by the checker itself.
struct TraceCase {
  std::string workload;    // producer-defined workload id (e.g. "ex:rma-mcs")
  std::string lock_name;   // informational: Lock::name() of the subject
  std::string kind;        // violation kind: "mutex", "deadlock", or "none"
  topo::Topology topology;
  rma::SchedPolicy recorded_policy = rma::SchedPolicy::kRandom;
  u64 world_seed = 1;      // SimOptions::seed of the recorded run
  i32 acquires_per_proc = 0;
  double writer_fraction = 0.5;
  /// Explicit per-rank roles (CheckConfig::writer_roles); empty = roles
  /// drawn from (world_seed, rank) with writer_fraction.
  std::vector<bool> writer_roles;
  u64 max_steps = 0;
  /// Fault knobs of the recorded run. A model whose budget is 0 was off:
  /// its line is omitted and the trace serializes in the format that
  /// predates it.
  rma::FaultConfig faults;
  rma::ScheduleTrace trace;
};

/// Human-readable policy name ("virtual-time"/"random"/"pct"/"replay").
[[nodiscard]] const char* policy_name(rma::SchedPolicy policy);

/// Renders a TraceCase in the "rmalock-trace v1" text format.
[[nodiscard]] std::string serialize_trace(const TraceCase& c);

/// Parses serialize_trace() output. Returns false (and sets *error when
/// non-null) on malformed input; unknown keys are ignored for forward
/// compatibility.
bool parse_trace(const std::string& text, TraceCase* out, std::string* error);

/// File wrappers around serialize/parse. Return false on I/O or parse
/// errors (with *error set when non-null).
bool write_trace_file(const std::string& path, const TraceCase& c,
                      std::string* error);
bool read_trace_file(const std::string& path, TraceCase* out,
                     std::string* error);

/// Oracle for shrinking: replays a candidate trace and returns true iff the
/// original violation still reproduces (same kind; counts may differ).
using TraceOracle = std::function<bool(const rma::ScheduleTrace&)>;

struct ShrinkStats {
  u64 replays = 0;         // oracle invocations spent
  usize initial_len = 0;
  usize final_len = 0;
};

/// ddmin-style reduction of `failing` (which must satisfy the oracle) to a
/// locally minimal counterexample. `max_replays` bounds the oracle budget
/// (0 = unbounded); the result always satisfies the oracle.
[[nodiscard]] rma::ScheduleTrace shrink_trace(const rma::ScheduleTrace& failing,
                                              const TraceOracle& still_fails,
                                              u64 max_replays = 2000,
                                              ShrinkStats* stats = nullptr);

}  // namespace rmalock::mc

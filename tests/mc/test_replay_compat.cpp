// Replay compatibility: recorded trace files must keep replaying
// bit-identically across engine and lock-protocol changes. The v1-era
// goldens ("rmalock-trace v1", recorded before the crash model existed)
// additionally pin backward-compatible reads of the old format; the crash
// goldens are v2 traces whose picks stream interleaves negative crash
// decisions (crash of rank r = -(r + 2)); the torn-read golden is v3; the
// gray-failure golden is v4, whose picks stream interleaves delay/partition
// decisions below the tear range; the clock-drift golden is v5, recorded
// under kVirtualTime (drift decisions are the only picks) with the drift
// range below the partition range.
//
// The golden traces under tests/mc/data/ were recorded with kRandom
// schedules of the mc_verification workloads. Replaying them asserts
// three things:
//
//   1. zero divergences — every recorded pick named a runnable rank, i.e.
//      the park/wake structure of the run is unchanged;
//   2. the re-recorded schedule equals the golden one pick-for-pick — the
//      run has exactly the same scheduler decision points (an engine change
//      that adds or removes scheduling points shows up here even when no
//      divergence is counted);
//   3. the outcome kind is unchanged (these goldens are clean runs).
//
// This is the contract that lets counterexample traces from old CI runs
// stay replayable: nonblocking issue must stay off the scheduling-decision
// path (iput yields exactly where put yielded; flush never yields).
//
// Regenerating (only legitimate after an *intentional* scheduling change,
// with the old goldens' loss called out in the PR):
//   RMALOCK_REGEN_GOLDEN=1 ./test_replay_compat
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "mc/checker.hpp"
#include "mc/registry.hpp"
#include "mc/schedule.hpp"

#ifndef RMALOCK_TEST_DATA_DIR
#error "RMALOCK_TEST_DATA_DIR must point at tests/mc/data"
#endif

namespace rmalock {
namespace {

struct GoldenCase {
  const char* file;      // under tests/mc/data/
  const char* workload;  // mc::named_workload id
  topo::Topology topology;
  u64 world_seed;
  i32 acquires;
  // Fault knobs of the recorded run (chances are set by config_for). All
  // off for the v1-era goldens (kept byte-identical on disk: they pin
  // backward-compatible reads of the pre-crash-model format); crash cases
  // record v2 traces, the tear case v3, the gray case v4, and the drift
  // case v5, each interleaving its fault picks (fault table,
  // rma::SimWorld::fault_pick). Drift campaigns run under kVirtualTime
  // (belief intervals are only comparable in virtual-time order), so the
  // drift golden is recorded and replayed with that policy and its picks
  // stream holds ONLY drift decisions.
  rma::FaultConfig faults = {};

  [[nodiscard]] rma::SchedPolicy policy() const {
    return faults.max_drift_events > 0 ? rma::SchedPolicy::kVirtualTime
                                : rma::SchedPolicy::kRandom;
  }
};

std::vector<GoldenCase> golden_cases() {
  return {
      {"replay_rw_P4_s11.trace", "rw:rma-rw", topo::Topology::uniform({}, 4),
       11, 4},
      {"replay_rw_P2x2_s12.trace", "rw:rma-rw",
       topo::Topology::uniform({2}, 2), 12, 4},
      {"replay_ex_P4_s21.trace", "ex:rma-mcs", topo::Topology::uniform({}, 4),
       21, 4},
      {"replay_ex_P2x2_s22.trace", "ex:rma-mcs",
       topo::Topology::uniform({2}, 2), 22, 4},
      {"replay_lease_crash_P4_s31.trace", "lease:mcs",
       topo::Topology::uniform({}, 4), 31, 4, {.max_crashes = 1}},
      {"replay_lease_restart_P2x2_s32.trace", "lease:mcs",
       topo::Topology::uniform({2}, 2), 32, 4,
       {.max_crashes = 1, .restart_crashed = true}},
      {"replay_opt_tear_P4_s41.trace", "opt:versioned",
       topo::Topology::uniform({}, 4), 41, 4, {.max_tears = 2}},
      {"replay_timeout_gray_P4_s51.trace", "timeout:rma-mcs",
       topo::Topology::uniform({}, 4), 51, 4,
       {.max_delays = 2, .max_partitions = 1}},
      {"replay_drift_vtime_P2_s61.trace", "drift:fenced",
       topo::Topology::uniform({}, 2), 61, 3, {.max_drift_events = 2}},
  };
}

std::string data_path(const char* file) {
  return std::string(RMALOCK_TEST_DATA_DIR) + "/" + file;
}

mc::CheckConfig config_for(const GoldenCase& c) {
  mc::CheckConfig config;
  config.topology = c.topology;
  config.acquires_per_proc = c.acquires;
  config.max_steps = 400'000;
  // Fixed parity roles keep the reader/writer mix independent of any seed
  // derivation details.
  config.writer_roles.assign(static_cast<usize>(c.topology.nprocs()), false);
  for (i32 r = 0; r < c.topology.nprocs(); r += 2) {
    config.writer_roles[static_cast<usize>(r)] = true;
  }
  config.policy = c.policy();
  config.faults = c.faults;
  // Moderate per-point chance so the one-crash budget lands on different
  // crash points across schedules (an always-fire chance would pin every
  // crash to the first declared point).
  config.faults.crash_chance_permille = 300;
  // High per-read chance: the small tear budget must actually be spent
  // within the short recorded run.
  config.faults.tear_chance_permille = 700;
  // Same reasoning for the gray budgets: the recorded run must spend them.
  config.faults.delay_chance_permille = 400;
  // High per-op chance so the two-event drift budget is spent within the
  // short recorded run.
  config.faults.drift_chance_permille = 600;
  return config;
}

/// The golden's workload, resolved through the one registry
/// mc_verification --replay uses — the goldens pin that replay path.
mc::Workload workload_for(const GoldenCase& c) {
  const auto workload = mc::named_workload(c.workload, c.topology);
  EXPECT_TRUE(workload.has_value()) << "unknown workload " << c.workload;
  return workload.value();
}

/// Records the golden traces with kRandom scheduling (regeneration mode).
void regenerate() {
  for (const GoldenCase& c : golden_cases()) {
    const mc::CheckConfig config = config_for(c);
    rma::SimOptions opts = mc::schedule_options(config, 0);
    opts.seed = c.world_seed;
    opts.policy = c.policy();
    opts.record_schedule = true;
    const mc::ScheduleOutcome outcome = workload_for(c)(config, opts);
    ASSERT_TRUE(outcome.run.ok()) << c.file << ": golden run must be clean";
    if (c.faults.max_crashes > 0) {
      // A crash golden without a crash pins nothing — pick another seed.
      ASSERT_GE(outcome.run.injected[rma::FaultKind::kCrash], 1u)
          << c.file << ": recorded run injected no crash";
    }
    if (c.faults.max_tears > 0) {
      // Same for the torn-read golden: it must actually contain tears.
      ASSERT_GE(outcome.run.injected[rma::FaultKind::kTear], 1u)
          << c.file << ": recorded run injected no torn read";
    }
    if (c.faults.max_delays > 0) {
      ASSERT_GE(outcome.run.injected[rma::FaultKind::kDelay], 1u)
          << c.file << ": recorded run injected no straggler delay";
    }
    if (c.faults.max_partitions > 0) {
      ASSERT_GE(outcome.run.injected[rma::FaultKind::kPartition], 1u)
          << c.file << ": recorded run injected no partition window";
    }
    if (c.faults.max_drift_events > 0) {
      ASSERT_GE(outcome.run.injected[rma::FaultKind::kDrift], 1u)
          << c.file << ": recorded run injected no drift event";
    }
    mc::TraceCase golden;
    golden.workload = c.workload;
    golden.lock_name = outcome.lock_name;
    golden.kind = "none";
    golden.topology = c.topology;
    golden.recorded_policy = c.policy();
    golden.world_seed = c.world_seed;
    golden.acquires_per_proc = c.acquires;
    golden.writer_roles = config.writer_roles;
    golden.max_steps = config.max_steps;
    golden.faults = config.faults;
    golden.trace = outcome.run.schedule;
    std::string error;
    ASSERT_TRUE(mc::write_trace_file(data_path(c.file), golden, &error))
        << error;
  }
}

TEST(ReplayCompat, GoldenTracesReplayBitIdentically) {
  if (std::getenv("RMALOCK_REGEN_GOLDEN") != nullptr) {
    regenerate();
    GTEST_SKIP() << "golden traces regenerated";
  }
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.file);
    mc::TraceCase golden;
    std::string error;
    ASSERT_TRUE(mc::read_trace_file(data_path(c.file), &golden, &error))
        << error;
    ASSERT_FALSE(golden.trace.empty());
    ASSERT_EQ(golden.workload, c.workload);

    const mc::CheckConfig config = config_for(c);
    rma::SimOptions opts =
        mc::replay_options(config, golden.world_seed, golden.trace);
    opts.record_schedule = true;  // re-record to compare pick-for-pick
    const mc::ScheduleOutcome outcome = workload_for(c)(config, opts);

    EXPECT_EQ(outcome.run.replay_divergences, 0u)
        << "a recorded pick named a rank that is no longer runnable there";
    EXPECT_TRUE(outcome.run.ok()) << "golden run no longer completes cleanly";
    EXPECT_EQ(outcome.mutex_violations, 0u);
    if (c.faults.max_crashes > 0) {
      // The recorded crash decisions must re-fire at the same points.
      EXPECT_GE(outcome.run.injected[rma::FaultKind::kCrash], 1u)
          << "replay no longer reproduces the recorded crash";
    }
    if (c.faults.max_tears > 0) {
      // The recorded tear decisions must re-fire at the same get_vecs.
      EXPECT_GE(outcome.run.injected[rma::FaultKind::kTear], 1u)
          << "replay no longer reproduces the recorded torn read";
    }
    if (c.faults.max_delays > 0) {
      // The recorded delay decisions must re-fire at the same remote ops.
      EXPECT_GE(outcome.run.injected[rma::FaultKind::kDelay], 1u)
          << "replay no longer reproduces the recorded straggler delay";
    }
    if (c.faults.max_partitions > 0) {
      EXPECT_GE(outcome.run.injected[rma::FaultKind::kPartition], 1u)
          << "replay no longer reproduces the recorded partition window";
    }
    if (c.faults.max_drift_events > 0) {
      // The recorded drift decisions must re-fire at the same remote ops.
      EXPECT_GE(outcome.run.injected[rma::FaultKind::kDrift], 1u)
          << "replay no longer reproduces the recorded drift events";
    }
    // The decision-point structure must be unchanged: same number of
    // scheduler decisions, same pick at every one of them.
    EXPECT_EQ(outcome.run.schedule.picks, golden.trace.picks)
        << "scheduling decision points moved (recorded "
        << outcome.run.schedule.picks.size() << " picks, golden has "
        << golden.trace.picks.size() << ")";
  }
}

}  // namespace
}  // namespace rmalock

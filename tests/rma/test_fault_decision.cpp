// The fault-decision rule, pinned once for every fault kind. SimWorld takes
// every crash, tear, gray (delay/partition), and drift decision through one
// function with one rule: the next recorded pick while the replay trace has
// one; else pick_hook; else the fault-free outcome if a replay trace is set
// or the policy is kReplay; else the stochastic draw. The same four
// properties hold for each kind:
//
//   * a list-policy recording replays under kReplay with 0 divergences;
//   * a fault-only trace recorded under kVirtualTime replays bit-identically
//     (the trace, not the seed, decides the faults);
//   * an exhausted replay cursor takes the fault-free outcome;
//   * pick_hook sees the candidates in ascending order, the caller's rank
//     (the fault-free choice) last.
//
// Plus the encoding itself: the fault table's five pick ranges are disjoint
// and reproduce the documented formulas for every world size.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

constexpr i32 kProcs = 4;
constexpr usize kVecWords = 4;

struct FaultCase {
  const char* name;
  void (*arm)(FaultConfig&);
};
// Printed by name: the raw bytes gtest prints by default hold addresses,
// which would change the ctest names on every build.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

const FaultCase kCases[] = {
    {"crash",
     [](FaultConfig& f) {
       f.max_crashes = 2;
       f.crash_chance_permille = 300;
     }},
    {"tear",
     [](FaultConfig& f) {
       f.max_tears = 3;
       f.tear_chance_permille = 500;
     }},
    {"gray",
     [](FaultConfig& f) {
       f.max_delays = 2;
       f.max_partitions = 1;
       f.delay_chance_permille = 400;
     }},
    {"drift",
     [](FaultConfig& f) {
       f.max_drift_events = 2;
       f.drift_chance_permille = 400;
     }},
};

u64 total_injected(const RunResult& result) {
  u64 total = 0;
  for (const u64 n : result.injected.n) total += n;
  return total;
}

class FaultDecision : public ::testing::TestWithParam<FaultCase> {
 protected:
  SimOptions options(SchedPolicy policy, u64 seed) const {
    SimOptions opts;
    opts.topology = topo::Topology::uniform({}, kProcs);
    opts.seed = seed;
    opts.policy = policy;
    opts.record_schedule = true;
    GetParam().arm(opts.faults);
    return opts;
  }

  /// Runs the workload in a fresh world: every rank passes a crash point,
  /// then issues a remote fetch-and-add and a multi-word get to its right
  /// neighbour — one decision site of every fault kind per iteration.
  struct Run {
    RunResult result;
    std::vector<i64> words;  // rank r's counter and vector, post-run
  };
  static Run run(SimOptions opts) {
    auto world = SimWorld::create(std::move(opts));
    const WinOffset counter = world->allocate(1 + kVecWords);
    Run out;
    out.result = world->run([&](RmaComm& comm) {
      const Rank right = (comm.rank() + 1) % comm.nprocs();
      i64 vec[kVecWords];
      for (i32 i = 0; i < 8; ++i) {
        comm.crash_point();
        comm.fao(1, right, counter, AccumOp::kSum);
        comm.get_vec(right, counter + 1, vec, kVecWords);
        comm.put(vec[0] + 1, right, counter + 1 + (i % 4));
        comm.compute(50);
      }
    });
    for (Rank r = 0; r < kProcs; ++r) {
      for (usize w = 0; w <= kVecWords; ++w) {
        out.words.push_back(
            world->read_word(r, counter + static_cast<WinOffset>(w)));
      }
    }
    return out;
  }
};

TEST_P(FaultDecision, ListPolicyRecordingReplaysWithoutDivergence) {
  const Run recorded = run(options(SchedPolicy::kRandom, 5));
  ASSERT_GT(total_injected(recorded.result), 0u) << "nothing to replay";

  SimOptions replay_opts = options(SchedPolicy::kReplay, 5);
  replay_opts.replay = &recorded.result.schedule;
  const Run replayed = run(std::move(replay_opts));
  EXPECT_EQ(replayed.result.replay_divergences, 0u);
  EXPECT_EQ(replayed.result.schedule, recorded.result.schedule);
  EXPECT_EQ(replayed.result.injected.n, recorded.result.injected.n);
  EXPECT_EQ(replayed.result.steps, recorded.result.steps);
  EXPECT_EQ(replayed.words, recorded.words);
}

TEST_P(FaultDecision, FaultOnlyVirtualTimeTraceReplaysBitIdentically) {
  // kVirtualTime scheduling is deterministic, so its trace holds only the
  // fault decisions. Replayed under another seed (a different stochastic
  // draw sequence), the trace alone must reproduce the run.
  const Run recorded = run(options(SchedPolicy::kVirtualTime, 7));
  ASSERT_GT(total_injected(recorded.result), 0u) << "nothing to replay";

  SimOptions replay_opts = options(SchedPolicy::kVirtualTime, 7'000);
  replay_opts.replay = &recorded.result.schedule;
  const Run replayed = run(std::move(replay_opts));
  EXPECT_EQ(replayed.result.replay_divergences, 0u);
  EXPECT_EQ(replayed.result.schedule, recorded.result.schedule);
  EXPECT_EQ(replayed.result.injected.n, recorded.result.injected.n);
  EXPECT_EQ(replayed.result.steps, recorded.result.steps);
  EXPECT_EQ(replayed.result.makespan_ns, recorded.result.makespan_ns);
  EXPECT_EQ(replayed.words, recorded.words);
}

TEST_P(FaultDecision, ExhaustedCursorTakesTheFaultFreeOutcome) {
  // An empty trace is exhausted from the first decision. Under a stochastic
  // policy the decisions would otherwise draw (and, at these chances,
  // fire); with a replay trace set they must all take the fault-free pick.
  const ScheduleTrace empty;
  SimOptions opts = options(SchedPolicy::kVirtualTime, 7);
  opts.replay = &empty;
  const Run replayed = run(std::move(opts));
  EXPECT_EQ(total_injected(replayed.result), 0u);
  ASSERT_FALSE(replayed.result.schedule.empty()) << "no decision was made";
  for (const Rank pick : replayed.result.schedule.picks) {
    EXPECT_GE(pick, 0) << "a fault fired past the end of the trace";
  }
}

TEST_P(FaultDecision, HookSeesAscendingCandidatesWithOriginLast) {
  SimOptions opts = options(SchedPolicy::kReplay, 5);
  u64 fault_calls = 0;
  opts.pick_hook = [&](const std::vector<Rank>& candidates) {
    EXPECT_FALSE(candidates.empty());
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end());
    if (candidates.front() < 0) {
      // A fault decision: every fault pick is negative, and the caller's
      // own rank — the fault-free choice — comes last.
      ++fault_calls;
      EXPECT_GE(candidates.back(), 0);
      EXPECT_LT(candidates.back(), kProcs);
      EXPECT_LT(candidates[candidates.size() - 2], 0);
    }
    return candidates.front();  // inject whenever a fault is offered
  };
  const Run hooked = run(std::move(opts));
  EXPECT_GT(fault_calls, 0u);
  EXPECT_GT(total_injected(hooked.result), 0u);
  EXPECT_EQ(hooked.result.replay_divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, FaultDecision, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<FaultCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(FaultPickTable, RangesAreDisjointAndMatchTheFormulas) {
  constexpr Rank span = SimWorld::kTearPickSpan;
  for (const i32 p : {1, 2, 3, 1024}) {
    SCOPED_TRACE(p);
    const auto pick = [p](FaultKind kind, Rank i) {
      return SimWorld::fault_pick(kind, i, p);
    };
    // The documented encodings, at both ends of each range.
    for (const Rank r : {0, p - 1}) {
      EXPECT_EQ(pick(FaultKind::kCrash, r), -(r + 2));
      EXPECT_EQ(pick(FaultKind::kDelay, r), -(p + span + 3 + r));
      EXPECT_EQ(pick(FaultKind::kPartition, r), -(2 * p + span + 3 + r));
      EXPECT_EQ(pick(FaultKind::kDrift, r), -(3 * p + span + 3 + r));
    }
    for (const Rank k : {1, span}) {
      EXPECT_EQ(pick(FaultKind::kTear, k), -(p + 2 + k));
    }
    // Each range [lo, hi] lies strictly below the previous one and below
    // kNilRank, so no pick decodes to two kinds or to a rank.
    Rank above = kNilRank;
    for (usize k = 0; k < kNumFaultKinds; ++k) {
      const auto kind = static_cast<FaultKind>(k);
      const Rank width = kind == FaultKind::kTear ? span + 1 : p;
      const Rank hi = pick(kind, 0);
      const Rank lo = pick(kind, width - 1);
      EXPECT_LT(hi, above) << "kind " << k;
      EXPECT_LE(lo, hi);
      above = lo;
    }
  }
}

}  // namespace
}  // namespace rmalock::rma

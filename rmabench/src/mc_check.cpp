// mc-check: the checking side of the engine, through the mc:: entry points
// on two worker threads. Every round runs
//   * bounded-exhaustive check_rw_exhaustive of RMA-RW at P=3 (the
//     rw:rma-rw configuration: T_R=3, T_L=2 per level), and
//   * a randomized check_rw campaign at P=8 ({2,2} x 2, 20 acquires each);
// once per invocation, the planted rw:rma-rw-faithful-reset campaign must
// be caught, ddmin-shrunk, and its shrunk trace must replay the violation.
// Time goes into fresh small worlds, fiber stacks, list-policy scheduling,
// replay and the task pool — where the other workloads do little.
//
// BENCHMARK.json asks every workload for the same end-to-end metrics,
// so the workload also runs the randomized campaign's loop as a
// closed-loop modeled pass (kVirtualTime, XC30 cost model): the same P=8
// world and lock parameters, back-to-back acquires, the 10 ns critical
// section, half of them writes. Two things differ from the campaign: each
// rank makes 4000 acquires, so both latency classes have enough samples,
// and each acquire draws its role, where the campaign fixes one role per
// rank. With fixed roles the read median depends on which ranks write and
// is bimodal across seeds (0.2-1 v us for some placements, 31-43 v us
// for others), so it would not repeat within any bound.
#include <iostream>

#include "bench.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "rma/sim_world.hpp"

namespace rmabench {
namespace {

using namespace rmalock;

constexpr i32 kJobs = 2;
constexpr i32 kModeledRequestsPerRank = 4000;
// The campaign's writer_fraction, drawn per request instead of per rank.
constexpr u64 kModeledWritePermille = 500;
constexpr u64 kMinSamples = 1000;
// The campaigns' critical section: a scheduling point that keeps the CS
// observable to the benchmark's serial CS log.
constexpr Nanos kCsNs = 10;
// World + lock construction at P=8 takes microseconds: repeat it so the
// set-up median is a stable figure.
constexpr i32 kSetupReps = 64;
constexpr u64 kRandomSchedules = 4000;
constexpr u64 kPlantedSchedules = 400;

topo::Topology checked_topology() { return topo::Topology::uniform({2, 2}, 2); }

/// The rw:rma-rw configuration of the verification campaigns: small
/// thresholds stress mode changes.
locks::RmaRwParams checked_params(const topo::Topology& topology) {
  locks::RmaRwParams params = locks::RmaRwParams::defaults(topology);
  params.tr = 3;
  params.locality.assign(static_cast<usize>(topology.num_levels()), 2);
  return params;
}

mc::RwLockFactory rw_factory(bool faithful_reset) {
  return [faithful_reset](rma::World& world) {
    locks::RmaRwParams params = checked_params(world.topology());
    if (faithful_reset) {
      // rw:rma-rw-faithful-reset: readers hit T_R constantly, maximal
      // reset traffic, and the literal Listing 6 reader reset.
      params.tdc = 2;
      params.tr = 1;
      params.locality.assign(
          static_cast<usize>(world.topology().num_levels()), 1);
      params.paper_faithful_reader_reset = true;
    }
    return std::make_unique<locks::RmaRw>(world, params);
  };
}

class McCheck final : public Workload {
 public:
  explicit McCheck(u64 seed) : seed_(seed) {
    InputRng rng(seed * 0x100000001b3ULL + 3);
    streams_.per_rank.resize(static_cast<usize>(checked_topology().nprocs()));
    for (auto& stream : streams_.per_rank) {
      for (i32 i = 0; i < kModeledRequestsPerRank; ++i) {
        Request req;
        req.kind = rng.below(1000) < kModeledWritePermille ? Kind::kWrite
                                                           : Kind::kRead;
        stream.push_back(req);
      }
    }
    streams_.finish();
  }

  void describe() const override {
    std::cout << "mc-check: exhaustive RMA-RW P=3, randomized check_rw P=8 ("
              << kRandomSchedules << " schedules, base seed " << seed_
              << "), planted faithful-reset P=4 (" << kPlantedSchedules
              << " schedules), jobs=" << kJobs
              << "; modeled pass of the P=8 campaign's loop: "
              << streams_.total << " requests from "
              << streams_.per_rank.size() << " closed-loop clients ("
              << streams_.reads << " read, " << streams_.writes
              << " write), no think time\n"
              << "input digest: " << std::hex << streams_.digest() << std::dec
              << " (seed " << seed_ << ")\n";
  }

  /// The planted faithful-reset campaign: a correctness gate whose ddmin
  /// search cost depends on the counterexample the seed finds, so it runs
  /// once per invocation, before the measured rounds, and stays out of
  /// ops_per_host_s (mc.planted_s reports its host time).
  void prepare() override {
    mc::CheckConfig planted;
    planted.topology = topo::Topology::uniform({2}, 2);
    planted.policy = rma::SchedPolicy::kRandom;
    planted.schedules = kPlantedSchedules;
    planted.base_seed = seed_;
    planted.acquires_per_proc = 8;
    planted.writer_fraction = 0.5;
    planted.workload_id = "rw:rma-rw-faithful-reset";
    planted.jobs = kJobs;
    HostTimer planted_timer;
    const mc::CheckReport pl = mc::check_rw(planted, rw_factory(true));
    planted_s_ = planted_timer.seconds();
    require(pl.mutex_violations > 0 && pl.has_first_failure,
            "mc-check: the planted faithful-reset bug was not caught");
    const mc::FirstFailure& ff = pl.first_failure;
    const mc::ScheduleOutcome replay = mc::run_rw_schedule(
        planted, rw_factory(true),
        mc::replay_options(planted, ff.world_seed, ff.trace));
    require(replay.mutex_violations > 0,
            "mc-check: the shrunk counterexample does not replay");
    std::cout << "planted campaign (must be caught): " << pl.summary()
              << "\n";
    planted_virt_["mc.planted_raw_trace_len"] =
        static_cast<double>(ff.raw_trace_len);
    planted_virt_["mc.planted_shrunk_trace_len"] =
        static_cast<double>(ff.trace.size());
    planted_digest_.add(pl.schedules_run);
    planted_digest_.add(pl.mutex_violations);
    planted_digest_.add(ff.schedule_index);
    for (const Rank pick : ff.trace.picks) {
      planted_digest_.add(static_cast<u64>(pick));
    }
  }

  Round run_round(bool traced, const std::string& out_dir) override {
    Round round;
    Digest digest;
    modeled_pass(traced, out_dir, round, digest);
    campaigns(round, digest);
    round.host["mc.planted_s"] = planted_s_;
    round.virt.insert(planted_virt_.begin(), planted_virt_.end());
    digest.add(planted_digest_.value());
    round.vdigest = digest.value();
    return round;
  }

 private:
  void modeled_pass(bool traced, const std::string& out_dir, Round& round,
                    Digest& digest) {
    const topo::Topology topology = checked_topology();
    std::unique_ptr<obs::Tracer> tracer;
    rma::SimOptions opts;
    opts.topology = topology;
    opts.seed = seed_;
    if (traced) {
      tracer = std::make_unique<obs::Tracer>(topology.nprocs());
      opts.tracer = tracer.get();
    }
    std::unique_ptr<rma::SimWorld> world;
    std::unique_ptr<locks::RmaRw> lock;
    std::vector<double> create_s;
    std::vector<double> lock_s;
    for (i32 rep = 0; rep < kSetupReps; ++rep) {
      lock.reset();
      world.reset();
      HostTimer create_timer;
      world = rma::SimWorld::create(opts);
      create_s.push_back(create_timer.seconds());
      HostTimer lock_timer;
      lock = std::make_unique<locks::RmaRw>(*world, checked_params(topology));
      lock_s.push_back(lock_timer.seconds());
      round.setup_s.push_back(create_s.back() + lock_s.back());
    }
    round.host["rma.create_s"] = median(create_s);
    round.host["locks.construct_s"] = median(lock_s);

    SpanLog spans(traced);
    RwCsLog cs;
    const LoopResult loop = run_closed_loop(
        *world, streams_, spans,
        [&](rma::RmaComm& comm, const Request& req, u32 id) {
          rw_request(comm, *lock, req, id, spans, cs,
                     [&] { comm.compute(kCsNs); });
        });
    require(loop.run.ok(), "mc-check: modeled pass deadlocked");
    require(cs.violations == 0,
            "mc-check: modeled pass let a writer overlap another holder");

    LoopTotals totals;
    totals.add(*world, streams_, loop, tracer.get());
    totals.report(kMinSamples, round, digest);
    round.virt["locks.writer_run_mean"] =
        static_cast<double>(cs.write_entries) /
        static_cast<double>(cs.writer_runs);
    round.virt["locks.readers_in_cs_mean"] =
        static_cast<double>(cs.readers_sum) /
        static_cast<double>(cs.read_entries);

    if (!traced) {
      if (untraced_latency_.empty()) untraced_latency_ = totals.latency();
      return;
    }
    finish_traced(out_dir, "mc-check", spans, totals, untraced_latency_,
                  round.traced);
    rw_lock_metrics(spans, round.traced);
  }

  void campaigns(Round& round, Digest& digest) const {
    // Bounded-exhaustive: every interleaving of 3 processes, one acquire
    // each, within 3 preemptions (iterative deepening); ranks alternate
    // writer/reader by parity.
    mc::CheckConfig exhaustive;
    exhaustive.topology = topo::Topology::uniform({}, 3);
    exhaustive.acquires_per_proc = 1;
    exhaustive.max_steps = 400'000;
    exhaustive.workload_id = "rw:rma-rw";
    exhaustive.jobs = kJobs;
    exhaustive.writer_roles = {true, false, true};
    mc::ExploreConfig explore;
    explore.max_schedules = 500'000;
    explore.max_preemptions = 3;
    HostTimer exhaustive_timer;
    const mc::CheckReport ex = mc::check_rw_exhaustive(
        exhaustive, explore, rw_factory(false), /*iterative=*/true);
    const double exhaustive_s = exhaustive_timer.seconds();
    require(ex.ok() && ex.step_limit_hits == 0,
            "mc-check: exhaustive campaign found a violation: " +
                ex.summary());
    require(ex.exhausted_spaces == 1,
            "mc-check: exhaustive campaign did not drain its space");

    mc::CheckConfig random;
    random.topology = checked_topology();
    random.policy = rma::SchedPolicy::kRandom;
    random.schedules = kRandomSchedules;
    random.base_seed = seed_;
    random.acquires_per_proc = 20;
    random.workload_id = "rw:rma-rw";
    random.jobs = kJobs;
    HostTimer random_timer;
    const mc::CheckReport rnd = mc::check_rw(random, rw_factory(false));
    const double random_s = random_timer.seconds();
    require(rnd.ok() && rnd.step_limit_hits == 0,
            "mc-check: randomized campaign found a violation: " +
                rnd.summary());

    const u64 violations = ex.mutex_violations + ex.deadlocks +
                           ex.livelock_violations + rnd.mutex_violations +
                           rnd.deadlocks + rnd.livelock_violations;
    const u64 cs_entries = ex.total_cs_entries + rnd.total_cs_entries;
    round.work_s += exhaustive_s + random_s;
    round.requests += cs_entries;
    round.attempted += ex.schedules_run + rnd.schedules_run;
    round.failed += violations + ex.step_limit_hits + rnd.step_limit_hits;
    round.host["mc.exhaustive_s"] = exhaustive_s;
    round.host["mc.random_s"] = random_s;
    round.host["mc.us_per_schedule_exhaustive"] =
        exhaustive_s * 1e6 / static_cast<double>(ex.schedules_run);
    round.host["mc.us_per_schedule_random"] =
        random_s * 1e6 / static_cast<double>(rnd.schedules_run);
    round.virt["mc.exhaustive_schedules"] =
        static_cast<double>(ex.schedules_run);
    round.virt["mc.random_schedules"] = static_cast<double>(rnd.schedules_run);
    round.virt["mc.cs_entries"] = static_cast<double>(cs_entries);
    round.virt["mc.violations"] = static_cast<double>(violations);
    for (const u64 v : {ex.schedules_run, rnd.schedules_run, cs_entries}) {
      digest.add(v);
    }
  }

  u64 seed_;
  Streams streams_;
  std::vector<Nanos> untraced_latency_;
  // Results of the planted campaign (prepare()).
  double planted_s_ = 0;
  Metrics planted_virt_;
  Digest planted_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_mc_check(u64 seed) {
  return std::make_unique<McCheck>(seed);
}

}  // namespace rmabench

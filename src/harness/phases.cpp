#include "harness/phases.hpp"

#include <cmath>

#include "common/check.hpp"

namespace rmalock::harness {

void PhaseRecorder::record(bool is_write, Nanos from_ns) {
  if (!measured_) return;
  // Clamp at zero: an open-loop op's from_ns is its *scheduled* arrival,
  // and an over-driven process can reach here with a wall clock
  // (ThreadWorld) that ran ahead of or behind the schedule by less than the
  // clock's granularity — the difference must never go negative.
  const Nanos end = comm_->now_ns();
  const Nanos delta = end > from_ns ? end - from_ns : 0;
  (is_write ? writes_us_ : reads_us_).record(static_cast<double>(delta) / 1e3);
}

PhaseResult run_phases(rma::World& world, const Phases& phases,
                       const PhaseOp& op) {
  const bool duration_mode = phases.duration_ns > 0;
  RMALOCK_CHECK(duration_mode || phases.ops >= 1);
  const i32 warmup_ops =
      static_cast<i32>(std::ceil(kWarmupFraction * phases.ops));
  const Nanos warmup_ns = static_cast<Nanos>(
      kWarmupFraction * static_cast<double>(phases.duration_ns));
  std::vector<PhaseRecorder> recs(static_cast<usize>(world.nprocs()));

  const rma::RunResult run = world.run([&](rma::RmaComm& comm) {
    PhaseRecorder& rec = recs[static_cast<usize>(comm.rank())];
    rec.comm_ = &comm;
    const auto loop = [&](i32 ops, Nanos duration_ns) {
      if (duration_mode) {
        const Nanos end = comm.now_ns() + duration_ns;
        while (comm.now_ns() < end) op(comm, rec);
      } else {
        for (i32 i = 0; i < ops; ++i) op(comm, rec);
      }
    };

    comm.barrier();
    loop(warmup_ops, warmup_ns);  // discarded (§5)
    comm.barrier();
    rec.stats_ = comm.stats();
    rec.t0_ = comm.now_ns();
    rec.measured_ = true;
    loop(phases.ops, phases.duration_ns);
    comm.barrier();  // synchronizes clocks: t1 - t0 is the phase makespan
    rec.t1_ = comm.now_ns();
    rma::OpStats delta = comm.stats();
    delta -= rec.stats_;
    rec.stats_ = std::move(delta);
  });
  RMALOCK_CHECK_MSG(run.ok(), "benchmark run failed (deadlock/step limit)");

  PhaseResult result;
  for (const PhaseRecorder& rec : recs) {
    result.read_us.merge(rec.reads_us_);
    result.write_us.merge(rec.writes_us_);
    result.op_stats += rec.stats_;
  }
  result.all_us.merge(result.read_us);
  result.all_us.merge(result.write_us);
  result.elapsed_ns = recs[0].t1_ - recs[0].t0_;
  return result;
}

}  // namespace rmalock::harness

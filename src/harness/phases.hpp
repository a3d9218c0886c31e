// The §5 measurement driver behind the lock microbenchmarks
// (microbench.hpp), the DHT case study (dht_bench.hpp) and the LockSpace
// workload engine (workload/engine.hpp); callers supply one operation.
//
// Methodology (§5): the first 10% of operations are a discarded warmup;
// barriers bracket the measured phase, so its makespan is the difference of
// two synchronized clocks; throughput is measured operations over that
// makespan; latency is recorded per operation.
#pragma once

#include <functional>

#include "obs/hist.hpp"
#include "rma/world.hpp"

namespace rmalock::harness {

/// §5: the first 10% of the operations (count mode) or of the measurement
/// window (duration mode) run first and are discarded.
inline constexpr double kWarmupFraction = 0.1;

struct Phases {
  /// Measured operations per process (count mode).
  i32 ops = 0;
  /// Duration mode when > 0: each process runs operations until this much
  /// of its measured phase has passed.
  Nanos duration_ns = 0;
};

struct PhaseResult {
  Nanos elapsed_ns = 0;  // measured-phase makespan (virtual in SimWorld)
  /// Measured latencies (µs), merged in rank order; all_us merges reads
  /// before writes. Bit-identical however the campaign is parallelized.
  obs::LogHistogram read_us;
  obs::LogHistogram write_us;
  obs::LogHistogram all_us;
  rma::OpStats op_stats;  // measured phase, summed over processes

  /// Recorded operations per µs of makespan (= millions per second).
  [[nodiscard]] double mops_per_s() const {
    return static_cast<double>(all_us.count()) /
           static_cast<double>(elapsed_ns) * 1e3;
  }
};

class PhaseRecorder;
using PhaseOp = std::function<void(rma::RmaComm&, PhaseRecorder&)>;

/// Runs warmup and measured phase on every process, one `op` call per
/// operation. Collective; aborts if the run deadlocks or hits the step
/// limit.
PhaseResult run_phases(rma::World& world, const Phases& phases,
                       const PhaseOp& op);

/// One process's view of the running phases. Each process owns its
/// recorder, so ThreadWorld threads never share one; run_phases merges them
/// after the run.
class PhaseRecorder {
 public:
  /// False during warmup.
  [[nodiscard]] bool measured() const { return measured_; }
  /// This process's clock at the start of the measured phase.
  [[nodiscard]] Nanos start_ns() const { return t0_; }
  /// In the measured phase, records now - from_ns as one read or write
  /// latency; does nothing during warmup.
  void record(bool is_write, Nanos from_ns);

 private:
  friend PhaseResult run_phases(rma::World&, const Phases&, const PhaseOp&);

  rma::RmaComm* comm_ = nullptr;
  bool measured_ = false;
  Nanos t0_ = 0;
  Nanos t1_ = 0;
  rma::OpStats stats_;  // snapshot at t0, then the measured-phase delta
  obs::LogHistogram reads_us_;
  obs::LogHistogram writes_us_;
};

}  // namespace rmalock::harness

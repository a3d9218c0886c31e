// Shared sweep helpers for the figure-reproduction binaries.
//
// Sweeps are fleets of independent SimWorld runs: every (series, P) point
// derives everything from the BenchEnv and its own parameters, so
// run_point_tasks measures points through a work-stealing TaskPool (--jobs
// / RMALOCK_JOBS; default 1 = the plain sequential loop) and merges the
// results into the FigureReport in canonical sweep order. Virtual-time
// metrics are bit-identical at any jobs value; only wall clock changes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_common.hpp"
#include "harness/microbench.hpp"
#include "harness/task_pool.hpp"
#include "locks/d_mcs.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::bench {

using harness::BenchEnv;
using harness::BenchResult;
using harness::FigureReport;
using harness::MicrobenchConfig;
using harness::Workload;

inline locks::RmaMcsParams default_mcs_params(const topo::Topology& topo) {
  locks::RmaMcsParams params;
  params.locality.assign(static_cast<usize>(topo.num_levels()), 32);
  return params;
}

inline locks::RmaRwParams rw_params(const topo::Topology& topo, i32 tdc,
                                    i64 tl_leaf, i64 tl_root, i64 tr) {
  locks::RmaRwParams params;
  params.tdc = tdc;
  params.locality.assign(static_cast<usize>(topo.num_levels()), tl_leaf);
  params.locality[0] = tl_root;
  params.tr = tr;
  return params;
}

/// Pool driver: each task produces one complete SeriesPoint. Points are
/// measured in parallel at env.jobs > 1 and merged in task order — the
/// report is byte-identical to a sequential loop, whatever order the
/// workers finish in.
inline void run_point_tasks(
    const BenchEnv& env, FigureReport& report,
    const std::vector<std::function<FigureReport::SeriesPoint()>>& tasks) {
  std::vector<FigureReport::SeriesPoint> slots(tasks.size());
  harness::TaskPool pool(env.jobs);
  pool.run(tasks.size(), [&](u64 i) {
    slots[static_cast<usize>(i)] = tasks[static_cast<usize>(i)]();
  });
  report.add_points(slots);
}

/// Jobs-determinism self-check: `probe` measured inline and twice on a
/// 2-worker pool must agree on every metric bit (the claim behind "--jobs N
/// output is byte-identical to --jobs 1").
inline void check_jobs_invariant(
    FigureReport& report,
    const std::function<FigureReport::SeriesPoint()>& probe) {
  const FigureReport::SeriesPoint inline_point = probe();
  std::vector<FigureReport::SeriesPoint> pooled(2);
  harness::TaskPool pool(2);
  pool.run(2, [&](u64 i) { pooled[static_cast<usize>(i)] = probe(); });
  report.check("virtual-time metrics identical across jobs",
               pooled[0] == inline_point && pooled[1] == inline_point,
               "same config measured inline vs on 2 pool workers");
}

}  // namespace rmalock::bench

// Descriptive statistics for benchmark results.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/hist.hpp"

namespace rmalock::harness {

struct Summary {
  double mean = 0;
  double median = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
  usize n = 0;
};

/// Summarizes a sample exactly (copies and sorts internally; empty input ->
/// zeros). Used by fig10 and fig_crash_recovery, and by the tests as the
/// exact reference for the histogram overload.
Summary summarize(std::vector<double> values);

/// Summarizes a streaming histogram: min/max/mean/stddev are exact (the
/// histogram keeps exact moments), median and p95 carry the histogram's
/// bounded relative error (<= 1/obs::LogHistogram::kSubBuckets).
Summary summarize(const obs::LogHistogram& hist);

/// Percentile of a sorted sample. The convention is linear interpolation
/// between closest ranks over positions 0..n-1 (NIST/R-7: the value at
/// fractional position (n-1) * pct/100), NOT nearest-rank — so pct=50 of
/// {1,2} is 1.5, pct=0 is the minimum and pct=100 the maximum exactly.
/// Degenerate inputs are total: empty -> 0, single sample -> that sample,
/// and pct is clamped into [0, 100] (out-of-range requests can never index
/// out of bounds).
double percentile_sorted(const std::vector<double>& sorted, double pct);

}  // namespace rmalock::harness

// Log-bucketed streaming histogram (HDR-style) with bounded relative error.
//
// The latency recorder of the measurement driver (harness/phases.hpp), and
// so of every microbenchmark, the DHT bench and the workload engine:
// recording is O(1), memory is O(occupied buckets), and quantile estimates
// carry a bounded relative error of at most 1/kSubBuckets (~1.6%) — each
// power-of-two octave [2^(e-1), 2^e) is split into kSubBuckets linear
// sub-buckets, so a bucket's width never exceeds its lower edge /
// kSubBuckets.
//
// Determinism: bucket indices come from std::frexp (exact mantissa/exponent
// decomposition, no transcendental math), buckets live in a sorted map, and
// merge() adds counters — merging per-worker histograms in deterministic
// index order (the TaskPool convention) reproduces the sequential result
// bit-for-bit, including the floating-point running sums.
//
// Degenerate-input parity with harness::percentile_sorted (the exact R-7
// path that fig9, fig10 and fig_crash_recovery still use, and that the
// tests compare these estimates against): empty -> 0, single sample -> that
// sample exactly, pct <= 0 (and NaN) -> exact min, pct >= 100 -> exact max,
// estimates clamped into [min, max].
#pragma once

#include <map>
#include <vector>

#include "common/types.hpp"

namespace rmalock::obs {

class LogHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave: relative error bound.
  static constexpr i32 kSubBuckets = 64;

  void record(double value);

  /// Adds another histogram's buckets and moments. Call in deterministic
  /// order (e.g. TaskPool slot index order) when bit-identical floating
  /// sums matter.
  void merge(const LogHistogram& other);

  [[nodiscard]] u64 count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// Exact (not bucketed) extremes and moments over recorded values.
  [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1 denominator, matching
  /// harness::summarize).
  [[nodiscard]] double stddev() const;

  /// Quantile estimate with the documented error bound and degenerate
  /// parity (see header comment).
  [[nodiscard]] double percentile(double pct) const;

  struct Bucket {
    double lo = 0;
    double hi = 0;
    u64 count = 0;
  };
  /// Occupied buckets in ascending value order (bench JSON summaries).
  [[nodiscard]] std::vector<Bucket> buckets() const;

 private:
  // Key of the sub-bucket containing v (v > 0): frexp gives v = m * 2^e
  // with m in [0.5, 1); the key is e * kSubBuckets + floor((m - 0.5) * 2 *
  // kSubBuckets). Non-positive and non-finite values land in a dedicated
  // zero bucket (latencies are clamped non-negative upstream).
  [[nodiscard]] static i32 key_of(double v);
  [[nodiscard]] static Bucket bounds_of(i32 key);

  std::map<i32, u64> buckets_;
  u64 zero_ = 0;  // values <= 0 or non-finite
  u64 n_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
};

}  // namespace rmalock::obs

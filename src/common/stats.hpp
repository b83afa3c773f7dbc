#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace psn {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  std::string summary() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Keeps all samples; supports exact percentiles. Use for detection-latency
/// style metrics where tails matter and sample counts are modest.
///
/// Samples are kept sorted eagerly on insertion (binary search + insert, so
/// add() is O(n) — fine at the sample counts this class is for). That makes
/// every const observer a pure read with no hidden mutation, so concurrent
/// reads of a fully built SampleSet are safe — e.g. sweep workers sharing a
/// merged result. Interleaving add() with reads still needs external
/// synchronization, like any container.
class SampleSet {
 public:
  void add(double x);
  std::size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by linear interpolation, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  /// The samples in ascending order.
  const std::vector<double>& samples() const { return xs_; }

 private:
  std::vector<double> xs_;  // invariant: ascending
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples go to clamp bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count(std::size_t i) const;
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  /// Adds `other`'s bins and tallies into this one; InvariantError unless
  /// both have the same range and bin count.
  void merge(const Histogram& other);
  /// Renders a terminal bar chart, one row per bin.
  std::string ascii(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace psn

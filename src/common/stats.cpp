#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace psn {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  n_++;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : 0.0; }
double RunningStats::max() const { return n_ ? max_ : 0.0; }

std::string RunningStats::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%zu mean=%.6g sd=%.6g min=%.6g max=%.6g",
                n_, mean(), stddev(), min(), max());
  return buf;
}

void SampleSet::add(double x) {
  xs_.insert(std::upper_bound(xs_.begin(), xs_.end(), x), x);
}

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double SampleSet::min() const { return xs_.empty() ? 0.0 : xs_.front(); }

double SampleSet::max() const { return xs_.empty() ? 0.0 : xs_.back(); }

double SampleSet::percentile(double p) const {
  PSN_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (xs_.empty()) return 0.0;
  if (xs_.size() == 1) return xs_[0];
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PSN_CHECK(hi > lo, "histogram range inverted");
  PSN_CHECK(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  total_++;
  if (x < lo_) {
    underflow_++;
    return;
  }
  if (x >= hi_) {
    overflow_++;
    return;
  }
  const double f = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(f * static_cast<double>(counts_.size()));
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  counts_[idx]++;
}

void Histogram::merge(const Histogram& other) {
  PSN_CHECK(lo_ == other.lo_ && hi_ == other.hi_ &&
                counts_.size() == other.counts_.size(),
            "merging histograms of different shape");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * width / peak;
    std::snprintf(buf, sizeof buf, "[%10.4g, %10.4g) %6zu |", bin_lo(i),
                  bin_hi(i), counts_[i]);
    out += buf;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace psn

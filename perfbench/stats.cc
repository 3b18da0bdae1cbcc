#include "perfbench/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1% log buckets from 0.01 us.
constexpr double kHistMin = 0.01;
const double kHistStep = std::log(1.01);

double MedianOfBlocks(const std::vector<double>& blocks,
                      const std::vector<double>& partial, double q) {
  if (blocks.size() >= 4) {
    return Quantile(blocks, 0.25);
  }
  if (!blocks.empty()) {
    return Quantile(blocks, 0.5);
  }
  return Quantile(partial, q);
}

}  // namespace

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- LogHistogram ----------------------------------------------------------

void LogHistogram::Add(double us) {
  const double x = std::max(us, kHistMin);
  const auto b = static_cast<size_t>(std::log(x / kHistMin) / kHistStep);
  if (b >= buckets_.size()) {
    buckets_.resize(b + 1);
  }
  ++buckets_[b];
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const auto rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      // Bucket midpoint (geometric).
      return kHistMin * std::exp((static_cast<double>(b) + 0.5) * kHistStep);
    }
  }
  return 0;
}

// --- Series ------------------------------------------------------------------

void Series::Add(double us) {
  all_.Add(us);
  block50_.push_back(us);
  block99_.push_back(us);
  if (block50_.size() == kP50Block) {
    p50s_.push_back(Quantile(block50_, 0.5));
    block50_.clear();
  }
  if (block99_.size() == kP99Block) {
    p99s_.push_back(Quantile(block99_, 0.99));
    block99_.clear();
  }
}

double Series::P50() const { return MedianOfBlocks(p50s_, block50_, 0.5); }

double Series::P99() const { return MedianOfBlocks(p99s_, block99_, 0.99); }

// --- RateSeries --------------------------------------------------------------

void RateSeries::Add(int64_t ops, double seconds) {
  if (seconds > 0) {
    rates_.push_back(static_cast<double>(ops) / seconds);
  }
}

double RateSeries::Rate() const { return Quantile(rates_, 0.75); }

}  // namespace perfbench

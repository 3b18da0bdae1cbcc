// Clocks, counters and the block statistics every timing metric uses.
//
// The benchmark host switches its cores between two speed states about
// 1.6x apart, for seconds at a time. A run's plain percentiles therefore
// depend on which state it landed in. Every timing is instead cut into
// blocks of consecutive operations; each block yields its own quantile, and
// the metric is the fast quartile of those block values (the 25th
// percentile of block latencies, the 75th of block rates). A run that
// spends a quarter of its blocks in the fast state reports the fast state's
// figure, whichever state dominated it.
//
// Samples are reduced block by block as they arrive: the benchmark's own
// memory does not grow with the number of operations a run completes, so
// the process's peak RSS is the program's.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "perfbench/gen.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Heap allocations made so far on the calling thread (alloc_count.cc).
uint64_t AllocCount();

// Peak resident set size of the process so far, in MiB.
double PeakRssMiB();

// Linear-interpolated quantile of `values` (copied; q in [0, 1]).
double Quantile(std::vector<double> values, double q);

// A median block holds as many samples as the catalog has apps, so a block
// of deploys or teardowns covers every app once; tail blocks hold four
// times as many.
constexpr size_t kP50Block = kApps;
constexpr size_t kP99Block = 4 * kApps;

// Log-bucketed histogram of samples (1% buckets), for whole-run
// quantiles in fixed memory.
class LogHistogram {
 public:
  void Add(double us);
  double Quantile(double q) const;
  int64_t count() const { return count_; }

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

// One operation's latency samples, folded into fixed-size blocks as they
// arrive; only each block's quantile is kept.
class Series {
 public:
  void Add(double us);

  // Fast quartile (25th percentile) of per-block medians and of per-block
  // 99th percentiles. With fewer than four whole blocks, the median of the
  // blocks there are (or the quantile of the partial block).
  double P50() const;
  double P99() const;
  // Whole-run quantile of all samples.
  double WholeRun(double q) const { return all_.Quantile(q); }
  int64_t count() const { return all_.count(); }

 private:
  std::vector<double> block50_, block99_;
  std::vector<double> p50s_, p99s_;
  LogHistogram all_;
};

// Closed-loop throughput, one block per round: operations completed over
// the client time spent issuing them.
class RateSeries {
 public:
  void Add(int64_t ops, double seconds);
  // The fast quartile (75th percentile) of per-round rates.
  double Rate() const;

 private:
  std::vector<double> rates_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

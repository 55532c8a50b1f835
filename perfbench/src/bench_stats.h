// The benchmark's own statistics: percentiles that carry their sample
// counts, and the open-loop arrival schedule and its lateness accounting.
//
// Everything here is a pure function of its arguments so that
// tests/bench_stats_test.cc can pin it without a running service.
#ifndef PERFBENCH_SRC_BENCH_STATS_H_
#define PERFBENCH_SRC_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile together with the number of samples it was taken from and
// the number of samples strictly above it, so a reader can tell a p99 of 40
// samples (none beyond) from a p99 of 40 000 (400 beyond).
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

// Nearest-rank percentile, q in (0, 100]: the smallest sample such that at
// least q% of the samples are <= it. Empty input gives value 0, samples 0.
Percentile NearestRank(std::vector<double> values, double q);

// The median of `values` (mean of the two middle samples for even counts);
// 0 for an empty vector.
double Median(std::vector<double> values);

// Poisson arrivals: due offsets in seconds from the phase start, with
// exponential gaps of mean 1/rate, every offset < duration_s. The same
// (rate, duration, seed) always gives the same schedule.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s, uint64_t seed);

// Lateness of an open-loop generator: lag[i] is how long after its due time
// request i was actually handed to the service.
struct Lateness {
  Percentile p99_ms;
  double max_ms = 0.0;
  // True when the generator kept to its schedule: p99 lag at most
  // `limit_ms`. A run that fails this measured the generator, not the
  // service, so its latencies are not reported.
  bool kept = false;
};
Lateness AccountLateness(const std::vector<double>& lag_ms, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_STATS_H_

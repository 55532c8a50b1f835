#include "perfbench/src/bench_stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) {
    return p;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  p.value = values[rank - 1];
  p.beyond = static_cast<size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), p.value));
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s, uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) {
    return due;
  }
  due.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  std::mt19937_64 engine(seed);
  // Inverse-CDF draw from the raw engine output, so the schedule does not
  // depend on the standard library's distribution implementation.
  double t = 0.0;
  while (true) {
    const double u = (static_cast<double>(engine() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) {
      break;
    }
    due.push_back(t);
  }
  return due;
}

Lateness AccountLateness(const std::vector<double>& lag_ms, double limit_ms) {
  Lateness out;
  out.p99_ms = NearestRank(lag_ms, 99.0);
  for (double lag : lag_ms) {
    out.max_ms = std::max(out.max_ms, lag);
  }
  out.kept = out.p99_ms.value <= limit_ms;
  return out;
}

}  // namespace perfbench

// Unit tests of the benchmark's own statistics: percentiles and their sample
// counts, the Poisson schedule, lateness accounting and the span log.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/span_log.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: the functions must not assume sorted input
  }
  return v;
}

TEST(NearestRank, CountsSamplesAndThoseBeyond) {
  const Percentile p99 = NearestRank(OneTo(1000), 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = NearestRank(OneTo(1000), 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(NearestRank, SmallSamplesGiveTheMaximumWithNothingBeyond) {
  const Percentile p99 = NearestRank(OneTo(3), 99.0);
  EXPECT_EQ(p99.value, 3.0);
  EXPECT_EQ(p99.samples, 3u);
  EXPECT_EQ(p99.beyond, 0u);
  EXPECT_EQ(NearestRank({7.0}, 50.0).value, 7.0);
}

TEST(NearestRank, TiesAreNotCountedBeyond) {
  const Percentile p = NearestRank({1, 2, 2, 2, 2}, 50.0);
  EXPECT_EQ(p.value, 2.0);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(NearestRank, EmptyInputHasNoSamples) {
  const Percentile p = NearestRank({}, 99.0);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_EQ(p.value, 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PoissonSchedule, DeterministicSortedAndAtTheOfferedRate) {
  const std::vector<double> a = PoissonSchedule(10000.0, 2.0, 7);
  EXPECT_EQ(a, PoissonSchedule(10000.0, 2.0, 7));
  EXPECT_NE(a, PoissonSchedule(10000.0, 2.0, 8));
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_LT(a[i - 1], a[i]);
  }
  EXPECT_LT(a.back(), 2.0);
  // 20000 expected arrivals; a Poisson count has sd ~141.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 700.0);
  EXPECT_TRUE(PoissonSchedule(0.0, 1.0, 1).empty());
}

TEST(Lateness, KeptOnlyWhenP99LagIsWithinTheLimit) {
  std::vector<double> lag(1000, 0.01);
  Lateness on_time = AccountLateness(lag, 1.0);
  EXPECT_TRUE(on_time.kept);
  EXPECT_EQ(on_time.p99_ms.samples, 1000u);
  // 1% of requests 5 ms late: still at the p99 boundary, kept.
  for (int i = 0; i < 10; ++i) {
    lag[static_cast<size_t>(i)] = 5.0;
  }
  Lateness some = AccountLateness(lag, 1.0);
  EXPECT_TRUE(some.kept);
  EXPECT_EQ(some.max_ms, 5.0);
  // 2% late: the p99 lag is 5 ms and the generator did not keep up.
  for (int i = 10; i < 20; ++i) {
    lag[static_cast<size_t>(i)] = 5.0;
  }
  Lateness late = AccountLateness(lag, 1.0);
  EXPECT_FALSE(late.kept);
  EXPECT_EQ(late.p99_ms.value, 5.0);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  EXPECT_EQ(log.NewId(), 0u);
  { ScopedBenchSpan span(&log, "x", 1); }
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SpanLog, WritesNestedSpansAsChromeTraceEvents) {
  SpanLog log(true);
  {
    ScopedBenchSpan parent(&log, "request", 42);
    ScopedBenchSpan child(&log, "serve.submit", 42, parent.id());
  }
  const std::vector<Span> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const Span& child = spans[0].name == std::string("serve.submit") ? spans[0] : spans[1];
  const Span& parent = spans[0].name == std::string("request") ? spans[0] : spans[1];
  EXPECT_EQ(child.parent, parent.id);
  EXPECT_EQ(child.trace_id, 42u);
  EXPECT_LE(parent.start, child.start);
  EXPECT_GE(parent.end, child.end);

  const std::string path = ::testing::TempDir() + "perfbench_span_log_test.json";
  ASSERT_TRUE(log.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"request\", \"cat\": \"perfbench\", \"ph\": \"b\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench

// Observability-subsystem tests: log-bucketed histogram accuracy against
// exact-sort percentiles (uniform, bimodal, heavy-tail), concurrent-recording
// stress, merge/delta correctness, sharded counter exactness, trace-span
// nesting/exclusive attribution, and end-to-end latency attribution of
// sampled traces through a multi-worker PredictionService.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_service.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

// ---- Histogram accuracy ----------------------------------------------------

// Exact-sort nearest-rank percentile: the value of the ceil(p/100 * n)-th
// smallest sample. This matches the histogram's quantile definition, so the
// comparison below isolates pure bucketing error. (The shared Percentile()
// helper interpolates between order statistics instead; on distributions with
// gaps — bimodal, sparse heavy tails — the two *definitions* legitimately
// disagree by far more than the bucket width, which is not a histogram bug.)
double ExactNearestRank(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  return values[rank - 1];
}

// Records `values` and checks the histogram percentiles against the exact
// sorted order statistic within 2% relative error (the subsystem's documented
// contract; the log-bucket midpoint guarantees ~0.8%).
void CheckPercentiles(const std::vector<double>& values, const char* label) {
  obs::LogHistogram hist;
  for (double v : values) {
    hist.Record(v);
  }
  obs::HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size()) << label;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = ExactNearestRank(values, p);
    const double approx = snap.Percentile(p);
    EXPECT_NEAR(approx, exact, std::abs(exact) * 0.02)
        << label << " p" << p << ": histogram " << approx << " vs exact " << exact;
  }
}

TEST(LogHistogramTest, PercentilesMatchExactSortOnUniform) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> dist(0.05, 40.0);
  std::vector<double> values(20000);
  for (double& v : values) {
    v = dist(rng);
  }
  CheckPercentiles(values, "uniform");
  // On dense data the interpolating shared helper agrees with nearest-rank,
  // so also pin the histogram against the repo's canonical Percentile().
  obs::LogHistogram hist;
  for (double v : values) {
    hist.Record(v);
  }
  obs::HistogramSnapshot snap = hist.Snapshot();
  for (double p : {50.0, 99.0}) {
    const double exact = Percentile(values, p);
    EXPECT_NEAR(snap.Percentile(p), exact, exact * 0.02);
  }
}

TEST(LogHistogramTest, PercentilesMatchExactSortOnBimodal) {
  // Adversarial for a bounded reservoir and for coarse buckets: two narrow
  // modes three orders of magnitude apart (fast cache hits vs slow misses).
  std::mt19937_64 rng(77);
  std::normal_distribution<double> fast(0.02, 0.002);
  std::normal_distribution<double> slow(30.0, 2.0);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = (i % 10 == 0) ? slow(rng) : fast(rng);
    values.push_back(std::max(v, 1e-6));
  }
  CheckPercentiles(values, "bimodal");
}

TEST(LogHistogramTest, PercentilesMatchExactSortOnHeavyTail) {
  // Log-normal with sigma 2: ~5 decades of spread, the regime where a
  // fixed-width histogram or a first-N reservoir is useless.
  std::mt19937_64 rng(2024);
  std::lognormal_distribution<double> dist(0.0, 2.0);
  std::vector<double> values(20000);
  for (double& v : values) {
    v = dist(rng);
  }
  CheckPercentiles(values, "heavy-tail");
}

TEST(LogHistogramTest, ZeroAndNegativeValuesLandInTheZeroBucket) {
  obs::LogHistogram hist;
  hist.Record(0.0);
  hist.Record(-3.5);
  hist.Record(1.0);
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.zero_count, 2u);
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_NEAR(snap.Percentile(99.0), 1.0, 0.02);
}

TEST(LogHistogramTest, BucketMidpointIsWithinRelativeErrorBound) {
  // Sweep values across many decades: the midpoint a bucket reports must be
  // within the documented ~0.8% of every value that maps into it.
  for (double v = 1e-6; v < 1e6; v *= 1.37) {
    const int idx = obs::LogHistogram::BucketIndex(v);
    const double mid = obs::LogHistogram::BucketMidpoint(idx);
    EXPECT_NEAR(mid, v, v * 0.008) << "value " << v;
  }
}

TEST(LogHistogramTest, ConcurrentRecordingLosesNothing) {
  obs::LogHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      std::uniform_real_distribution<double> dist(0.1, 100.0);
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(dist(rng));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(snap.Percentile(50.0), 0.1);
  EXPECT_LT(snap.Percentile(50.0), 100.0);
}

TEST(LogHistogramTest, MergeMatchesRecordingEverythingIntoOne) {
  std::mt19937_64 rng(5);
  std::lognormal_distribution<double> dist(1.0, 1.5);
  obs::LogHistogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  obs::HistogramSnapshot merged = a.Snapshot();
  obs::HistogramSnapshot expected = combined.Snapshot();
  ASSERT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.buckets, expected.buckets);
  // Snapshot-level merge agrees with histogram-level merge.
  obs::HistogramSnapshot s1 = combined.Snapshot();
  obs::HistogramSnapshot empty;
  empty.Merge(s1);
  EXPECT_EQ(empty.count, s1.count);
  EXPECT_DOUBLE_EQ(empty.Percentile(99.0), s1.Percentile(99.0));
}

TEST(LogHistogramTest, DeltaIsolatesTheInterval) {
  obs::LogHistogram hist;
  for (int i = 0; i < 1000; ++i) {
    hist.Record(1.0);
  }
  obs::HistogramSnapshot first = hist.Snapshot();
  for (int i = 0; i < 500; ++i) {
    hist.Record(64.0);
  }
  obs::HistogramSnapshot delta = hist.Snapshot().Delta(first);
  EXPECT_EQ(delta.count, 500u);
  EXPECT_NEAR(delta.Percentile(50.0), 64.0, 64.0 * 0.02);
  EXPECT_NEAR(delta.MinValue(), 64.0, 64.0 * 0.02);
}

TEST(LogHistogramTest, ResetZeroesEverything) {
  obs::LogHistogram hist;
  hist.Record(3.0);
  hist.Reset();
  EXPECT_EQ(hist.TotalCount(), 0u);
  EXPECT_TRUE(hist.Snapshot().empty());
}

// ---- Metrics registry ------------------------------------------------------

TEST(MetricsTest, PerThreadCounterCellsAreExactUnderConcurrency) {
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter("test.concurrent_adds");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, CounterStaysExactAcrossSlotRecyclingAndOverflow) {
  // More concurrent threads than writer-exclusive slots exist (some must take
  // the shared overflow cell), run in waves so exiting threads recycle their
  // slots into later waves. Every increment must still land.
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter("test.slot_churn");
  counter.Reset();
  constexpr int kWaves = 3;
  constexpr int kThreads = 96;  // > detail::kCounterSlots
  constexpr int kPerThread = 1000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&counter] {
        for (int i = 0; i < kPerThread; ++i) {
          counter.Add();
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kWaves) * kThreads * kPerThread);
}

TEST(MetricsTest, RegistryHandsOutStableReferencesAndDumpsJson) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& c1 = registry.GetCounter("test.stable");
  obs::Counter& c2 = registry.GetCounter("test.stable");
  EXPECT_EQ(&c1, &c2);
  c1.Reset();
  c1.Add(41);
  c2.Add(1);
  EXPECT_EQ(registry.CounterValues().at("test.stable"), 42u);
  registry.GetGauge("test.gauge").Set(2.5);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"test.stable\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST(MetricsTest, KillSwitchSuppressesRecording) {
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter("test.killswitch");
  counter.Reset();
  obs::SetMetricsEnabled(false);
  counter.Add(100);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(MetricsTest, DataPlaneCountersAccumulate) {
  // The GEMM dispatch layer counts calls and flops by precision and ISA; any
  // forward pass must move the counters. Use a tiny direct GEMM through the
  // public layer API instead: Linear::Forward dispatches GemmBiasAct.
  auto before_all = obs::MetricsRegistry::Global().CounterValues();
  uint64_t before = 0;
  for (const auto& [name, value] : before_all) {
    if (name.rfind("gemm.calls.", 0) == 0) {
      before += value;
    }
  }
  Rng rng(3);
  Linear lin(8, 8, &rng);
  Matrix x(4, 8);
  Workspace ws;
  lin.Forward(x, &ws);
  uint64_t after = 0;
  for (const auto& [name, value] : obs::MetricsRegistry::Global().CounterValues()) {
    if (name.rfind("gemm.calls.", 0) == 0) {
      after += value;
    }
  }
  EXPECT_GT(after, before);
}

// ---- Trace spans -----------------------------------------------------------

TEST(TraceTest, NestedSpansRecordDepthAndExclusiveTime) {
  obs::Trace trace;
  {
    obs::ScopedTraceBinding binding(&trace);
    obs::ScopedSpan outer(obs::Stage::kEncoder);
    {
      obs::ScopedSpan inner(obs::Stage::kAttention);
      // Busy-wait so the inner span has measurable width.
      const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    {
      obs::ScopedSpan inner2(obs::Stage::kLayerNorm);
    }
  }
  ASSERT_EQ(trace.spans().size(), 3u);
  // Children complete (and record) before the parent.
  const obs::SpanRecord& attn = trace.spans()[0];
  const obs::SpanRecord& norm = trace.spans()[1];
  const obs::SpanRecord& enc = trace.spans()[2];
  EXPECT_EQ(attn.stage, obs::Stage::kAttention);
  EXPECT_EQ(attn.depth, 1);
  EXPECT_EQ(norm.depth, 1);
  EXPECT_EQ(enc.stage, obs::Stage::kEncoder);
  EXPECT_EQ(enc.depth, 0);
  EXPECT_GE(attn.total_ms, 2.0 * 0.9);
  // Exclusive = total minus children, within clock noise.
  EXPECT_NEAR(enc.exclusive_ms, enc.total_ms - attn.total_ms - norm.total_ms,
              0.05 * enc.total_ms + 1e-3);
  EXPECT_LE(enc.exclusive_ms, enc.total_ms);
}

TEST(TraceTest, SpansAreNoOpsWithoutABinding) {
  // Must not crash, allocate into anything, or record anywhere.
  obs::ScopedSpan span(obs::Stage::kEncoder);
  obs::ScopedSpan nested(obs::Stage::kAttention);
  SUCCEED();
}

TEST(TraceTest, RequestTraceAttributionSums) {
  obs::RequestTrace trace;
  trace.total_ms = 10.0;
  trace.AddSegment(obs::Stage::kQueueWait, 4.0);
  trace.AddSegment(obs::Stage::kFinalize, 1.0);
  obs::Trace batch;
  {
    obs::ScopedTraceBinding binding(&batch);
    obs::ScopedSpan fwd(obs::Stage::kForward);
  }
  trace.AppendSpans(batch);
  EXPECT_GE(trace.AttributedMs(), 5.0);
  EXPECT_GT(trace.AttributedFraction(), 0.5);
  EXPECT_LE(trace.AttributedFraction(), 1.0);
}

TEST(TraceCollectorTest, SamplesOneInN) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const int saved = collector.sample_every();
  collector.SetSampleEvery(4);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) {
    sampled += collector.ShouldSample() ? 1 : 0;
  }
  EXPECT_EQ(sampled, 100);
  collector.SetSampleEvery(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(collector.ShouldSample());
  }
  collector.SetSampleEvery(saved);
}

// ---- End-to-end: sampled traces through a multi-worker service -------------

struct ObsWorld {
  Dataset ds;
  std::unique_ptr<CdmppPredictor> predictor;
  std::vector<CompactAst> workload;
};

ObsWorld& World() {
  static ObsWorld* world = [] {
    auto* w = new ObsWorld();
    DatasetOptions opts;
    opts.device_ids = {0};
    opts.schedules_per_task = 2;
    opts.max_networks = 4;
    opts.seed = 21;
    w->ds = BuildDataset(opts);

    PredictorConfig cfg;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.d_ff = 32;
    cfg.num_layers = 1;
    cfg.z_dim = 16;
    cfg.device_embed_dim = 8;
    cfg.device_hidden_dim = 16;
    cfg.decoder_hidden = {16};
    cfg.epochs = 1;
    cfg.seed = 8;
    w->predictor = std::make_unique<CdmppPredictor>(cfg);
    Rng rng(14);
    SplitIndices split = SplitDataset(w->ds, {0}, {}, &rng);
    w->predictor->Pretrain(w->ds, split.train, split.valid);

    Rng srng(15);
    for (const TaskInfo& info : w->ds.tasks) {
      for (int k = 0; k < 3; ++k) {
        w->workload.push_back(
            ExtractCompactAst(GenerateProgram(info.task, SampleSchedule(info.task, &srng))));
      }
    }
    for (const CompactAst& ast : w->workload) {
      w->predictor->EnsureHead(ast.num_leaves);
    }
    return w;
  }();
  return *world;
}

TEST(ServiceTracingTest, SampledTracesAttributeRequestLatencyToStages) {
  ObsWorld& w = World();
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const int saved = collector.sample_every();
  collector.Reset();
  collector.SetSampleEvery(1);  // trace everything: exercise the worst case

  {
    ServeOptions opts;
    opts.num_workers = 3;
    opts.max_batch_size = 16;
    opts.batch_window_ms = 0.2;
    opts.enable_cache = false;  // every request takes the full batched path
    PredictionService service(w.predictor.get(), opts);
    std::vector<std::future<double>> futures;
    for (int round = 0; round < 8; ++round) {
      for (const CompactAst& ast : w.workload) {
        futures.push_back(service.Submit(ast, 0));
      }
    }
    for (auto& f : futures) {
      EXPECT_GT(f.get(), 0.0);
    }
  }

  obs::TraceCollector::Stats stats = collector.GetStats();
  collector.SetSampleEvery(saved);
  ASSERT_GT(stats.traces, 0u);
  // The acceptance bar: named stages explain >= 95% of traced latency.
  EXPECT_GE(stats.AttributedFraction(), 0.95)
      << "attributed " << stats.attributed_ms << "ms of " << stats.total_ms << "ms";
  // The big structural stages must all have registered.
  auto stage_total = [&stats](obs::Stage s) {
    return stats.stage_ms[static_cast<size_t>(s)];
  };
  EXPECT_GT(stage_total(obs::Stage::kQueueWait), 0.0);
  EXPECT_GT(stage_total(obs::Stage::kEncoder), 0.0);
  EXPECT_GT(stage_total(obs::Stage::kAttention), 0.0);
  EXPECT_GT(stage_total(obs::Stage::kLayerNorm), 0.0);
  EXPECT_GT(stage_total(obs::Stage::kHeads), 0.0);
  EXPECT_GT(stage_total(obs::Stage::kDecoder), 0.0);

  // Span nesting surfaced end-to-end: attention spans sit strictly below the
  // encoder span in at least one recorded trace.
  bool saw_nested_attention = false;
  for (const obs::RequestTrace& trace : collector.Recent()) {
    for (const obs::SpanRecord& span : trace.spans) {
      if (span.stage == obs::Stage::kAttention && span.depth > 0) {
        saw_nested_attention = true;
      }
    }
  }
  EXPECT_TRUE(saw_nested_attention);
  EXPECT_NE(collector.DumpJson().find("\"encoder\""), std::string::npos);
}

TEST(ServiceTracingTest, CacheHitFastPathEmitsCacheLookupTraces) {
  ObsWorld& w = World();
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const int saved = collector.sample_every();
  collector.Reset();
  collector.SetSampleEvery(1);
  {
    ServeOptions opts;
    opts.num_workers = 1;
    opts.enable_cache = true;
    PredictionService service(w.predictor.get(), opts);
    // First submit computes; the repeats hit the submit-path cache.
    for (int i = 0; i < 3; ++i) {
      service.Predict(w.workload[0], 0);
    }
  }
  obs::TraceCollector::Stats stats = collector.GetStats();
  collector.SetSampleEvery(saved);
  EXPECT_GE(stats.traces, 3u);
  EXPECT_GT(stats.stage_ms[static_cast<size_t>(obs::Stage::kCacheLookup)], 0.0);
}

}  // namespace
}  // namespace cdmpp

// serve_mixed / serve_int8: an open-loop client of one PredictionService.
//
// One generator thread sends Poisson arrivals on a precomputed schedule; a
// second thread observes results in submission order. Each request is timed
// from its due time to the moment the benchmark observes its result, so a
// stall also charges the wait it imposes on every later request. The
// open-loop phase runs in blocks; between them, saturation blocks keep the
// service busy to measure its capacity.
//
// Requests are fresh ASTs drawn across all bench-dataset tasks, paired with
// all nine devices and sent as one shuffled cycle of (AST, device) keys that
// is longer than the prediction cache, so no key recurs while it could still
// be cached: the cache is pure overhead on this workload.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <unordered_set>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/workloads.h"
#include "src/device/simulator.h"
#include "src/exp/exp_common.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/prediction_service.h"
#include "src/tir/schedule.h"

namespace perfbench {
namespace {

using cdmpp::CompactAst;

// Offered rate of the latency phase: well below the knee, which lies at
// 20k-50k requests/s on a 4-vCPU x86 host depending on its other tenants,
// so that a slow spell of the host does not push the phase into queueing.
constexpr double kFixedRatePerS = 4000.0;
// The generator kept to its schedule in a window if its p99 lag stayed
// under this. Latency is timed from the due time, so a late send is charged
// to the request; the limit keeps such sends to the tail, which p50 ignores.
constexpr double kMaxGeneratorLagP99Ms = 2.0;
// The measured time is cut into kRounds rounds, each a fixed-rate latency
// block followed by a saturation block, so that one noisy spell of the host
// falls in one round of each.
constexpr int kRounds = 10;
constexpr double kLatencyShare = 0.6;
// Requests the saturation client keeps outstanding: two full 64-request
// batches per worker, so the workers never wait for work.
constexpr size_t kSaturationInFlight = 256;
// Each latency block is cut into windows; a window whose generator lag broke
// the limit above is dropped. While fewer than kMinValidWindows are valid,
// another block is run, up to kMaxExtraBlocks; after that the run is
// invalid. In a slow spell of the host the generator is stalled in most
// windows (16 of 56 stayed valid); 12 windows hold about 14k requests.
constexpr size_t kWindowsPerBlock = 4;
constexpr size_t kMinValidWindows = 12;
constexpr int kMaxExtraBlocks = 12;
// 16000 ASTs x 9 devices = 144k keys, more than twice the 65536-entry cache.
constexpr int kAstPool = 16000;
constexpr int kNumDevices = 9;
constexpr int kSetupReps = 5;
// Every kCheckEvery-th request is checked against the fp32 reference and
// the simulator's ground truth.
constexpr uint64_t kCheckEvery = 64;
// Traced run: 1 in kTraceSampleEvery requests carries a TraceCollector
// trace and benchmark spans.
constexpr int kTraceSampleEvery = 8;
constexpr double kInt8Tolerance = 0.01;

struct ServeInputs {
  cdmpp::Dataset ds;
  std::unique_ptr<cdmpp::CdmppPredictor> predictor;
  std::vector<int> ast_task;                   // task index per pooled AST
  std::vector<cdmpp::ScheduleDesc> schedules;  // schedule per pooled AST
  std::vector<CompactAst> asts;
  // Request order: key k is (keys[k % size] / kNumDevices, % kNumDevices).
  std::vector<uint32_t> keys;
  std::unique_ptr<cdmpp::PredictionService> service;
  size_t next_key = 0;

  const CompactAst& AstOf(size_t key) const { return asts[keys[key % keys.size()] / kNumDevices]; }
  int DeviceOf(size_t key) const { return static_cast<int>(keys[key % keys.size()] % kNumDevices); }
};

// Builds the dataset, pre-trains the served model, generates the request
// ASTs and warms the service. The model does not depend on the seed; the
// request stream does.
void SetUp(uint64_t seed, bool int8, ServeInputs* in) {
  in->service.reset();
  in->ds = cdmpp::BuildBenchDataset();
  in->predictor = PretrainServedModel(in->ds);

  cdmpp::Rng rng(seed);
  in->ast_task.clear();
  in->schedules.clear();
  in->asts.clear();
  // Small tasks have few distinct schedules; a repeated AST would be a
  // repeated key, so duplicates are drawn again.
  std::unordered_set<uint64_t> seen;
  while (in->asts.size() < static_cast<size_t>(kAstPool)) {
    const int t = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(in->ds.tasks.size()) - 1));
    const cdmpp::Task& task = in->ds.tasks[static_cast<size_t>(t)].task;
    cdmpp::ScheduleDesc schedule = cdmpp::SampleSchedule(task, &rng);
    CompactAst ast = cdmpp::ExtractCompactAst(cdmpp::GenerateProgram(task, schedule));
    if (seen.insert(ast.Hash()).second) {
      in->ast_task.push_back(t);
      in->schedules.push_back(std::move(schedule));
      in->asts.push_back(std::move(ast));
    }
  }
  in->keys.resize(static_cast<size_t>(kAstPool) * kNumDevices);
  for (size_t k = 0; k < in->keys.size(); ++k) {
    in->keys[k] = static_cast<uint32_t>(k);
  }
  rng.Shuffle(&in->keys);

  cdmpp::ServeOptions opts;  // defaults: 2 workers, 0.2 ms window, cache on
  opts.precision = int8 ? cdmpp::Precision::kInt8 : cdmpp::Precision::kFp32;
  in->service = std::make_unique<cdmpp::PredictionService>(in->predictor.get(), opts);
  // Warm-up burst from the far end of the key cycle: creates the quantized
  // heads and the workers' arenas before anything is timed.
  std::vector<std::future<double>> warm;
  for (size_t k = in->keys.size() - 4096; k < in->keys.size(); ++k) {
    warm.push_back(in->service->Submit(in->AstOf(k), in->DeviceOf(k)));
  }
  for (auto& f : warm) {
    f.get();
  }
  in->next_key = 0;
}

// Sets the calling thread's timer slack to 1 ns for its lifetime.
class ScopedTimerSlack {
 public:
  ScopedTimerSlack() : previous_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~ScopedTimerSlack() {
    if (previous_ > 0) {
      prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_), 0, 0, 0);
    }
  }
  ScopedTimerSlack(const ScopedTimerSlack&) = delete;
  ScopedTimerSlack& operator=(const ScopedTimerSlack&) = delete;

 private:
  const int previous_;
};

// One open-loop phase at a fixed offered rate.
struct Phase {
  std::vector<double> due_s;       // offsets from the phase start
  std::vector<double> latency_ms;  // due -> observed, in due order
  std::vector<double> lag_ms;      // due -> handed to Submit
  std::vector<double> submit_us;   // cost of the Submit call
  std::vector<std::pair<size_t, double>> checked;  // (key, served value)
  int64_t failed = 0;
};

Phase RunOpenLoop(ServeInputs* in, double rate, double duration_s, uint64_t schedule_seed,
                  SpanLog* spans) {
  Phase ph;
  ph.due_s = PoissonSchedule(rate, duration_s, schedule_seed);
  const size_t n = ph.due_s.size();
  ph.latency_ms.assign(n, 0.0);
  ph.lag_ms.assign(n, 0.0);
  ph.submit_us.assign(n, 0.0);
  std::vector<std::future<double>> futures(n);
  std::vector<Clock::time_point> submit_start(n), submit_end(n);
  std::atomic<size_t> published{0};
  std::atomic<bool> generator_done{false};
  const size_t first_key = in->next_key;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ph.due_s[i]));
  };

  std::thread observer([&] {
    const ScopedTimerSlack precise_sleep;
    for (size_t i = 0;;) {
      if (published.load(std::memory_order_acquire) <= i) {
        if (generator_done.load(std::memory_order_acquire) &&
            published.load(std::memory_order_acquire) <= i) {
          break;
        }
        // Caught up with the generator: the next request is not sent yet,
        // and its result is at least a forward pass away, so a short sleep
        // delays no observation and leaves the cores to the service.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      double value = std::nan("");
      try {
        value = futures[i].get();
      } catch (...) {
        ++ph.failed;
      }
      const Clock::time_point observed = Clock::now();
      const Clock::time_point due = due_at(i);
      ph.latency_ms[i] = std::chrono::duration<double, std::milli>(observed - due).count();
      const size_t key = first_key + i;
      if (key % kCheckEvery == 0) {
        ph.checked.emplace_back(key, value);
      }
      if (spans->enabled() && key % kTraceSampleEvery == 0) {
        const uint64_t trace_id = key + 1;
        const uint64_t root = spans->NewId();
        spans->Record(spans->NewId(), "generator.lag", trace_id, root, due, submit_start[i]);
        spans->Record(spans->NewId(), "serve.submit", trace_id, root, submit_start[i],
                      submit_end[i]);
        spans->Record(spans->NewId(), "serve.await_result", trace_id, root, submit_end[i],
                      observed);
        spans->Record(root, "request", trace_id, 0, due, observed);
      }
      ++i;
    }
  });

  // The generator: this thread alone, sleeping until 50 us before the next
  // request is due and yielding for the rest. Both harness threads run with
  // a 1 ns timer slack, so a sleep overshoots by microseconds, not by the
  // default 50 us; sleeping rather than spinning leaves the cores to the
  // service's workers.
  const ScopedTimerSlack precise_sleep;
  for (size_t sent = 0; sent < n; ++sent) {
    const Clock::time_point due = due_at(sent);
    Clock::time_point now = Clock::now();
    while (now < due) {
      if (due - now > std::chrono::microseconds(100)) {
        std::this_thread::sleep_for(due - now - std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
      now = Clock::now();
    }
    const size_t key = first_key + sent;
    submit_start[sent] = now;
    futures[sent] = in->service->Submit(in->AstOf(key), in->DeviceOf(key));
    submit_end[sent] = Clock::now();
    ph.lag_ms[sent] = std::chrono::duration<double, std::milli>(now - due).count();
    ph.submit_us[sent] = std::chrono::duration<double, std::micro>(submit_end[sent] - now).count();
    published.store(sent + 1, std::memory_order_release);
  }
  generator_done.store(true, std::memory_order_release);
  observer.join();
  in->next_key += n;
  return ph;
}

// The service's capacity: one client thread keeps kSaturationInFlight
// requests outstanding for `duration_s`, replacing each result it observes
// with a new request, then drains. Returns completed requests per second
// from the first Submit to the last result. Every kCheckEvery-th key is
// recorded for the output check.
double RunSaturated(ServeInputs* in, double duration_s,
                    std::vector<std::pair<size_t, double>>* checked, int64_t* failed,
                    size_t* completed) {
  std::vector<std::future<double>> ring(kSaturationInFlight);
  const size_t first_key = in->next_key;
  size_t sent = 0, done = 0;
  const auto observe = [&] {
    const size_t key = first_key + done;
    try {
      const double value = ring[done % kSaturationInFlight].get();
      if (key % kCheckEvery == 0) {
        checked->emplace_back(key, value);
      }
    } catch (...) {
      ++*failed;
    }
    ++done;
  };
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < duration_s) {
    if (sent - done == kSaturationInFlight) {
      observe();
    }
    const size_t key = first_key + sent;
    ring[sent % kSaturationInFlight] = in->service->Submit(in->AstOf(key), in->DeviceOf(key));
    ++sent;
  }
  while (done < sent) {
    observe();
  }
  const double elapsed_s = SecondsSince(start);
  in->next_key += sent;
  *completed += sent;
  return static_cast<double>(sent) / elapsed_s;
}

// Latency statistics of the fixed-rate blocks, over the windows in which
// the generator kept to its schedule: p50 over all their requests, p99 as
// the median of the per-window p99s, so a stall of the host moves a window,
// not the run.
struct LatencySummary {
  Percentile p50, p90, p99;
  Lateness lag;
  size_t windows = 0;
  size_t valid_windows = 0;
};

LatencySummary SummarizeLatency(const std::vector<Phase>& blocks, double block_s) {
  LatencySummary s;
  std::vector<double> kept, window_p90, window_p99, lag;
  for (const Phase& ph : blocks) {
    std::vector<std::vector<double>> lag_by_window(kWindowsPerBlock), lat_by_window(kWindowsPerBlock);
    for (size_t i = 0; i < ph.due_s.size(); ++i) {
      const size_t w = std::min<size_t>(
          kWindowsPerBlock - 1, static_cast<size_t>(ph.due_s[i] / block_s * kWindowsPerBlock));
      lag_by_window[w].push_back(ph.lag_ms[i]);
      lat_by_window[w].push_back(ph.latency_ms[i]);
    }
    for (size_t w = 0; w < kWindowsPerBlock; ++w) {
      ++s.windows;
      if (AccountLateness(lag_by_window[w], kMaxGeneratorLagP99Ms).kept) {
        ++s.valid_windows;
        kept.insert(kept.end(), lat_by_window[w].begin(), lat_by_window[w].end());
        window_p90.push_back(NearestRank(lat_by_window[w], 90.0).value);
        window_p99.push_back(NearestRank(lat_by_window[w], 99.0).value);
      }
    }
    lag.insert(lag.end(), ph.lag_ms.begin(), ph.lag_ms.end());
  }
  s.p50 = NearestRank(kept, 50.0);
  s.p90 = NearestRank(kept, 90.0);
  s.p90.value = Median(window_p90);
  s.p99 = NearestRank(kept, 99.0);
  s.p99.value = Median(window_p99);
  s.lag = AccountLateness(lag, kMaxGeneratorLagP99Ms);
  return s;
}

// Compares every checked served value with the fp32 PredictAst reference
// (bitwise for fp32, within kInt8Tolerance for int8) and returns the median
// absolute percentage error of the served values against the simulator's
// noise-free latency (a median: a briefly trained model's errors are
// heavy-tailed, and the mean would follow the few worst requests). Call
// only after the service has shut down: PredictAst is not safe beside it.
double CheckServed(ServeInputs* in, bool int8, const std::vector<std::pair<size_t, double>>& checked,
                   WorkloadResult* out) {
  std::vector<double> ape;
  int64_t bad = 0;
  for (const auto& [key, served] : checked) {
    const CompactAst& ast = in->AstOf(key);
    const int device = in->DeviceOf(key);
    const double reference = in->predictor->PredictAst(ast, device);
    const bool ok = int8 ? std::fabs(served - reference) <= kInt8Tolerance * std::fabs(reference)
                         : served == reference;
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      ++bad;
    }
    const size_t a = in->keys[key % in->keys.size()] / kNumDevices;
    const cdmpp::Task& task = in->ds.tasks[static_cast<size_t>(in->ast_task[a])].task;
    const double truth = cdmpp::SimulateLatencyDeterministic(
        cdmpp::GenerateProgram(task, in->schedules[a]), cdmpp::DeviceById(device));
    ape.push_back(100.0 * std::fabs(served - truth) / truth);
  }
  if (bad > 0) {
    out->problems.push_back(std::to_string(bad) + " of " + std::to_string(checked.size()) +
                            (int8 ? " int8 results off fp32 by more than 1%"
                                  : " fp32 results not bitwise equal to PredictAst"));
  }
  return Median(ape);
}

void AddServeLayerMetrics(const ServeInputs& in, const Phase& traced, WorkloadResult* out) {
  AddTraceStageMetrics(out);
  const cdmpp::ServerStatsSnapshot ss = in.service->Stats();
  const int64_t requests = static_cast<int64_t>(ss.requests);
  out->Set("serve.rows_per_forward", ss.mean_batch_occupancy, "rows",
           static_cast<int64_t>(ss.forward_passes));
  out->Set("serve.forward_passes", static_cast<double>(ss.forward_passes), "count");
  out->Set("serve.coalesced", static_cast<double>(ss.coalesced), "count");
  out->Set("serve.service_p50_ms", ss.p50_latency_ms, "ms", requests);
  out->Set("serve.service_p99_ms", ss.p99_latency_ms, "ms", requests);
  out->Set("serve.cache_hit_rate", ss.cache_hit_rate, "frac", requests);
  out->Set("serve.submit_us", Median(traced.submit_us), "us",
           static_cast<int64_t>(traced.submit_us.size()));
}

}  // namespace

WorkloadResult RunServe(const RunConfig& cfg, bool int8, SpanLog* spans) {
  WorkloadResult out;
  ServeInputs in;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t = Clock::now();
    SetUp(cfg.seed, int8, &in);
    setup_s.push_back(SecondsSince(t));
  }
  out.Set("setup_s", Median(setup_s), "s", kSetupReps);

  std::vector<std::pair<size_t, double>> checked;
  const auto account = [&](const Phase& ph) {
    out.attempted += static_cast<int64_t>(ph.due_s.size());
    out.failed += ph.failed;
    checked.insert(checked.end(), ph.checked.begin(), ph.checked.end());
  };
  SpanLog no_spans(false);

  if (!cfg.trace) {
    // Rounds of a fixed-rate latency block and a saturation block.
    // Latency is taken over the blocks' valid windows; the capacity is the
    // median over the saturation blocks.
    const double block_s = kLatencyShare * cfg.seconds / kRounds;
    const double saturated_s = (1.0 - kLatencyShare) * cfg.seconds / kRounds;
    uint64_t schedule_seed = cfg.seed * 1000;
    std::vector<Phase> blocks;
    const auto latency_block = [&] {
      blocks.push_back(RunOpenLoop(&in, kFixedRatePerS, block_s, ++schedule_seed, &no_spans));
      account(blocks.back());
    };
    std::vector<double> capacity;
    size_t saturated_requests = 0;
    for (int r = 0; r < kRounds; ++r) {
      latency_block();
      capacity.push_back(
          RunSaturated(&in, saturated_s, &checked, &out.failed, &saturated_requests));
      std::printf("#   round %d: saturated %.0f requests/s\n", r, capacity.back());
    }
    out.attempted += static_cast<int64_t>(saturated_requests);
    out.Set("throughput_per_s", Median(capacity), "1/s", kRounds);


    // Windows the generator could not keep are measured again, in up to
    // kMaxExtraBlocks more blocks, rather than reported.
    LatencySummary lat = SummarizeLatency(blocks, block_s);
    for (int extra = 0; extra < kMaxExtraBlocks && lat.valid_windows < kMinValidWindows;
         ++extra) {
      latency_block();
      lat = SummarizeLatency(blocks, block_s);
    }
    if (lat.valid_windows < kMinValidWindows) {
      out.valid = false;
      out.problems.push_back("the generator broke its schedule (lag p99 over " +
                             std::to_string(kMaxGeneratorLagP99Ms) + " ms) in " +
                             std::to_string(lat.windows - lat.valid_windows) + " of " +
                             std::to_string(lat.windows) + " latency windows");
    }
    out.Set("latency_p50_ms", lat.p50.value, "ms", static_cast<int64_t>(lat.p50.samples));
    out.Set("latency_p90_ms", lat.p90.value, "ms", static_cast<int64_t>(lat.p90.samples));
    out.Set("latency_p99_ms", lat.p99.value, "ms", static_cast<int64_t>(lat.p99.samples));
    out.Set("bench.generator_lag_p99_ms", lat.lag.p99_ms.value, "ms",
            static_cast<int64_t>(lat.lag.p99_ms.samples));
  } else {
    // Traced run: the same fixed-rate phase untraced, then traced with the
    // TraceCollector sampling 1 in kTraceSampleEvery requests; their p50
    // difference is the tracing overhead.
    const double half_s = 0.5 * cfg.seconds;
    const Phase plain =
        RunOpenLoop(&in, kFixedRatePerS, half_s, cfg.seed * 1000 + 1, &no_spans);
    account(plain);
    in.service->ResetStats();
    cdmpp::obs::MetricsRegistry::Global().ResetCounters();
    cdmpp::obs::TraceCollector::Global().Reset();
    cdmpp::obs::TraceCollector::Global().SetSampleEvery(kTraceSampleEvery);
    const Phase traced =
        RunOpenLoop(&in, kFixedRatePerS, half_s, cfg.seed * 1000 + 2, spans);
    cdmpp::obs::TraceCollector::Global().SetSampleEvery(0);
    account(traced);
    AddServeLayerMetrics(in, traced, &out);
    AddRegistryLayerMetrics(&out);
    const double p50_plain = NearestRank(plain.latency_ms, 50.0).value;
    const double p50_traced = NearestRank(traced.latency_ms, 50.0).value;
    out.Set("bench.trace_overhead_frac", p50_plain > 0.0 ? p50_traced / p50_plain - 1.0 : 0.0,
            "frac", static_cast<int64_t>(traced.latency_ms.size()));
    out.Set("bench.generator_lag_p99_ms",
            AccountLateness(traced.lag_ms, kMaxGeneratorLagP99Ms).p99_ms.value, "ms",
            static_cast<int64_t>(traced.lag_ms.size()));
  }

  in.service.reset();  // drains and joins the workers before the checks
  const double mdape = CheckServed(&in, int8, checked, &out);
  out.Set("model_mdape_pct", mdape, "%", static_cast<int64_t>(checked.size()));
  return out;
}

}  // namespace perfbench

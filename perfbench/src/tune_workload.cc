// tune_search: the tuner as a closed-loop client. Every bench-dataset task is
// searched once per pass, alternating the evolutionary and simulated-
// annealing drivers, with the device rotating through the nine and a search
// seed of its own per task. Scoring goes through one ServeCostModel over a
// PredictionService configured as bench_tuning configures it (2 workers,
// batches of 64, no batch window, cache on). Each pass gets a fresh
// service, so every pass starts cache-cold and does the same work; cache
// hits come only from the revisits inside each search.
#include <cmath>
#include <cstdio>
#include <memory>

#include "perfbench/src/bench_stats.h"
#include "perfbench/src/workloads.h"
#include "src/exp/exp_common.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/search/cost_model_client.h"
#include "src/search/sa_search.h"
#include "src/search/schedule_search.h"
#include "src/support/fnv_hash.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
// Untraced runs repeat passes until the measured time is used up, with at
// least this many, so a per-task median over passes outvotes one slow pass.
constexpr size_t kMinPasses = 3;
constexpr int kNumDevices = 9;
// Tasks re-searched through DirectCostModel to check the serve-backed curves.
constexpr size_t kDirectCheckEvery = 21;
constexpr int kTraceSampleEvery = 8;

cdmpp::SearchOptions EvoOptions(uint64_t seed) {
  cdmpp::SearchOptions o;
  o.rounds = 10;
  o.population = 24;
  o.measured_per_round = 4;
  o.seed = seed;
  return o;
}

cdmpp::SaOptions SaOptions(uint64_t seed) {
  cdmpp::SaOptions o;
  o.sweeps = 15;
  o.chains = 16;
  o.measured_per_sweep = 2;
  o.seed = seed;
  return o;
}

cdmpp::ServeOptions TuningServeOptions() {
  cdmpp::ServeOptions o;
  o.num_workers = 2;
  o.max_batch_size = 64;
  o.batch_window_ms = 0.0;
  o.enable_cache = true;
  o.precision = cdmpp::Precision::kFp32;
  return o;
}

uint64_t TaskSeed(uint64_t run_seed, size_t task) {
  return cdmpp::FnvMix(cdmpp::FnvMix(cdmpp::kFnvOffset, run_seed), task);
}

// Forwards to a ServeCostModel and times every ScoreBatch round trip from
// outside: the latency the tuner waits for a population's scores.
class TimedClient : public cdmpp::CostModelClient {
 public:
  TimedClient(cdmpp::PredictionService* service, SpanLog* spans)
      : inner_(service), spans_(spans) {}

  void SetTrace(uint64_t trace_id, uint64_t parent) {
    trace_id_ = trace_id;
    parent_ = parent;
  }
  const cdmpp::CostClientStats& inner_stats() const { return inner_.stats(); }
  const std::vector<double>& round_trip_ms() const { return round_trip_ms_; }

 protected:
  void ScoreBatchImpl(const std::vector<cdmpp::CostQuery>& queries,
                      std::vector<double>* scores) override {
    ScopedBenchSpan span(spans_, "search.score_batch", trace_id_, parent_);
    const Clock::time_point t = Clock::now();
    inner_.ScoreBatch(queries, scores);
    round_trip_ms_.push_back(1e3 * SecondsSince(t));
  }

 private:
  cdmpp::ServeCostModel inner_;
  SpanLog* spans_;
  uint64_t trace_id_ = 0;
  uint64_t parent_ = 0;
  std::vector<double> round_trip_ms_;
};

cdmpp::SearchCurve SearchTask(const cdmpp::Task& task, size_t index, uint64_t run_seed,
                              cdmpp::CostModelClient* client) {
  const cdmpp::DeviceSpec& device = cdmpp::DeviceById(static_cast<int>(index % kNumDevices));
  const uint64_t seed = TaskSeed(run_seed, index);
  return index % 2 == 0
             ? cdmpp::EvolutionarySearch(task, device, client, EvoOptions(seed))
             : cdmpp::SimulatedAnnealingSearch(task, device, client, SaOptions(seed));
}

bool SameCurve(const cdmpp::SearchCurve& a, const cdmpp::SearchCurve& b) {
  return a.best_after_round == b.best_after_round && a.final_best == b.final_best &&
         a.best_ast_hash == b.best_ast_hash && a.total_measurements == b.total_measurements &&
         a.total_candidates == b.total_candidates;
}

struct Pass {
  std::vector<cdmpp::SearchCurve> curves;
  std::vector<double> task_s;  // wall time of each task's search
  std::vector<double> round_trip_ms;
  double wall_s = 0.0;
  double score_s = 0.0;
  int64_t candidates = 0;
  uint64_t queries = 0, submitted = 0, deduped = 0, score_batches = 0;
  cdmpp::ServerStatsSnapshot serve;
};

Pass RunPass(cdmpp::CdmppPredictor* predictor, const cdmpp::Dataset& ds, uint64_t seed,
             SpanLog* spans) {
  Pass pass;
  cdmpp::PredictionService service(predictor, TuningServeOptions());
  TimedClient client(&service, spans);
  const Clock::time_point t = Clock::now();
  for (size_t i = 0; i < ds.tasks.size(); ++i) {
    ScopedBenchSpan task_span(spans, "search.task", i + 1);
    client.SetTrace(i + 1, task_span.id());
    const Clock::time_point task_start = Clock::now();
    pass.curves.push_back(SearchTask(ds.tasks[i].task, i, seed, &client));
    pass.task_s.push_back(SecondsSince(task_start));
    pass.candidates += pass.curves.back().total_candidates;
  }
  pass.wall_s = SecondsSince(t);
  pass.score_s = client.stats().score_seconds;
  pass.queries = client.inner_stats().queries;
  pass.submitted = client.inner_stats().submitted;
  pass.deduped = client.inner_stats().deduped;
  pass.round_trip_ms = client.round_trip_ms();
  pass.score_batches = pass.round_trip_ms.size();
  service.Shutdown();
  pass.serve = service.Stats();
  return pass;
}

double CandidatesPerSecond(const Pass& p) { return static_cast<double>(p.candidates) / p.wall_s; }

// Every pass does the same work, so element i of `pass.*series` measures the
// same thing in every pass. Returns, for each i, its median over the passes:
// a slow spell of the host that covers part of one pass moves no element.
std::vector<double> MedianOverPasses(const std::vector<Pass>& passes,
                                     std::vector<double> Pass::*series) {
  std::vector<double> out((passes.front().*series).size());
  std::vector<double> across;
  for (size_t i = 0; i < out.size(); ++i) {
    across.clear();
    for (const Pass& p : passes) {
      across.push_back((p.*series)[i]);
    }
    out[i] = Median(across);
  }
  return out;
}

}  // namespace

WorkloadResult RunTune(const RunConfig& cfg, SpanLog* spans) {
  WorkloadResult out;
  cdmpp::Dataset ds;
  std::unique_ptr<cdmpp::CdmppPredictor> predictor;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t = Clock::now();
    predictor.reset();
    ds = cdmpp::BuildBenchDataset();
    predictor = PretrainServedModel(ds);
    setup_s.push_back(SecondsSince(t));
  }
  out.Set("setup_s", Median(setup_s), "s", kSetupReps);

  // Untraced: passes until the measured time is used up. Traced: one
  // untraced pass, then one pass with TraceCollector sampling and spans.
  SpanLog no_spans(false);
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  if (!cfg.trace) {
    while (passes.size() < kMinPasses || SecondsSince(start) < cfg.seconds) {
      passes.push_back(RunPass(predictor.get(), ds, cfg.seed, &no_spans));
      std::printf("#   pass %zu: %.0f candidates/s\n", passes.size() - 1,
                  CandidatesPerSecond(passes.back()));
    }
  } else {
    passes.push_back(RunPass(predictor.get(), ds, cfg.seed, &no_spans));
    cdmpp::obs::MetricsRegistry::Global().ResetCounters();
    cdmpp::obs::TraceCollector::Global().Reset();
    cdmpp::obs::TraceCollector::Global().SetSampleEvery(kTraceSampleEvery);
    passes.push_back(RunPass(predictor.get(), ds, cfg.seed, spans));
    cdmpp::obs::TraceCollector::Global().SetSampleEvery(0);
    AddRegistryLayerMetrics(&out);
  }

  // Every pass must find bitwise the same curves as the first.
  const Pass& first = passes.front();
  out.attempted += static_cast<int64_t>(first.curves.size() * passes.size());
  for (size_t p = 1; p < passes.size(); ++p) {
    for (size_t i = 0; i < first.curves.size(); ++i) {
      out.Check(SameCurve(passes[p].curves[i], first.curves[i]),
                "pass " + std::to_string(p) + " task " + std::to_string(i) + " curve differs");
    }
  }
  // A sample of tasks re-searched through DirectCostModel (fp32, serial,
  // no cache) must give bitwise the serve-backed curves.
  {
    cdmpp::DirectCostModel direct(predictor.get(), cdmpp::Precision::kFp32);
    for (size_t i = 0; i < ds.tasks.size(); i += kDirectCheckEvery) {
      out.Check(SameCurve(SearchTask(ds.tasks[i].task, i, cfg.seed, &direct), first.curves[i]),
                "task " + std::to_string(i) + " serve curve differs from DirectCostModel");
    }
  }
  // Quality: geometric mean of each task's best measured latency, and the
  // cost model's median error on each task's winning schedule.
  double log_sum = 0.0;
  std::vector<double> ape;
  for (size_t i = 0; i < first.curves.size(); ++i) {
    const cdmpp::SearchCurve& c = first.curves[i];
    log_sum += std::log(c.final_best * 1e3);
    const double predicted = predictor->PredictAst(
        cdmpp::ExtractCompactAst(cdmpp::GenerateProgram(ds.tasks[i].task, c.best_schedule)),
        static_cast<int>(i % kNumDevices));
    ape.push_back(100.0 * std::fabs(predicted - c.final_best) / c.final_best);
  }
  const double n_tasks = static_cast<double>(first.curves.size());
  const double geomean_ms = std::exp(log_sum / n_tasks);
  out.Check(std::isfinite(geomean_ms) && geomean_ms > 0.0, "best geomean not finite");

  // Each task's search time and each ScoreBatch round trip, as its median
  // over the passes. Throughput is a pass's candidates over the sum of the
  // median task times.
  const std::vector<double> round_trips = MedianOverPasses(passes, &Pass::round_trip_ms);
  double pass_s = 0.0;
  for (double t : MedianOverPasses(passes, &Pass::task_s)) {
    pass_s += t;
  }
  const Percentile rt50 = NearestRank(round_trips, 50.0);
  const Percentile rt99 = NearestRank(round_trips, 99.0);
  const int64_t n_passes = static_cast<int64_t>(passes.size());
  out.Set("latency_p50_ms", rt50.value, "ms", static_cast<int64_t>(rt50.samples) * n_passes);
  out.Set("latency_p90_ms", NearestRank(round_trips, 90.0).value, "ms",
          static_cast<int64_t>(rt50.samples) * n_passes);
  out.Set("latency_p99_ms", rt99.value, "ms", static_cast<int64_t>(rt99.samples) * n_passes);
  out.Set("throughput_per_s", static_cast<double>(first.candidates) / pass_s, "1/s", n_passes);
  out.Set("model_mdape_pct", Median(ape), "%", static_cast<int64_t>(n_tasks));
  out.Set("search.best_geomean_ms", geomean_ms, "ms", static_cast<int64_t>(n_tasks));

  // Per-layer: the last pass (the traced one in a traced run).
  const Pass& last = passes.back();
  out.Set("search.candidates", static_cast<double>(last.candidates), "count");
  out.Set("search.score_s", last.score_s, "s");
  out.Set("search.self_s", last.wall_s - last.score_s, "s");
  out.Set("search.self_share", (last.wall_s - last.score_s) / last.wall_s, "frac");
  out.Set("search.dedup_ratio",
          last.queries > 0 ? static_cast<double>(last.deduped) / static_cast<double>(last.queries)
                           : 0.0,
          "frac", static_cast<int64_t>(last.queries));
  out.Set("search.rows_per_score_batch",
          last.score_batches > 0 ? static_cast<double>(last.submitted) /
                                       static_cast<double>(last.score_batches)
                                 : 0.0,
          "rows", static_cast<int64_t>(last.score_batches));
  out.Set("serve.cache_hit_rate", last.serve.cache_hit_rate, "frac",
          static_cast<int64_t>(last.serve.requests));
  out.Set("serve.rows_per_forward", last.serve.mean_batch_occupancy, "rows",
          static_cast<int64_t>(last.serve.forward_passes));
  out.Set("serve.forward_passes", static_cast<double>(last.serve.forward_passes), "count");
  out.Set("serve.coalesced", static_cast<double>(last.serve.coalesced), "count");
  out.Set("serve.service_p50_ms", last.serve.p50_latency_ms, "ms",
          static_cast<int64_t>(last.serve.requests));
  out.Set("serve.service_p99_ms", last.serve.p99_latency_ms, "ms",
          static_cast<int64_t>(last.serve.requests));
  if (cfg.trace) {
    const double plain = CandidatesPerSecond(passes.front());
    const double traced = CandidatesPerSecond(last);
    out.Set("bench.trace_overhead_frac", plain / traced - 1.0, "frac", 1);
    AddTraceStageMetrics(&out);
  }
  return out;
}

}  // namespace perfbench

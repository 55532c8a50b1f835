// The four benchmark workloads and the result record they fill.
//
// Every workload drives only public entry points of the library
// (PredictionService, ServeCostModel, the search drivers,
// CdmppPredictor::Pretrain/Finetune/Evaluate, SelectTasksKMeans) and
// measures each layer from outside: by timing those calls and by reading
// counters the program already exports (ServerStats, TraceCollector,
// MetricsRegistry).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/span_log.h"
#include "src/core/predictor.h"
#include "src/dataset/dataset.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
  // Samples behind the value (requests, batches, passes, reps); 0 for a
  // count that is not a sample statistic.
  int64_t samples = 0;
};

struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // False when the run measured the harness rather than the program (the
  // open-loop generator could not keep to its schedule).
  bool valid = true;
  std::map<std::string, MetricValue> metrics;
  // Failed checks and invalidity reasons, one line each.
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit, int64_t samples = 0) {
    metrics[name] = MetricValue{value, unit, samples};
  }
  // Counts one correctness check as an attempted operation; a failed one is
  // also a failed operation, and `what` says which.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back("check failed: " + what);
    }
  }
};

// Seconds since `start`.
double SecondsSince(Clock::time_point start);

WorkloadResult RunServe(const RunConfig& cfg, bool int8, SpanLog* spans);
WorkloadResult RunTune(const RunConfig& cfg, SpanLog* spans);
WorkloadResult RunTrain(const RunConfig& cfg, SpanLog* spans);

// Per-layer counters shared by every workload: nn GEMM/workspace counters
// and support.parallel_for fork decisions, read from the MetricsRegistry
// since its last ResetCounters().
void AddRegistryLayerMetrics(WorkloadResult* out);

// Per-request mean exclusive time of each TraceCollector stage (serve.*,
// core.* forward stages, nn.attention/layer_norm/quantize) since its last
// Reset().
void AddTraceStageMetrics(WorkloadResult* out);

// The cost model the serving and tuning workloads query: a short,
// seed-independent pre-train on all nine devices, with a head for every leaf
// count the request generators produce (1-9 measured; 1-16 created), so no
// head is created — and no parameter drawn — while a workload runs.
std::unique_ptr<cdmpp::CdmppPredictor> PretrainServedModel(const cdmpp::Dataset& ds);

// User plus system CPU time of every thread of this process so far.
double ProcessCpuSeconds();

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

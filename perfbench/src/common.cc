#include <sys/resource.h>

#include <string>

#include "perfbench/src/workloads.h"
#include "src/exp/exp_common.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::unique_ptr<cdmpp::CdmppPredictor> PretrainServedModel(const cdmpp::Dataset& ds) {
  auto predictor = std::make_unique<cdmpp::CdmppPredictor>(cdmpp::BenchPredictorConfig(2, 11));
  cdmpp::Rng split_rng(12);
  const cdmpp::SplitIndices split = cdmpp::SplitDataset(ds, {}, {}, &split_rng);
  predictor->Pretrain(ds, cdmpp::Take(split.train, 3000), cdmpp::Take(split.valid, 300));
  for (int leaves = 1; leaves <= 16; ++leaves) {
    predictor->EnsureHead(leaves);
  }
  return predictor;
}

void AddTraceStageMetrics(WorkloadResult* out) {
  using cdmpp::obs::Stage;
  const cdmpp::obs::TraceCollector::Stats ts = cdmpp::obs::TraceCollector::Global().GetStats();
  const int64_t traces = static_cast<int64_t>(ts.traces);
  const auto set = [&](const char* name, Stage s) {
    const double total = ts.stage_ms[static_cast<size_t>(s)];
    out->Set(name, traces > 0 ? total / static_cast<double>(traces) : 0.0, "ms", traces);
  };
  set("serve.queue_wait_ms", Stage::kQueueWait);
  set("serve.batch_formation_ms", Stage::kBatchFormation);
  set("serve.finalize_ms", Stage::kFinalize);
  set("core.featurize_ms", Stage::kFeaturize);
  set("core.encoder_ms", Stage::kEncoder);
  set("core.heads_ms", Stage::kHeads);
  set("core.device_mlp_ms", Stage::kDeviceMlp);
  set("core.decoder_ms", Stage::kDecoder);
  set("core.forward_glue_ms", Stage::kForward);
  set("nn.attention_ms", Stage::kAttention);
  set("nn.layer_norm_ms", Stage::kLayerNorm);
  set("nn.quantize_ms", Stage::kQuantize);
}

void AddRegistryLayerMetrics(WorkloadResult* out) {
  const std::map<std::string, uint64_t> c = cdmpp::obs::MetricsRegistry::Global().CounterValues();
  const auto get = [&](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  double calls = 0.0, flops = 0.0, int8_flops = 0.0;
  for (const char* precision : {"fp32", "int8"}) {
    for (const char* isa : {"scalar", "avx2"}) {
      const std::string suffix = std::string(precision) + "." + isa;
      calls += get("gemm.calls." + suffix);
      flops += get("gemm.flops." + suffix);
      if (std::string(precision) == "int8") {
        int8_flops += get("gemm.flops." + suffix);
      }
    }
  }
  out->Set("nn.gemm_calls", calls, "count");
  out->Set("nn.gemm_gflop", flops / 1e9, "GFLOP");
  out->Set("nn.int8_flop_share", flops > 0.0 ? int8_flops / flops : 0.0, "frac");
  out->Set("nn.workspace_growths", get("workspace_pool.growths"), "count");

  double decisions = 0.0;
  for (const char* which : {"forked", "serial_small", "serial_nested", "serial_contended"}) {
    const double v = get(std::string("parallel_for.") + which);
    out->Set(std::string("support.parallel_for.") + which, v, "count");
    decisions += v;
  }
  out->Set("support.parallel_for.steals", get("parallel_for.steals"), "count");
  out->Set("support.parallel_for.fork_ratio",
           decisions > 0.0 ? get("parallel_for.forked") / decisions : 0.0, "frac",
           static_cast<int64_t>(decisions));
}

}  // namespace perfbench

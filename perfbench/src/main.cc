// perfbench: the repository benchmark. Runs one workload and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"} with
// every metric the run produced. perfbench/run.py builds this binary, is the
// entry point, and narrows the metrics to the set BENCHMARK.json declares;
// see perfbench/README.md.
//
//   perfbench --workload serve_mixed --seed 1 --seconds 10 --trace 0
//             [--source-id ID] [--out-dir DIR]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/support/cpu_features.h"
#include "src/support/json_writer.h"
#include "src/support/parallel_for.h"

namespace perfbench {
namespace {

// Environment variables that would silently change a workload.
const char* const kForbiddenEnv[] = {"CDMPP_PRECISION", "CDMPP_KERNEL_ISA", "CDMPP_NUM_THREADS",
                                     "CDMPP_TRACE_SAMPLE"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|serve_int8|tune_search|train_xdev "
               "--seed N --seconds S --trace 0|1 [--source-id ID] [--out-dir DIR]\n");
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string source_id = "unknown";
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0.0 && cfg.seconds <= 120.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      cfg.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run: %s is set and would change the workload\n",
                   var);
      return 2;
    }
  }

  SpanLog spans(cfg.trace);
  WorkloadResult r;
  if (cfg.workload == "serve_mixed" || cfg.workload == "serve_int8") {
    r = RunServe(cfg, cfg.workload == "serve_int8", &spans);
  } else if (cfg.workload == "tune_search") {
    r = RunTune(cfg, &spans);
  } else if (cfg.workload == "train_xdev") {
    r = RunTrain(cfg, &spans);
  } else {
    return Usage();
  }
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  r.Set("ok_frac", static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted),
        "frac", r.attempted);
  const bool correct = r.valid && r.failed == 0;

  const std::string isa = cdmpp::KernelIsaName(cdmpp::ActiveKernelIsa());
  const int pool = cdmpp::ThreadPool::Global().num_threads();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d source=%s\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0, source_id.c_str());
  std::printf("# host cpu=\"%s\" nproc=%u isa=%s pool=%d\n", CpuModel().c_str(), nproc,
              isa.c_str(), pool);
  for (const auto& [name, m] : r.metrics) {
    std::printf("#   %-38s %14.6g %-6s n=%" PRId64 "\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  for (const std::string& p : r.problems) {
    std::printf("# PROBLEM: %s\n", p.c_str());
  }

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
                             "-trace" + (cfg.trace ? "1" : "0");
    cdmpp::JsonWriter w;
    w.BeginObject();
    w.Key("workload");
    w.String(cfg.workload);
    w.Key("seed");
    w.Uint(cfg.seed);
    w.Key("seconds");
    w.Double(cfg.seconds);
    w.Key("trace");
    w.Bool(cfg.trace);
    w.Key("source_id");
    w.String(source_id);
    w.Key("host");
    w.BeginObject();
    w.Key("cpu_model");
    w.String(CpuModel());
    w.Key("nproc");
    w.Uint(nproc);
    w.Key("kernel_isa");
    w.String(isa);
    w.Key("pool_width");
    w.Int(pool);
    w.EndObject();
    w.Key("correct");
    w.Bool(correct);
    w.Key("attempted");
    w.Int(r.attempted);
    w.Key("failed");
    w.Int(r.failed);
    w.Key("problems");
    w.BeginArray();
    for (const std::string& p : r.problems) {
      w.String(p);
    }
    w.EndArray();
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [name, m] : r.metrics) {
      w.Key(name);
      w.BeginObject();
      w.Key("value");
      w.Double(m.value);
      w.Key("unit");
      w.String(m.unit);
      w.Key("samples");
      w.Int(m.samples);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    w.WriteFile(stem + ".json");
    if (cfg.trace && !spans.WriteChromeTrace(stem + ".trace.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n", stem.c_str());
      return 1;
    }
  }

  // The record line, last on stdout: every metric the workload produced.
  // run.py selects the end-to-end or per-layer set that BENCHMARK.json
  // declares. An invalid run (generator off its schedule) reports no
  // latencies.
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!r.valid && name.rfind("latency_", 0) == 0) {
      continue;
    }
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

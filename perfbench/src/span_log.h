// Benchmark-side spans for the traced run, written as Chrome trace_event
// JSON so a run opens in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Spans are recorded around the benchmark's own calls into the program's
// public entry points; there is no instrumentation inside src/. Each span
// has a name, start, end, parent span and a trace id that is shared by every
// span of one request (or one search task, or one training rep). Spans stay
// in memory until the run ends and WriteChromeTrace writes them out.
#ifndef PERFBENCH_SRC_SPAN_LOG_H_
#define PERFBENCH_SRC_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";   // static string
  uint64_t id = 0;         // unique within the log, 1-based
  uint64_t parent = 0;     // 0 = root
  uint64_t trace_id = 0;   // shared by the spans of one request / task / rep
  Clock::time_point start;
  Clock::time_point end;
};

// Thread-safe, append-only. A disabled log (the untraced runs) records
// nothing and returns id 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // A fresh span id (0 when disabled), so a parent can hand its id to
  // children before it ends.
  uint64_t NewId();

  // Records a finished span under an id from NewId (no-op when disabled).
  void Record(uint64_t id, const char* name, uint64_t trace_id, uint64_t parent,
              Clock::time_point start, Clock::time_point end);

  std::vector<Span> Snapshot() const;

  // Nestable async begin/end pairs ("ph": "b"/"e") keyed by trace id, so the
  // overlapping requests of an open-loop run each get their own track.
  // Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// Records one span from construction to destruction.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(SpanLog* log, const char* name, uint64_t trace_id, uint64_t parent = 0)
      : log_(log),
        name_(name),
        id_(log->NewId()),
        trace_id_(trace_id),
        parent_(parent),
        start_(Clock::now()) {}
  ~ScopedBenchSpan() { log_->Record(id_, name_, trace_id_, parent_, start_, Clock::now()); }

  uint64_t id() const { return id_; }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_;
  uint64_t trace_id_;
  uint64_t parent_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_LOG_H_

#include "perfbench/src/span_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint64_t SpanLog::NewId() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Record(uint64_t id, const char* name, uint64_t trace_id, uint64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, trace_id, start, end});
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  // Begin/end events of one trace id must appear in nesting order; sorting
  // by start (then by longer span first) gives parents before children.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans) {
    for (const char* ph : {"b", "e"}) {
      const bool begin = ph[0] == 'b';
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"%s\", "
                   "\"id\": %" PRIu64 ", \"pid\": 1, \"tid\": 1, \"ts\": %.3f",
                   first ? "" : ",\n", s.name, ph, s.trace_id,
                   begin ? us(s.start) : us(s.end));
      if (begin) {
        std::fprintf(f, ", \"args\": {\"span\": %" PRIu64 ", \"parent\": %" PRIu64 "}", s.id,
                     s.parent);
      }
      std::fprintf(f, "}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

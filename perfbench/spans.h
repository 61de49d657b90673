// In-memory span recorder for the benchmark's traced mode. A span is one
// timed call into a layer: name, start, end, the span that encloses it, and
// the job it belongs to. Spans are appended to a vector while the run goes
// and written once, as Chrome trace-event JSON, when it ends. One recorder
// belongs to one thread; the traced passes are sequential.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace dexbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(); -1 for a root
    uint64_t job = 0;
    int track = 0;  // trace-viewer row
  };

  // Opens a span under the innermost open one and returns its index.
  int32_t open(const char* name, uint64_t job, int track = 0) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job;
    span.track = track;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  // Records an already-finished interval (e.g. a job's due-to-done latency).
  void add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t job,
           int track) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job;
    span.track = track;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span: its duration minus the time its children cover.
  std::vector<int64_t> self_ns() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return self;
  }

  // Summed self time and duration per span name.
  struct Total {
    int64_t self_ns = 0;
    int64_t wall_ns = 0;
  };
  std::map<std::string, Total> totals() const {
    std::vector<int64_t> self = self_ns();
    std::map<std::string, Total> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      t.self_ns += self[i];
      t.wall_ns += spans_[i].end_ns - spans_[i].start_ns;
    }
    return out;
  }

  // Writes every span as a Chrome trace-event "X" slice (microseconds since
  // the first span), loadable in chrome://tracing or Perfetto. `meta` is a
  // JSON object placed under "otherData".
  bool write_chrome(const std::string& path, const std::string& meta) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) base = std::min(base, s.start_ns);
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", meta.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"job\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, s.track,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.job));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t job, int track = 0)
      : log_(log), index_(log.open(name, job, track)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int32_t index_;
};

}  // namespace dexbench

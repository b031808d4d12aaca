// In-memory span recorder for the benchmark's traced runs. Deliberately
// independent of src/obs: it must keep working when the library is built
// with -DSWIFTSPATIAL_OBS_OFF=ON, and it must not add series or spans to the
// program's own metrics. Spans are recorded only around calls the benchmark
// makes into the library's public functions, so each span's layer is the
// module that owns the called function.
#ifndef SWIFTSPATIAL_PERFBENCH_TRACE_H_
#define SWIFTSPATIAL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  const char* name = "";
  const char* layer = "";
  double start = 0;
  double end = 0;
  /// Index of the enclosing span in the same SpanLog, or -1 for a root.
  int parent = -1;
  /// Shared by every span of one operation (one cold join, one request, one
  /// dataset write); 0 for set-up.
  uint64_t op = 0;
};

/// One thread's spans. Not thread-safe: each client thread owns one, and
/// the logs are merged after the threads are joined.
class SpanLog {
 public:
  /// Starts attributing spans to operation `op`; `enabled` selects whether
  /// its spans are recorded at all (traced runs interleave traced and
  /// untraced operations to measure the tracing overhead).
  void BeginOp(uint64_t op, bool enabled) {
    op_ = op;
    enabled_ = enabled;
  }
  bool enabled() const { return enabled_; }

  int Open(const char* name, const char* layer) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.start = Now();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int index) {
    if (index < 0) return;
    spans_[index].end = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  uint64_t op_ = 0;
  bool enabled_ = false;
};

/// Records one span for the lifetime of the object (no-op when `log` is
/// null or tracing is off for the current operation).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer)
      : log_(log), index_(log ? log->Open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per layer: self seconds summed over every operation span of that layer
/// (set-up spans, op 0, are left out), where a span's self time is its
/// duration minus the time its direct children cover (children of one span
/// never overlap: they run on its thread).
inline std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::vector<double> child_seconds(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_seconds[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op == 0) continue;
    out[spans[i].layer] += spans[i].end - spans[i].start - child_seconds[i];
  }
  return out;
}

/// Writes the spans as JSON lines; `thread` tags which log each came from.
inline bool WriteSpans(const std::string& path,
                       const std::vector<std::vector<Span>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (std::size_t i = 0; i < logs[t].size(); ++i) {
      const Span& s = logs[t][i];
      std::fprintf(f,
                   "{\"thread\": %zu, \"id\": %zu, \"parent\": %d, "
                   "\"op\": %llu, \"name\": \"%s\", \"layer\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.op),
                   s.name, s.layer, s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // SWIFTSPATIAL_PERFBENCH_TRACE_H_

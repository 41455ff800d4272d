/**
 * @file span_trace.h
 * In-memory span recorder for the benchmark's traced run. Spans are
 * opened and closed around calls into each layer; each records its
 * name, start, end (host steady clock, seconds since the recorder was
 * made) and parent. Nothing is written until the run ends. A disabled
 * recorder keeps nothing, so the untraced runs pay only a branch.
 */
#ifndef RAGO_PERFBENCH_SPAN_TRACE_H
#define RAGO_PERFBENCH_SPAN_TRACE_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
  };

  /// Per-name totals over every closed span.
  struct Totals {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time child spans cover.
  };

  explicit SpanTrace(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one.
  void Begin(const std::string& name) {
    if (!enabled_) {
      return;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double End() {
    if (!enabled_ || open_.empty()) {
      return 0.0;
    }
    Span& span = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    span.end = Now();
    return span.end - span.start;
  }

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(SpanTrace& trace, const std::string& name) : trace_(trace) {
      trace_.Begin(name);
    }
    ~Scope() { trace_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace& trace_;
  };

  /// Count, total and self time per span name. Children of one span
  /// never overlap (the recorder is single-threaded), so self time is
  /// the duration minus the children's summed durations.
  std::map<std::string, Totals> Summarize() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, Totals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[spans_[i].name];
      const double duration = spans_[i].end - spans_[i].start;
      t.count += 1;
      t.total_s += duration;
      t.self_s += duration - child_s[i];
    }
    return totals;
  }

  /// Writes every span as one JSON array; returns false on I/O failure.
  bool WriteJson(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    std::fputs("[\n", file);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, span.name.c_str(), span.start, span.end, span.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", file);
    return std::fclose(file) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // RAGO_PERFBENCH_SPAN_TRACE_H

// In-memory span log for the traced run. A span is one timed call from the
// benchmark into a layer's public function: name, start, end, and the span
// that was open when it began (its parent). Spans stay in memory while the
// run executes and are written out once, at the end.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  explicit SpanLog(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  std::size_t open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.start = now();
    span.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes the innermost open span, which must be `id`.
  void close(std::size_t id) {
    spans_[id].end = now();
    stack_.pop_back();
  }

  double duration(std::size_t id) const { return spans_[id].end - spans_[id].start; }

  // Span duration minus the time its direct children cover.
  double self_time(std::size_t id) const {
    double children = 0.0;
    for (std::size_t i = id + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == static_cast<int>(id)) children += duration(i);
    }
    return duration(id) - children;
  }

  // Summed duration of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += duration(i);
    }
    return sum;
  }

  // One JSON object per line: name, start, end, parent, self, workload.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %d, \"self\": %.9f, \"workload\": \"%s\"}\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, self_time(i),
                   workload_.c_str());
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
    int parent = -1;     // index of the enclosing span, -1 for a root span
  };

  double now() const { return seconds_between(origin_, Clock::now()); }

  std::string workload_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
};

// Opens a span for the enclosing scope; a null log records nothing, so the
// untraced path runs the same code.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

}  // namespace perfbench

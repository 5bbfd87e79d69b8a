#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int SpanRecorder::open(const char* name, int op) {
  if (!on_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now, now, stack_.empty() ? -1 : stack_.back(),
                        op});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  // Children of one parent never overlap (one thread, strict nesting), so
  // the time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-9;
  }
  return out;
}

std::string SpanRecorder::chrome_events() const {
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.op);
    out += buf;
  }
  return out;
}

}  // namespace perfbench

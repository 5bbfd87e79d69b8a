#pragma once

// Host-side span recorder for the traced benchmark run. Spans nest on one
// host thread (the benchmark is single-threaded), live in memory, and are
// written out as Chrome/Perfetto JSON when the run ends. With recording
// off, opening a span costs one branch.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name;
  std::int64_t start_ns;  // since the recorder's epoch
  std::int64_t end_ns;
  int parent;  // index into spans(), -1 for a root
  int op;      // operation id (-1: not part of an operation)
};

class SpanRecorder {
 public:
  SpanRecorder();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span under the innermost open one; returns its id, or -1 when
  /// recording is off.
  int open(const char* name, int op);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time its children cover) summed per
  /// span name, in seconds.
  std::map<std::string, double> self_seconds() const;

  /// Chrome trace events (pid 0 = host spans) without the enclosing
  /// document, ready to be concatenated with coll::Trace::chrome_events.
  std::string chrome_events() const;

 private:
  bool on_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, int op = -1)
      : rec_(rec), id_(rec.open(name, op)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench

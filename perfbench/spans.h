// Host-time spans around the benchmark's own calls into each simulator
// layer. Spans are kept in memory and written once, at the end of a traced
// run, as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Each span has a name "<layer>.<call>", a start and end on the host's
// steady clock, and the id of the span that was open when it started (its
// cause). A span's self time is its duration minus the time its direct
// children cover. Untraced runs pass a null recorder and Scope does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int parent;  // -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;  // time covered by direct children
  };
  struct Totals {
    std::int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Open(const char* name);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Count, total and self time per span name.
  std::map<std::string, Totals> TotalsByName() const;
  // Durations (seconds) of every closed span called `name`, in order.
  std::vector<double> DurationsOf(const std::string& name) const;
  // Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

// Records one span for the lifetime of the scope; free when `rec` is null.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->Open(name) : -1) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->Close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

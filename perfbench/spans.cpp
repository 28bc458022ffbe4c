#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int SpanRecorder::Open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), NowNs(), -1, 0});
  open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int id) {
  // Scopes nest, so the span being closed is always the innermost one.
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = NowNs();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::TotalsByName() const {
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
  }
  return out;
}

std::vector<double> SpanRecorder::DurationsOf(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[256];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  first ? "" : ",\n", s.name, layer.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    f << line;
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

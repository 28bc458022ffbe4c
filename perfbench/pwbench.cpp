// pwbench: runs one repetition of one perfbench workload in this process
// and prints one JSON line with its host timings, output check, simulated
// results and per-layer counters. perfbench/run.py drives it.
//
//   pwbench --workload dispatch_2048 --seed 7 [--trace trace.json]
//           [--quick] [--skip-release]
//
// --trace records host-time spans around the benchmark's calls into each
// layer, adds the span-derived per-layer metrics and the per-span table,
// and writes the spans as Chrome trace-event JSON to the given path.
// --quick runs a reduced size (for the benchmark's own tests);
// --skip-release drops the first buffer Release (a mutation the output
// check must catch). Exit code: 0 if the output check passed, 1 if it
// failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) out += ",";
    out += Quote(m.name) + ":{\"value\":" + Num(m.value) +
           ",\"unit\":" + Quote(m.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::cerr << "pwbench: " << why
            << "\nusage: pwbench --workload <name> --seed <n> [--trace <path>]"
               " [--quick] [--skip-release]\nworkloads:";
  for (const auto& w : perfbench::WorkloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string trace_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--skip-release") {
      opt.skip_release = true;
    } else {
      return Usage(("unrecognized argument '" + a + "'").c_str());
    }
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == opt.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");

  perfbench::SpanRecorder recorder;
  const bool traced = !trace_path.empty();
  const perfbench::RepResult r =
      perfbench::RunWorkload(opt, traced ? &recorder : nullptr);
  const bool ok = r.failure.empty();
  const std::int64_t failed = ok ? r.attempted - r.completed : r.attempted;

  std::ostringstream out;
  out << "{\"workload\":" << Quote(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"quick\":" << (opt.quick ? "true" : "false")
      << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"compiler\":" << Quote(PWBENCH_COMPILER)
      << ",\"build_type\":" << Quote(PWBENCH_BUILD_TYPE)
      << ",\"ok\":" << (ok ? "true" : "false")
      << ",\"failure\":" << Quote(r.failure) << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << failed << ",\"setup_s\":" << Num(r.setup_s)
      << ",\"run_s\":" << Num(r.run_s) << ",\"units_per_s\":"
      << Num(r.run_s > 0 ? static_cast<double>(r.completed) / r.run_s : 0)
      << ",\"peak_rss_mb\":" << Num(PeakRssMb())
      << ",\"model\":" << MetricsJson(r.model)
      << ",\"layers\":" << MetricsJson(r.layers);
  if (traced) {
    out << ",\"spans\":{";
    bool first = true;
    for (const auto& [name, t] : recorder.TotalsByName()) {
      out << (first ? "" : ",") << Quote(name) << ":{\"count\":" << t.count
          << ",\"total_s\":" << Num(t.total_s) << ",\"self_s\":" << Num(t.self_s)
          << "}";
      first = false;
    }
    out << "}";
    if (!recorder.WriteChromeTrace(trace_path)) {
      std::cerr << "pwbench: cannot write trace to " << trace_path << "\n";
      return 2;
    }
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return ok ? 0 : 1;
}

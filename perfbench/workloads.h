// The three perfbench workloads: one repetition of one workload per call,
// single-threaded, on a fresh simulator. See perfbench/README.md for why
// each exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;  // dispatch_2048 | train_2island_flow | serve_kv_spill
  std::uint64_t seed = 1;
  bool quick = false;         // reduced size, for the benchmark's own tests
  bool skip_release = false;  // mutation: drop the first buffer Release
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RepResult {
  std::int64_t attempted = 0;  // units submitted or offered
  std::int64_t completed = 0;  // units finished successfully
  std::int64_t accounted = 0;  // units finished, aborted or shed
  std::string failure;         // why the output check failed; "" if it passed
  double setup_s = 0;          // host: workload start -> first sim event
  double run_s = 0;            // host: run phase, drain included
  std::vector<Metric> model;   // simulated results (deterministic per seed)
  std::vector<Metric> layers;  // per-layer counters and host times
};

const std::vector<std::string>& WorkloadNames();

// Runs one repetition. `rec` is null for an untraced run.
RepResult RunWorkload(const Options& options, SpanRecorder* rec);

}  // namespace perfbench

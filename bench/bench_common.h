// Shared helpers for the benchmark binaries: each bench regenerates one
// table or figure from the paper's evaluation (§5), prints the measured
// series next to the paper's reported values where available, and emits a
// machine-readable BENCH_<name>.json (see docs/BENCHMARKS.md for the
// schema) so CI can track the perf trajectory across PRs.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/jax_mc.h"
#include "baselines/microbench.h"
#include "baselines/pathways_driver.h"
#include "baselines/raylike.h"
#include "baselines/tf1.h"
#include "hw/cluster.h"
#include "sim/simulator.h"
#include "sweep/param_grid.h"
#include "sweep/result_table.h"
#include "sweep/sweep_runner.h"

namespace pw::bench {

// Opt-in flag groups beyond the base --quick/--out; a bench passes the
// union of the groups it actually implements, and anything else on its
// command line is a hard usage error.
enum ExtraFlags : unsigned {
  kNoExtraFlags = 0,
  kSimcoreFlags = 1u << 0,  // --min-speedup <x>, --gbench (bench_simcore)
};

// Command line shared by every bench binary:
//   --quick            reduced-size run (CI smoke jobs; same code path,
//                      smaller grids)
//   --out <dir>        directory for BENCH_*.json (default $PWSIM_BENCH_DIR
//                      or .)
//   --min-speedup <x>  bench_simcore: enforced acceptance bar
//   --gbench           bench_simcore: also run the google-benchmark suite
// Unrecognized flags (and flags outside the bench's registered groups) are
// hard errors: usage goes to stderr and the process exits 2.
struct Args {
  bool quick = false;
  std::string out_dir;
  double min_speedup = 2.0;
  bool gbench = false;

  static void Usage(FILE* out, const char* prog, unsigned extra) {
    std::fprintf(out, "usage: %s [--quick] [--out <dir>]", prog);
    if (extra & kSimcoreFlags) {
      std::fprintf(out, " [--min-speedup <x>] [--gbench]");
    }
    std::fprintf(out,
                 "\n  --quick            reduced grid for CI smoke runs\n"
                 "  --out <dir>        directory for BENCH_*.json (default "
                 "$PWSIM_BENCH_DIR or .)\n");
    if (extra & kSimcoreFlags) {
      std::fprintf(out,
                   "  --min-speedup <x>  enforced acceptance bar (default "
                   "2.0)\n"
                   "  --gbench           also run the google-benchmark "
                   "suite (when built in)\n");
    }
    std::fprintf(out, "  --help             this text\n");
  }

  // Whole-string strtod: rejects empty, trailing junk, out-of-range,
  // non-finite and non-positive values.
  static bool ParsePositiveDouble(const char* text, double* out) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
        !(v > 0)) {
      return false;
    }
    *out = v;
    return true;
  }

  static Args Parse(int argc, char** argv, unsigned extra = kNoExtraFlags) {
    Args args;
    auto value = [&](int* i, const char* flag) -> const char* {
      if (*i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '%s' expects a value\n", argv[0],
                     flag);
        Usage(stderr, argv[0], extra);
        std::exit(2);
      }
      return argv[++*i];
    };
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(a, "--out") == 0) {
        args.out_dir = value(&i, a);
      } else if ((extra & kSimcoreFlags) != 0 &&
                 std::strcmp(a, "--min-speedup") == 0) {
        const char* text = value(&i, a);
        if (!ParsePositiveDouble(text, &args.min_speedup)) {
          std::fprintf(stderr,
                       "%s: --min-speedup expects a positive number, got "
                       "'%s'\n",
                       argv[0], text);
          Usage(stderr, argv[0], extra);
          std::exit(2);
        }
      } else if ((extra & kSimcoreFlags) != 0 &&
                 std::strcmp(a, "--gbench") == 0) {
        args.gbench = true;
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        Usage(stdout, argv[0], extra);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unrecognized flag '%s'\n", argv[0], a);
        Usage(stderr, argv[0], extra);
        std::exit(2);
      }
    }
    return args;
  }
};

// Accumulates one bench's measured series and writes BENCH_<name>.json.
// Rows are (params, metrics) pairs exactly as printed; summary metrics are
// the headline numbers CI trend lines track.
class Reporter {
 public:
  explicit Reporter(std::string name, const Args& args = {})
      : name_(std::move(name)), dir_(args.out_dir) {}

  void AddRow(std::vector<std::pair<std::string, sweep::ParamValue>> params,
              std::vector<std::pair<std::string, double>> metrics) {
    table_.Add(std::move(params), std::move(metrics));
  }

  void Summary(const std::string& metric, double value) {
    summary_[metric] = value;
  }

  sweep::ResultTable& table() { return table_; }

  // Writes the JSON file and prints where it landed; best-effort.
  std::string Write() {
    const std::string path =
        sweep::WriteBenchJsonFile(name_, summary_, table_, dir_);
    if (path.empty()) {
      std::fprintf(stderr, "warning: could not write BENCH_%s.json\n",
                   name_.c_str());
    } else {
      std::printf("\n[bench] wrote %s\n", path.c_str());
    }
    return path;
  }

 private:
  std::string name_;
  std::string dir_;
  sweep::ResultTable table_;
  std::map<std::string, double> summary_;
};

inline void Header(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

// Measures one (system, mode) point on a fresh config-A cluster.
inline double MeasureSystem(const std::string& system, int hosts,
                            const baselines::MicrobenchSpec& spec) {
  using namespace baselines;
  sim::Simulator sim;
  if (system == "JAX") {
    auto cluster = hw::Cluster::ConfigA(&sim, hosts);
    JaxMultiController jax(cluster.get());
    return jax.Measure(spec).computations_per_sec;
  }
  if (system == "PW") {
    auto cluster = hw::Cluster::ConfigA(&sim, hosts);
    PathwaysDriver pw(cluster.get());
    return pw.Measure(spec).computations_per_sec;
  }
  if (system == "TF") {
    auto cluster = hw::Cluster::ConfigA(&sim, hosts);
    Tf1SingleController tf(cluster.get());
    return tf.Measure(spec).computations_per_sec;
  }
  if (system == "Ray") {
    auto cluster = hw::Cluster::GpuVm(&sim, hosts);
    RayLike ray(cluster.get());
    return ray.Measure(spec).computations_per_sec;
  }
  std::fprintf(stderr, "unknown system %s\n", system.c_str());
  return 0;
}

}  // namespace pw::bench

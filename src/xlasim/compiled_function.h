// CompiledFunction: the contract between the compiler and the runtime.
//
// A compiled function is a (potentially SPMD-sharded) computation with
// *statically known* resource requirements (paper §3): per-shard device
// time, the collective it performs (if any) and the payload per shard, and
// per-shard input/output/scratch buffer sizes. This is all the Pathways
// runtime needs for parallel asynchronous dispatch — successor buffers can
// be allocated before predecessors execute.
//
// Two construction paths:
//   * producers state the per-shard timings and buffer sizes outright: the
//     model layer (models/step_builder.h) derives them from FLOP counts and
//     device peak, the serving batcher from per-token costs, and
//     micro-benchmarks use Synthetic to sweep computation duration, as the
//     paper does. Every workload builds its functions this way;
//   * Compiler::Compile lowers an HloModule under a ShardingSpec, using the
//     CostModel for device time. No workload calls it; only xlasim_test does.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "net/collective_model.h"
#include "xlasim/cost_model.h"
#include "xlasim/hlo.h"

namespace pw::xlasim {

// SPMD partitioning environment: how many shards, and which logical
// dimension of the inputs/outputs is split (batch sharding by default).
struct ShardingSpec {
  int num_shards = 1;
  int sharded_dim = 0;
};

struct CompiledFunction {
  std::string name;
  int num_shards = 1;

  // Per-shard device occupancy, split around the collective (if any).
  Duration pre_collective_time = Duration::Zero();
  Duration post_collective_time = Duration::Zero();

  std::optional<net::CollectiveKind> collective;
  Bytes collective_bytes_per_shard = 0;

  // Per-shard static buffer assignment.
  Bytes input_bytes_per_shard = 0;
  Bytes output_bytes_per_shard = 0;
  Bytes scratch_bytes_per_shard = 0;

  Duration total_compute_time() const {
    return pre_collective_time + post_collective_time;
  }
  Bytes hbm_bytes_per_shard() const {
    return input_bytes_per_shard + output_bytes_per_shard + scratch_bytes_per_shard;
  }

  // Builds a function with explicit per-shard timing; `collective_bytes`
  // of 0 with a collective kind set still performs the (latency-bound)
  // rendezvous — this is the paper's "scalar AllReduce" micro-benchmark.
  static CompiledFunction Synthetic(
      std::string name, int num_shards, Duration compute_time,
      std::optional<net::CollectiveKind> collective = std::nullopt,
      Bytes collective_bytes_per_shard = 0, Bytes io_bytes_per_shard = 8);
};

class Compiler {
 public:
  explicit Compiler(CostModel cost_model) : cost_model_(std::move(cost_model)) {}
  Compiler() = default;

  const CostModel& cost_model() const { return cost_model_; }

  // Lowers `module` for SPMD execution over `sharding.num_shards` shards.
  // Compute time is the per-shard roofline estimate; at most one collective
  // is supported per function (XLA would fuse more — callers split larger
  // programs into one-collective functions).
  CompiledFunction Compile(const HloModule& module,
                           const ShardingSpec& sharding) const;

 private:
  CostModel cost_model_;
};

}  // namespace pw::xlasim

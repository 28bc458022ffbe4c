// Flow-level network engine over an explicit Topology (docs/NETWORK.md).
//
// Active transfers are modeled as fluid flows that share every link on
// their path max-min fairly. The allocation is re-solved once per simulated
// instant at which the flow set or a link capacity changes — the standard
// fluid approximation used by flow-level simulators — so a transfer's rate
// rises and falls as competitors come and go, and effects the scalar fabric
// cannot express (incast at a destination NIC, Clos oversubscription,
// one degraded edge slowing exactly the paths that cross it) fall out of
// the link graph. Flow finishes and capacity changes re-solve on the spot;
// a flow start only schedules a zero-delay solve, so a burst of k starts at
// one instant costs one solve, not k.
//
// Determinism: every solve runs inside a simulator event, ordered by
// (time, seq) like everything else; flows are iterated in start order
// (flow ids are handed out sequentially); the water-filling bottleneck
// tie-break is the lowest link index; and predicted completion times are
// ceilinged to integer nanoseconds. Two runs of the same scenario schedule
// byte-identical event sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "net/collective_model.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace pw::net {

// Max-min fair (water-filling) rates, in bytes/sec, for `paths` over the
// effective link bandwidths of `topo`. Repeatedly finds the bottleneck link
// — the one whose remaining capacity divided by its unfixed-flow count is
// smallest, ties to the lowest link index — and fixes every flow crossing
// it at that fair share. Runs in O(touched links · iterations + total path
// length) over dense per-link arrays; the order of floating-point operations
// is fixed, so results are bit-stable.
std::vector<double> MaxMinFairRates(
    const Topology& topo, const std::vector<const std::vector<LinkIndex>*>& paths);

// The solver behind MaxMinFairRates, holding its per-link scratch so that
// repeated solves over one topology do not allocate once the buffers have
// grown to the largest problem seen.
class MaxMinSolver {
 public:
  // One rate per path, as MaxMinFairRates; valid until the next Solve.
  const std::vector<double>& Solve(
      const Topology& topo,
      const std::vector<const std::vector<LinkIndex>*>& paths);

 private:
  // Indexed by LinkIndex. slot_ is -1 for links outside the current solve
  // (restored before Solve returns); the other two are valid only for
  // links with a slot.
  std::vector<int> slot_;          // position in touched_
  std::vector<double> remaining_;  // unallocated capacity
  std::vector<int> count_;         // unfixed flows crossing, with repeats
  // Indexed by slot: the touched links in ascending order, and a CSR list
  // of the flows crossing each one, ascending, an entry per crossing.
  std::vector<LinkIndex> touched_;
  std::vector<std::size_t> row_begin_;
  std::vector<std::size_t> row_end_;
  std::vector<std::size_t> flows_;
  std::vector<std::size_t> live_;  // slots still crossed by an unfixed flow
  std::vector<char> fixed_;
  std::vector<double> rates_;
};

class FlowNetwork {
 public:
  using FlowId = std::int64_t;

  FlowNetwork(sim::Simulator* sim, Topology* topo) : sim_(sim), topo_(topo) {
    PW_CHECK(sim_ != nullptr);
    PW_CHECK(topo_ != nullptr);
  }
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // Starts a flow of `bytes` over `path` (non-empty). When the last byte
  // drains, `on_delivered` is scheduled `delivery_latency` later
  // (serialization finish + propagation, the flow-level analogue of
  // Link::Transfer's store-and-forward accounting).
  FlowId StartFlow(std::vector<LinkIndex> path, Bytes bytes,
                   Duration delivery_latency, std::function<void()> on_delivered);

  // Call after Topology::SetLinkScale so active flows re-share the new
  // capacities from now() onward (bytes already moved stay moved).
  void OnCapacityChanged();

  int active_flows() const { return static_cast<int>(flows_.size()); }
  std::int64_t flows_started() const { return flows_started_; }
  std::int64_t flows_completed() const { return flows_completed_; }
  Bytes bytes_delivered() const { return bytes_delivered_; }

  // Fair-share rate of an active flow (bytes/sec) as of the last solve; 0
  // if finished. A flow started in the current event reads 0 until the
  // same-instant solve runs.
  double Rate(FlowId id) const;

  // Fair-share solves run so far; flow starts at one instant share one.
  std::int64_t solves() const { return solves_; }

 private:
  struct Flow {
    std::vector<LinkIndex> path;
    double remaining = 0;  // bytes left to drain
    double rate = 0;       // current fair share, bytes/sec
    Duration latency;
    std::function<void()> on_delivered;
  };

  // Advances progress to now(), delivers ripe flows, re-solves the fair
  // shares for the survivors, and re-arms the next-completion timer.
  // Absorbs a pending deferred solve.
  void Recompute();

  sim::Simulator* sim_;
  Topology* topo_;
  std::map<FlowId, Flow> flows_;  // id order == start order
  FlowId next_id_ = 0;
  TimePoint last_update_;
  sim::EventHandle next_completion_;
  bool solve_pending_ = false;  // a zero-delay solve is scheduled
  MaxMinSolver solver_;
  std::vector<const std::vector<LinkIndex>*> paths_;  // solve scratch
  std::int64_t solves_ = 0;
  std::int64_t flows_started_ = 0;
  std::int64_t flows_completed_ = 0;
  Bytes bytes_delivered_ = 0;
};

// CollectiveModel backed by the flow solver over a torus: phases are
// decomposed into per-link flows and charged their max-min rates, instead
// of the single-bottleneck analytic formula.
//
//   ring: over the snake ring of the first n nodes; all-reduce is 2(n-1)
//         steps of B/n-byte chunk exchanges (reduce-scatter + all-gather),
//         each step paying its worst path latency plus chunk/min-rate.
//   tree: ceil(log2 n) rounds of pairwise halving/doubling over the same
//         node set, full-B payloads, per-round max-min rates.
//
// All-reduce takes min(ring, tree) — the size-based algorithm choice: the
// tree wins for small payloads (fewer latency hops), the ring for large
// (bandwidth-optimal). Per-(n) schedules are cached and invalidated by the
// topology generation, so a degraded ICI link reprices collectives.
class FlowCollectiveModel : public CollectiveModel {
 public:
  FlowCollectiveModel(CollectiveParams params, const Topology* topo,
                      const TorusTopology* torus)
      : CollectiveModel(params), topo_(topo), torus_(torus) {
    PW_CHECK(topo_ != nullptr);
    PW_CHECK(torus_ != nullptr);
  }

  Duration Time(CollectiveKind kind, Bytes bytes, int n) const override;

  // Exposed for tests and the ring-vs-tree crossover analysis. Unlike
  // Time(), which prices n == 1 as launch overhead, these need a real
  // schedule: 2 <= n <= torus->num_nodes().
  Duration RingTime(CollectiveKind kind, Bytes bytes, int n) const;
  Duration TreeTime(CollectiveKind kind, Bytes bytes, int n) const;

 private:
  struct StepCost {
    double min_rate = 0;  // slowest flow's max-min rate in the step/round
    int max_hops = 1;     // longest path in the step/round
  };

  void CheckGang(int n) const;
  const StepCost& RingStep(int n) const;
  const std::vector<StepCost>& TreeRounds(int n) const;
  void MaybeInvalidate() const;

  const Topology* topo_;
  const TorusTopology* torus_;
  mutable std::uint64_t cache_generation_ = ~std::uint64_t{0};
  mutable std::map<int, StepCost> ring_cache_;
  mutable std::map<int, std::vector<StepCost>> tree_cache_;
};

}  // namespace pw::net

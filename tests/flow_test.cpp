// Tests for the flow-level network model (net/topology.h, net/flow.h):
// explicit torus/Clos topologies, the max-min fair (water-filling) solver,
// the event-driven FlowNetwork, and the FlowCollectiveModel — including the
// uncontended-agreement checks against the analytic CollectiveModel and the
// contention effects (incast, oversubscription) the scalar fabric cannot
// express.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "hw/cluster.h"
#include "net/collective_model.h"
#include "net/dcn.h"
#include "net/flow.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace pw::net {
namespace {

// ------------------------------------------------------------- Topology --

TEST(TorusTopologyTest, BalancedDims) {
  EXPECT_EQ(TorusTopology::BalancedDims(16, 2), (std::vector<int>{4, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(12, 2), (std::vector<int>{3, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(7, 2), (std::vector<int>{1, 7}));
  EXPECT_EQ(TorusTopology::BalancedDims(64, 3), (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(24, 3), (std::vector<int>{2, 3, 4}));
}

TEST(TorusTopologyTest, DimensionOrderedMinimalRoutes) {
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, 100e9);
  EXPECT_EQ(torus.num_nodes(), 16);
  EXPECT_EQ(topo.num_links(), 16u * 4);  // 2 dims x 2 dirs per node
  // Neighbors are one hop.
  EXPECT_EQ(torus.Distance(0, 1), 1);
  EXPECT_EQ(torus.Distance(0, 4), 1);
  // Wraparound: node 0 -> node 3 is one negative hop, not three positive.
  EXPECT_EQ(torus.Distance(0, 3), 1);
  // Opposite corner of a 4x4 torus: 2 + 2 wrap hops.
  EXPECT_EQ(torus.Distance(0, 10), 4);
  // Routes are loop-free link lists.
  const std::vector<LinkIndex> path = torus.Path(0, 10);
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(std::set<LinkIndex>(path.begin(), path.end()).size(), 4u);
  EXPECT_TRUE(torus.Path(5, 5).empty());
}

TEST(TorusTopologyTest, SnakeRingVisitsAllNodesViaNeighbors) {
  for (const std::vector<int>& dims :
       {std::vector<int>{4, 4}, {3, 5}, {1, 7}, {2, 3, 4}}) {
    Topology topo;
    TorusTopology torus(&topo, dims, 100e9);
    const std::vector<int>& order = torus.ring_order();
    ASSERT_EQ(static_cast<int>(order.size()), torus.num_nodes());
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(seen.size()), torus.num_nodes());
    // Consecutive snake entries are torus neighbors (single-hop routes), so
    // ring collectives embed on mostly disjoint links.
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      EXPECT_EQ(torus.Distance(order[i], order[i + 1]), 1)
          << "entries " << i << " and " << i + 1;
    }
  }
}

TEST(ClosTopologyTest, PathsAndOversubscription) {
  Topology topo;
  ClosTopology clos(&topo, {.hosts_per_leaf = 4,
                            .num_spines = 2,
                            .host_bandwidth = 10e9,
                            .spine_bandwidth = 0,
                            .oversubscription = 2.0});
  for (int h = 0; h < 8; ++h) clos.AddHost();
  EXPECT_EQ(clos.num_leaves(), 2);
  EXPECT_DOUBLE_EQ(clos.oversubscription(), 2.0);
  // R = hosts_per_leaf*nic / (spines*uplink) => uplink = 4*10/(2*2) = 10 GB/s.
  EXPECT_DOUBLE_EQ(clos.spine_bandwidth(), 10e9);
  // Same-leaf route: up + down only.
  EXPECT_EQ(clos.Path(0, 1).size(), 2u);
  // Cross-leaf route: up, leaf->spine, spine->leaf, down.
  const auto path = clos.Path(0, 5);
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), clos.host_up(0));
  EXPECT_EQ(path.back(), clos.host_down(5));
  // ECMP is deterministic: same pair, same path.
  EXPECT_EQ(clos.Path(0, 5), clos.Path(0, 5));
}

// ------------------------------------------------------- MaxMinFairRates --

TEST(MaxMinFairTest, SingleFlowGetsFullLink) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 8e9);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 8e9);
}

TEST(MaxMinFairTest, EqualSharesOnSharedBottleneck) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 9e9);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path, &path, &path});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 3e9);
}

TEST(MaxMinFairTest, WaterFillingRedistributesSlack) {
  // Classic three-flow example: A crosses l1 (10) only, B crosses l1+l2,
  // C crosses l2 (5) only. Bottleneck l2 first: B and C fixed at 2.5; A
  // then takes the rest of l1: 7.5.
  Topology topo;
  const LinkIndex l1 = topo.AddLink("l1", 10.0);
  const LinkIndex l2 = topo.AddLink("l2", 5.0);
  const std::vector<LinkIndex> pa{l1}, pb{l1, l2}, pc{l2};
  const auto rates = MaxMinFairRates(topo, {&pa, &pb, &pc});
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
  EXPECT_DOUBLE_EQ(rates[1], 2.5);
  EXPECT_DOUBLE_EQ(rates[2], 2.5);
}

TEST(MaxMinFairTest, DegradedLinkScalesShares) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 10e9);
  topo.SetLinkScale(l, 0.5);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path, &path});
  EXPECT_DOUBLE_EQ(rates[0], 2.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 2.5e9);
}

// Max-min certificate over random instances, checked without a second
// solver: (1) no link carries more than its capacity, and (2) every flow
// crosses a saturated link on which no flow has a higher rate (so no flow
// can speed up without slowing one that is no faster). Paths come from
// random Clos and torus routes; some cross a link twice, some links are
// degraded, and instances reach 512 flows.
TEST(MaxMinFairTest, RandomInstancesSatisfyMaxMinCertificate) {
  constexpr double kEps = 1e-9;
  Rng rng(20240617);
  for (int instance = 0; instance < 240; ++instance) {
    Topology topo;
    std::unique_ptr<TorusTopology> torus;
    std::unique_ptr<ClosTopology> clos;
    int nodes = 0;
    if (instance % 2 == 0) {
      const int ndims = 2 + static_cast<int>(rng.NextBounded(2));
      std::vector<int> dims;
      for (int d = 0; d < ndims; ++d) {
        dims.push_back(
            1 + static_cast<int>(rng.NextBounded(ndims == 2 ? 6 : 4)));
      }
      if (dims[0] == 1) dims[0] = 2;  // at least two nodes
      torus = std::make_unique<TorusTopology>(&topo, dims, 100e9);
      nodes = torus->num_nodes();
    } else {
      ClosTopology::Params params;
      params.hosts_per_leaf = 1 + static_cast<int>(rng.NextBounded(8));
      params.num_spines = 1 + static_cast<int>(rng.NextBounded(4));
      params.host_bandwidth = 10e9;
      params.oversubscription = rng.NextDouble(1.0, 4.0);
      clos = std::make_unique<ClosTopology>(&topo, params);
      nodes = 2 + static_cast<int>(rng.NextBounded(31));
      for (int h = 0; h < nodes; ++h) clos->AddHost();
    }
    for (std::size_t l = 0; l < topo.num_links(); ++l) {
      if (rng.NextBounded(8) == 0) {
        topo.SetLinkScale(static_cast<LinkIndex>(l), rng.NextDouble(0.05, 1.0));
      }
    }

    const int n = 1 + static_cast<int>(rng.NextBounded(512));
    std::vector<std::vector<LinkIndex>> paths;
    for (int f = 0; f < n; ++f) {
      const auto bound = static_cast<std::uint64_t>(nodes);
      const int src = static_cast<int>(rng.NextBounded(bound));
      int dst = static_cast<int>(rng.NextBounded(bound - 1));
      if (dst >= src) ++dst;
      std::vector<LinkIndex> path =
          torus ? torus->Path(src, dst) : clos->Path(src, dst);
      if (rng.NextBounded(8) == 0) {  // re-cross a prefix of the route
        const std::vector<LinkIndex> prefix(
            path.begin(),
            path.begin() + static_cast<long>(1 + rng.NextBounded(path.size())));
        path.insert(path.end(), prefix.begin(), prefix.end());
      }
      paths.push_back(std::move(path));
    }
    std::vector<const std::vector<LinkIndex>*> ptrs;
    for (const auto& p : paths) ptrs.push_back(&p);
    const std::vector<double> rates = MaxMinFairRates(topo, ptrs);
    ASSERT_EQ(rates.size(), paths.size());

    // Per-link load (a flow crossing a link twice loads it twice) and the
    // fastest flow on each link.
    std::vector<double> load(topo.num_links(), 0.0);
    std::vector<double> fastest(topo.num_links(), 0.0);
    for (int f = 0; f < n; ++f) {
      ASSERT_TRUE(std::isfinite(rates[f]) && rates[f] > 0)
          << "instance " << instance << " flow " << f;
      for (LinkIndex l : paths[f]) {
        load[l] += rates[f];
        fastest[l] = std::max(fastest[l], rates[f]);
      }
    }
    for (std::size_t l = 0; l < topo.num_links(); ++l) {
      const double cap = topo.EffectiveBandwidth(static_cast<LinkIndex>(l));
      ASSERT_LE(load[l], cap * (1 + kEps))
          << "instance " << instance << " link " << l;
    }
    for (int f = 0; f < n; ++f) {
      const bool bottlenecked = std::any_of(
          paths[f].begin(), paths[f].end(), [&](LinkIndex l) {
            return load[l] >= topo.EffectiveBandwidth(l) * (1 - kEps) &&
                   rates[f] >= fastest[l] * (1 - kEps);
          });
      ASSERT_TRUE(bottlenecked) << "instance " << instance << " flow " << f
                                << " has no saturated link it is fastest on";
    }
  }
}

// ----------------------------------------------------------- FlowNetwork --

TEST(FlowNetworkTest, UncontendedFlowMatchesLinkArithmetic) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double arrival_us = 0;
  net.StartFlow({l}, 10000, Duration::Micros(20),
                [&] { arrival_us = sim.now().ToMicros(); });
  sim.Run();
  // 10 KB at 1 GB/s = 10 us drain + 20 us latency, exactly like a Link.
  EXPECT_DOUBLE_EQ(arrival_us, 30.0);
  EXPECT_EQ(net.flows_completed(), 1);
}

TEST(FlowNetworkTest, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one link take 2x; after the first finishes, a third
  // joining flow gets the whole link. Checks the recompute-at-finish path.
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  std::vector<double> arrivals;
  auto record = [&] { arrivals.push_back(sim.now().ToMicros()); };
  net.StartFlow({l}, 10000, Duration::Zero(), record);
  net.StartFlow({l}, 10000, Duration::Zero(), record);
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Both share 0.5 GB/s for the full 10 KB: 20 us each.
  EXPECT_NEAR(arrivals[0], 20.0, 0.01);
  EXPECT_NEAR(arrivals[1], 20.0, 0.01);
}

TEST(FlowNetworkTest, BurstOfStartsCoalescesIntoOneSolve) {
  // 64 flows started from one event share one solve. 32 x 1 KB and 32 x
  // 3 KB on a 1 GB/s link: all 64 run at 1/64 GB/s until the small ones
  // drain (64 us); the 32 survivors then run at 1/32 GB/s over their last
  // 2 KB (64 us more).
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  std::vector<double> small_us, large_us;
  sim.Schedule(Duration::Micros(5), [&] {
    for (int i = 0; i < 64; ++i) {
      const bool small = i % 2 == 0;
      net.StartFlow({l}, small ? 1000 : 3000, Duration::Zero(), [&, small] {
        (small ? small_us : large_us).push_back(sim.now().ToMicros());
      });
    }
  });
  sim.RunUntil(TimePoint() + Duration::Micros(5));
  EXPECT_EQ(net.active_flows(), 64);
  EXPECT_EQ(net.solves(), 1);
  EXPECT_DOUBLE_EQ(net.Rate(0), 1e9 / 64);
  sim.Run();
  ASSERT_EQ(small_us.size(), 32u);
  ASSERT_EQ(large_us.size(), 32u);
  for (double t : small_us) EXPECT_NEAR(t, 5.0 + 64.0, 0.01);
  for (double t : large_us) EXPECT_NEAR(t, 5.0 + 128.0, 0.01);
  EXPECT_EQ(net.solves(), 2);  // plus the re-share when the small ones left
}

TEST(FlowNetworkTest, LateJoinerSlowsInFlight) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double first_us = 0, second_us = 0;
  net.StartFlow({l}, 20000, Duration::Zero(),
                [&] { first_us = sim.now().ToMicros(); });
  sim.Schedule(Duration::Micros(10), [&] {
    net.StartFlow({l}, 20000, Duration::Zero(),
                  [&] { second_us = sim.now().ToMicros(); });
  });
  sim.Run();
  // Flow 1 runs alone for 10 us (10 KB done), then shares: remaining 10 KB
  // at 0.5 GB/s = 20 us more -> 30 us. Flow 2: 10 KB shared (20 us) + last
  // 10 KB alone (10 us) -> 40 us.
  EXPECT_NEAR(first_us, 30.0, 0.01);
  EXPECT_NEAR(second_us, 40.0, 0.01);
}

TEST(FlowNetworkTest, CapacityChangeReshapesActiveFlows) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double arrival_us = 0;
  net.StartFlow({l}, 20000, Duration::Zero(),
                [&] { arrival_us = sim.now().ToMicros(); });
  sim.Schedule(Duration::Micros(10), [&] {
    topo.SetLinkScale(l, 0.5);  // NIC degrade mid-flight
    net.OnCapacityChanged();
  });
  sim.Run();
  // 10 KB at full rate (10 us), remaining 10 KB at 0.5 GB/s (20 us).
  EXPECT_NEAR(arrival_us, 30.0, 0.01);
}

TEST(FlowNetworkTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulator sim;
    Topology topo;
    TorusTopology torus(&topo, {4, 4}, 1e9);
    FlowNetwork net(&sim, &topo);
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 16; ++i) {
      net.StartFlow(torus.Path(i, (i * 7 + 3) % 16), 10000 + 137 * i,
                    Duration::Micros(1),
                    [&arrivals, &sim] { arrivals.push_back(sim.now().nanos()); });
    }
    sim.Run();
    return arrivals;
  };
  EXPECT_EQ(run(), run());  // bit-identical completion schedule
}

// ------------------------------------------------------------ DCN incast --

TEST(DcnFlowTest, UncontendedClosMatchesAbstractFabric) {
  // A single cross-leaf message on a non-blocking (R=1) Clos must arrive at
  // the same time the abstract per-NIC fabric predicts: NIC serialization
  // is the bottleneck on an idle network.
  DcnParams params;
  params.latency = Duration::Micros(20);
  params.nic_bandwidth = 10e9;
  params.per_message_header = 0;
  auto run = [&](bool clos) {
    DcnParams p = params;
    p.clos.enabled = clos;
    p.clos.hosts_per_leaf = 2;
    p.clos.num_spines = 2;
    p.clos.oversubscription = 1.0;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 4; ++h) dcn.AddHost(HostId(h));
    std::int64_t arrival = 0;
    dcn.Send(HostId(0), HostId(3), 1 << 20, [&] { arrival = sim.now().nanos(); });
    sim.Run();
    return arrival;
  };
  const std::int64_t abstract_ns = run(false);
  const std::int64_t flow_ns = run(true);
  EXPECT_NEAR(static_cast<double>(flow_ns), static_cast<double>(abstract_ns),
              2.0);  // integer-ns ceiling is the only divergence allowed
}

TEST(DcnFlowTest, IncastContendsOnDestinationDownlink) {
  // 4 senders -> 1 receiver. The abstract fabric lets all four NICs
  // serialize in parallel (arrival ~= one message time); the flow fabric
  // shares the receiver's access link, taking ~4x. This is the first-class
  // incast effect the scalar model cannot express.
  auto run = [&](bool clos) {
    DcnParams p;
    p.latency = Duration::Micros(20);
    p.nic_bandwidth = 10e9;
    p.per_message_header = 0;
    p.clos.enabled = clos;
    p.clos.hosts_per_leaf = 8;
    p.clos.num_spines = 4;
    p.clos.oversubscription = 1.0;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 5; ++h) dcn.AddHost(HostId(h));
    std::int64_t last = 0;
    int landed = 0;
    for (int s = 1; s <= 4; ++s) {
      dcn.Send(HostId(s), HostId(0), MiB(8), [&] {
        ++landed;
        last = sim.now().nanos();
      });
    }
    sim.Run();
    EXPECT_EQ(landed, 4);
    return last;
  };
  const double abstract_ms = static_cast<double>(run(false)) / 1e6;
  const double flow_ms = static_cast<double>(run(true)) / 1e6;
  EXPECT_NEAR(flow_ms, 4.0 * abstract_ms, 0.1 * abstract_ms);
}

TEST(DcnFlowTest, OversubscriptionThrottlesCrossLeafShuffle) {
  // Each of 4 hosts on leaf 0 streams to its counterpart on leaf 1. At
  // R=1 every flow runs at NIC rate; at R=4 the leaf uplinks throttle the
  // shuffle by ~4x.
  auto run = [&](double oversub) {
    DcnParams p;
    p.latency = Duration::Micros(20);
    p.nic_bandwidth = 10e9;
    p.per_message_header = 0;
    p.clos.enabled = true;
    p.clos.hosts_per_leaf = 4;
    p.clos.num_spines = 2;
    p.clos.oversubscription = oversub;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 8; ++h) dcn.AddHost(HostId(h));
    std::int64_t last = 0;
    for (int s = 0; s < 4; ++s) {
      dcn.Send(HostId(s), HostId(4 + s), MiB(8), [&] { last = sim.now().nanos(); });
    }
    sim.Run();
    return static_cast<double>(last);
  };
  const double r1 = run(1.0);
  const double r4 = run(4.0);
  EXPECT_GT(r4, 3.0 * r1);
  EXPECT_LT(r4, 5.0 * r1);
}

TEST(DcnFlowTest, NicDegradeScalesOneEdgeOnly) {
  // Degrading host 1's NIC slows flows crossing it; host 2's traffic to a
  // different destination is untouched — the scalar model would have had no
  // edge to scale.
  DcnParams p;
  p.latency = Duration::Micros(20);
  p.nic_bandwidth = 10e9;
  p.per_message_header = 0;
  p.clos.enabled = true;
  p.clos.hosts_per_leaf = 4;
  p.clos.num_spines = 2;
  p.clos.oversubscription = 1.0;
  sim::Simulator sim;
  DcnFabric dcn(&sim, p);
  for (int h = 0; h < 4; ++h) dcn.AddHost(HostId(h));
  dcn.SetNicBandwidthScale(HostId(1), 0.25);
  std::int64_t degraded = 0, clean = 0;
  dcn.Send(HostId(1), HostId(3), MiB(8), [&] { degraded = sim.now().nanos(); });
  dcn.Send(HostId(2), HostId(0), MiB(8), [&] { clean = sim.now().nanos(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(degraded), 4.0 * static_cast<double>(clean),
              0.05 * static_cast<double>(degraded));
}

// -------------------------------------------------- FlowCollectiveModel --

TEST(FlowCollectiveModelTest, UncontendedRingMatchesAnalyticLargePayload) {
  // On a full torus the snake ring is single-hop and link-disjoint, so for
  // bandwidth-dominated payloads the flow decomposition must agree with the
  // analytic 2(n-1)/n * B/bw formula within the latency-term slack.
  CollectiveParams params;
  params.hop_latency = Duration::Micros(1);
  params.link_bandwidth = 100e9;
  params.launch_overhead = Duration::Micros(2);
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel flow_model(params, &topo, &torus);
  CollectiveModel analytic(params);
  for (Bytes b : {MiB(64), MiB(256), GiB(1)}) {
    const double flow_ms = flow_model.AllReduce(b, 16).ToMillis();
    const double analytic_ms = analytic.AllReduce(b, 16).ToMillis();
    EXPECT_NEAR(flow_ms, analytic_ms, 0.05 * analytic_ms)
        << "bytes=" << b;
  }
}

TEST(FlowCollectiveModelTest, SizeBasedRingVsTreeChoice) {
  CollectiveParams params;
  params.hop_latency = Duration::Micros(1);
  params.link_bandwidth = 100e9;
  params.launch_overhead = Duration::Zero();
  Topology topo;
  TorusTopology torus(&topo, {8, 8}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  // Tiny payload: tree (2*log2(64)=12 rounds) beats ring (2*63 steps).
  EXPECT_LT(m.TreeTime(CollectiveKind::kAllReduce, 4, 64).nanos(),
            m.RingTime(CollectiveKind::kAllReduce, 4, 64).nanos());
  EXPECT_EQ(m.Time(CollectiveKind::kAllReduce, 4, 64).nanos(),
            m.TreeTime(CollectiveKind::kAllReduce, 4, 64).nanos());
  // Huge payload: bandwidth-optimal ring wins.
  EXPECT_LT(m.RingTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos(),
            m.TreeTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos());
  EXPECT_EQ(m.Time(CollectiveKind::kAllReduce, GiB(1), 64).nanos(),
            m.RingTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos());
}

TEST(FlowCollectiveModelTest, DegradedIciLinkRepricesCollectives) {
  CollectiveParams params;
  params.link_bandwidth = 100e9;
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  const Duration healthy = m.AllReduce(MiB(256), 16);
  const Duration healthy_ring = m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16);
  // Degrade one ring edge to 10%: every ring step now waits on it, so the
  // ring schedule reprices ~10x ...
  topo.SetLinkScale(torus.LinkFrom(0, 1, true), 0.1);
  const Duration degraded_ring = m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16);
  EXPECT_GT(degraded_ring.nanos(), 8 * healthy_ring.nanos());
  // ... and the end-to-end price rises, but less than the naive 10x: the
  // size-based choice falls back to the tree schedule, which mostly avoids
  // the bad edge. Exactly the adaptivity a scalar model cannot express.
  const Duration degraded = m.AllReduce(MiB(256), 16);
  EXPECT_GT(degraded.nanos(), 3 * healthy.nanos());
  EXPECT_LT(degraded.nanos(),
            m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16).nanos());
  // Restoring the link restores the price (cache invalidates by generation).
  topo.SetLinkScale(torus.LinkFrom(0, 1, true), 1.0);
  EXPECT_EQ(m.AllReduce(MiB(256), 16).nanos(), healthy.nanos());
}

TEST(FlowCollectiveModelTest, SubsetGangsAndMonotonicity) {
  CollectiveParams params;
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  // Gangs smaller than the torus still price (snake-prefix ring + closing
  // path), and time grows with payload.
  for (int n : {2, 3, 5, 7, 12, 16}) {
    Duration prev = Duration::Zero();
    for (Bytes b : {Bytes{4}, KiB(64), MiB(1), MiB(64)}) {
      const Duration t = m.AllReduce(b, n);
      EXPECT_GE(t.nanos(), prev.nanos()) << "n=" << n << " bytes=" << b;
      prev = t;
    }
  }
}

TEST(FlowCollectiveModelTest, RingAndTreeTimeRejectGangsWithoutSchedule) {
  CollectiveParams params;
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  const auto kind = CollectiveKind::kAllReduce;
  EXPECT_DEATH(m.RingTime(kind, MiB(1), 1), "n=1, torus has 16 nodes");
  EXPECT_DEATH(m.TreeTime(kind, MiB(1), 1), "n=1, torus has 16 nodes");
  EXPECT_DEATH(m.RingTime(kind, MiB(1), 17), "n=17, torus has 16 nodes");
  EXPECT_DEATH(m.TreeTime(kind, MiB(1), 17), "n=17, torus has 16 nodes");
}

// ----------------------------------------------------- Island flow mode --

TEST(IslandFlowTest, FlowIciTransfersAndCollectivesWork) {
  sim::Simulator sim;
  hw::SystemParams params;
  params.ici_flow.enabled = true;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);  // 16 devices
  auto flow_cluster = std::make_unique<hw::Cluster>(&sim, params, 1, 2, 8);
  hw::Island& island = flow_cluster->island(0);
  ASSERT_NE(island.ici_topology(), nullptr);
  ASSERT_NE(island.ici_torus(), nullptr);
  EXPECT_EQ(island.ici_torus()->num_nodes(), 16);
  // Point-to-point transfer over the torus completes.
  bool landed = false;
  island.Transfer(hw::DeviceId(0), hw::DeviceId(5), MiB(1)).Then([&](sim::Unit) {
    landed = true;
  });
  sim.Run();
  EXPECT_TRUE(landed);
  EXPECT_GT(island.ici_bytes_transferred(), 0);
  // The collective model is the flow-backed one and stays callable through
  // the CollectiveModel interface.
  const Duration t = island.collectives().Time(CollectiveKind::kAllReduce,
                                               MiB(64), 16);
  EXPECT_GT(t.nanos(), 0);
}

TEST(IslandFlowTest, DefaultModeHasNoFlowState) {
  sim::Simulator sim;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);
  EXPECT_EQ(cluster->island(0).ici_topology(), nullptr);
  EXPECT_EQ(cluster->island(0).ici_flow_network(), nullptr);
}

}  // namespace
}  // namespace pw::net

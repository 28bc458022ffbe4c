// Datacenter-network fabric connecting hosts (and islands).
//
// Two fidelity levels share one API (docs/NETWORK.md):
//   * Abstract (default): each host owns a NIC whose egress is a
//     serializing Link; messages between hosts pay NIC serialization +
//     fabric latency (an order of magnitude above PCIe, per the paper §2).
//     No topology, no contention beyond the sender's own NIC.
//   * Flow-level Clos (DcnParams::clos.enabled): hosts hang off a two-tier
//     leaf/spine Clos (net/topology.h) and every message becomes a fluid
//     flow (net/flow.h) over its real host→leaf→spine→leaf→host path.
//     Uplink oversubscription and incast at the destination's access link
//     are first-class; a NIC-degrade fault scales that host's access
//     edges, and a partition cuts real paths.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strong_id.h"
#include "common/units.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace pw::net {

struct HostTag {};
using HostId = StrongId<HostTag>;

// Opt-in flow-level DCN. Defaults off: the abstract per-NIC fabric stays in
// effect and runs are bit-identical to builds without the flow engine.
struct DcnClosParams {
  bool enabled = false;
  int hosts_per_leaf = 8;
  int num_spines = 4;
  // Target uplink oversubscription R = (hosts_per_leaf * nic_bandwidth) /
  // (num_spines * spine_bandwidth); the per-uplink bandwidth is derived.
  // R = 1 is non-blocking; R > 1 makes cross-leaf traffic contend.
  double oversubscription = 1.0;
};

struct DcnParams {
  Duration latency = Duration::Micros(20);       // one-way fabric latency
  double nic_bandwidth = 12.5e9;                 // bytes/sec per host NIC
  Bytes per_message_header = 128;                // framing overhead per message
  DcnClosParams clos;                            // flow-level mode knobs
};

class DcnFabric {
 public:
  // Returned by Send() when the message was held by a partition: delivery
  // time is unknowable until the heal, so no usable estimate exists.
  // Callers must branch on it before scheduling anything (ScheduleAt on it
  // dies on the far-future check). Audit note: every in-tree caller drives
  // off on_delivered and ignores the return, which is why the sentinel is
  // safe to introduce.
  static constexpr TimePoint kHeldSentinel = TimePoint::Max();

  DcnFabric(sim::Simulator* sim, DcnParams params);
  ~DcnFabric();

  DcnFabric(const DcnFabric&) = delete;
  DcnFabric& operator=(const DcnFabric&) = delete;

  // Registers a host endpoint; must be called before sending to/from it.
  void AddHost(HostId host);
  bool HasHost(HostId host) const { return nics_.contains(host); }

  // Sends `bytes` from src to dst; on_delivered runs at arrival. Local
  // (src == dst) messages are delivered after a loopback cost only. If
  // either endpoint is partitioned the message is held (FIFO, per
  // partitioned host) and re-submitted when that host heals; the call then
  // returns kHeldSentinel — there is no meaningful delivery estimate, and
  // callers must not schedule on it. Held messages still count toward
  // messages_sent()/bytes_sent() at submission time — traffic telemetry
  // attributes load to when it was offered, not to the heal-time replay
  // burst (held_bytes() exposes the in-limbo amount separately).
  TimePoint Send(HostId src, HostId dst, Bytes bytes,
                 std::function<void()> on_delivered);

  sim::SimFuture<sim::Unit> SendAsync(HostId src, HostId dst, Bytes bytes);

  // --- Fault-injection knobs (see docs/FAULTS.md) ---
  // Scales one host's NIC egress bandwidth (congestion injection). 1.0
  // restores nominal; the scale applies to transfers started after the call.
  void SetNicBandwidthScale(HostId host, double scale);
  double nic_bandwidth_scale(HostId host) const;
  // Partitions a host off the fabric: messages from or to it are held and
  // replayed (in original send order) when the partition heals. Messages
  // already serialized onto the wire still deliver — a partition cuts the
  // fabric, it does not un-send packets.
  void SetPartitioned(HostId host, bool partitioned);
  bool partitioned(HostId host) const { return partitioned_.contains(host); }
  std::size_t messages_held() const;
  // Payload bytes currently parked in partition hold queues (already
  // counted in bytes_sent(); they leave this number when the heal replays
  // them onto the wire).
  Bytes held_bytes() const;

  const DcnParams& params() const { return params_; }

  std::int64_t messages_sent() const { return messages_; }
  Bytes bytes_sent() const { return bytes_; }

  // Flow-level mode introspection (null/empty when clos.enabled is false).
  bool flow_mode() const { return flow_ != nullptr; }
  const ClosTopology* clos() const { return clos_.get(); }
  const FlowNetwork* flow_network() const { return flow_.get(); }

 private:
  struct HeldMessage {
    HostId src;
    HostId dst;
    Bytes bytes;
    std::function<void()> on_delivered;
    // Fabric-wide submission stamp, assigned when the message is first
    // held. The heal replays each queue in stamp order, and a message
    // re-held on its peer's queue keeps its stamp and is inserted in stamp
    // position — not appended behind later traffic — so the documented
    // "original send order" FIFO holds across dual partitions.
    std::uint64_t seq = 0;
  };
  // Route()'s replay_seq value for fresh submissions (not a replay).
  static constexpr std::uint64_t kFreshSend = ~std::uint64_t{0};

  // Send() minus the counting: used for heal-time replay, whose messages
  // were already counted when first submitted. `replay_seq` carries a held
  // message's original stamp through re-holds; kFreshSend for new traffic.
  TimePoint Route(HostId src, HostId dst, Bytes bytes,
                  std::function<void()> on_delivered, std::uint64_t replay_seq);

  // Puts the message on `queue` in stamp order (O(1) for fresh sends, which
  // always carry the highest stamp so far).
  void Hold(std::vector<HeldMessage>* queue, HeldMessage m);

  sim::Simulator* sim_;
  DcnParams params_;
  std::map<HostId, std::unique_ptr<Link>> nics_;
  // Flow-level mode (params_.clos.enabled): the Clos link graph and the
  // fair-share engine every message routes through. Null in abstract mode.
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<ClosTopology> clos_;
  std::unique_ptr<FlowNetwork> flow_;
  std::map<HostId, int> clos_index_;
  // Hosts currently cut off, each with the FIFO of messages waiting on its
  // heal. A message blocked on both endpoints waits on the src's queue and
  // re-checks the dst when replayed.
  std::map<HostId, std::vector<HeldMessage>> partitioned_;
  std::uint64_t next_hold_seq_ = 0;
  std::int64_t messages_ = 0;
  Bytes bytes_ = 0;
};

}  // namespace pw::net

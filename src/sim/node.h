// Simulation nodes: hosts and switches, plus the multipath-policy interface
// implemented by routing/ (ECMP, WCMP, UCMP, RedTE) and core/ (LCMP).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/packet.h"
#include "sim/path_table.h"
#include "sim/pfc.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "topo/graph.h"

namespace lcmp {

class IntStackPool;

class Node {
 public:
  enum class Kind : uint8_t { kHost, kSwitch };

  Node(Simulator* sim, NodeId id, Kind kind, DcId dc, uint64_t rng_seed)
      : sim_(sim), id_(id), kind_(kind), dc_(dc), rng_(rng_seed) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  virtual void Receive(Packet pkt, PortIndex in_port) = 0;

  // Adds an egress port; returns its index.
  PortIndex AddPort(const PortConfig& config, int graph_link_idx);

  Port& port(PortIndex idx) { return *ports_[static_cast<size_t>(idx)]; }
  const Port& port(PortIndex idx) const { return *ports_[static_cast<size_t>(idx)]; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  Simulator& sim() { return *sim_; }
  NodeId id() const { return id_; }
  Kind kind() const { return kind_; }
  DcId dc() const { return dc_; }

  // INT side-buffer pool (owned by the Network; null when telemetry is off
  // and in port-level unit tests that never stamp INT).
  void SetIntPool(IntStackPool* pool) { int_pool_ = pool; }
  IntStackPool* int_pool() const { return int_pool_; }

 protected:
  // Releases `pkt`'s INT side-buffer when this node terminates the packet.
  void ReleaseIntStack(Packet& pkt);

  Simulator* sim_;
  NodeId id_;
  Kind kind_;
  DcId dc_;
  Rng rng_;
  IntStackPool* int_pool_ = nullptr;
  std::vector<std::unique_ptr<Port>> ports_;
};

// Salt for the per-flow path-layer hash (FatPaths-style layered routing).
// Deliberately NOT combined with the switch id: every hop must agree on a
// flow's layer or mixed-layer forwarding could loop.
inline constexpr uint64_t kPathLayerSalt = 0xfa7b0a7b5ULL;

// One candidate egress at a DCI switch toward a destination DC, annotated
// with the control-plane path attributes LCMP's C_path consumes.
struct PathCandidate {
  PortIndex port = kInvalidPort;
  NodeId next_hop = kInvalidNode;
  TimeNs path_delay_ns = 0;    // residual one-way propagation delay
  int64_t bottleneck_bps = 0;  // residual bottleneck capacity
  int graph_link_idx = -1;     // first-hop link (for stats/debug)
};

class SwitchNode;

// Per-switch multipath decision engine. One instance is created per DCI
// switch, so implementations may keep per-switch state (flow caches, split
// ratios, congestion registers).
class MultipathPolicy {
 public:
  virtual ~MultipathPolicy() = default;

  // Chooses the egress port for `pkt` among `candidates` (all inter-DC ports
  // toward pkt's destination DC). Called for *every* inter-DC packet; sticky
  // policies consult their own flow state. Must return a valid candidate
  // port or kInvalidPort to drop.
  virtual PortIndex SelectPort(SwitchNode& sw, const Packet& pkt,
                               std::span<const PathCandidate> candidates) = 0;

  // Interval for OnTick; 0 disables the tick.
  virtual TimeNs tick_interval() const { return 0; }
  // Periodic hook (congestion sampling, control loops, garbage collection).
  virtual void OnTick(SwitchNode& /*sw*/) {}

  virtual const char* name() const = 0;
};

using PolicyFactory = std::function<std::unique_ptr<MultipathPolicy>(SwitchNode&)>;

class SwitchNode : public Node {
 public:
  SwitchNode(Simulator* sim, NodeId id, DcId dc, bool is_dci, uint64_t rng_seed)
      : Node(sim, id, Kind::kSwitch, dc, rng_seed), is_dci_(is_dci) {}

  void Receive(Packet pkt, PortIndex in_port) override;

  bool is_dci() const { return is_dci_; }

  // --- wiring performed by Network ---
  void SetDcOfNode(const std::vector<DcId>* dc_of_node) { dc_of_node_ = dc_of_node; }
  // Compact intra-DC forwarding table: `local_index` (Network-owned) maps a
  // global node id to its dense index within this switch's DC; `offsets`
  // (num-local-nodes + 1 entries) and `ports` form a CSR over the equal-cost
  // egress port sets.
  void SetStaticTable(const std::vector<int32_t>* local_index, std::vector<int32_t> offsets,
                      std::vector<PortIndex> ports) {
    static_local_index_ = local_index;
    static_offsets_ = std::move(offsets);
    static_ports_ = std::move(ports);
  }
  void SetLocalDci(NodeId dci) { local_dci_ = dci; }
  // Installs the (layer, dst DC) candidate table backed by the Network's
  // shared PathTableArena.
  void SetPathTable(SwitchPathTable table) { path_table_ = std::move(table); }
  void SetPolicy(std::unique_ptr<MultipathPolicy> policy) { policy_ = std::move(policy); }

  MultipathPolicy* policy() { return policy_.get(); }

  // Enables hop-by-hop PFC on this switch (must be called after all ports
  // exist; installs dequeue hooks on every egress).
  void EnablePfc(const PfcConfig& config);
  PfcController* pfc() { return pfc_.get(); }

  // Destination datacenter of a packet (policies group state per dst DC).
  DcId DstDcOf(const Packet& pkt) const {
    return (*dc_of_node_)[static_cast<size_t>(pkt.dst)];
  }
  // Total number of DCs known to this switch's candidate table.
  int NumDcs() const { return path_table_.num_dcs(); }
  // Path layers in the candidate table (1 = plain downhill routing).
  int num_path_layers() const { return path_table_.num_layers(); }
  // Layer the most recent ResolveEgress pinned the current packet's flow to;
  // layer-aware policies (LCMP's C_path tables) key their state on it.
  int current_path_layer() const { return current_path_layer_; }

  std::span<const PathCandidate> CandidatesTo(DcId dst_dc, int layer = 0) const {
    return path_table_.Get(dst_dc, layer);
  }

  int64_t forwarded_packets() const { return forwarded_packets_; }
  int64_t dropped_no_route() const { return dropped_no_route_; }
  // Packets dropped because they exceeded kMaxForwardHops switch traversals.
  // Nonzero means a routing loop — the fault-injection invariant monitor
  // treats any increment as a hard violation.
  int64_t ttl_exhausted_drops() const { return ttl_exhausted_drops_; }

 private:
  PortIndex ResolveEgress(const Packet& pkt);
  PortIndex PickStatic(const Packet& pkt, NodeId toward);

  bool is_dci_;
  const std::vector<DcId>* dc_of_node_ = nullptr;
  // Intra-DC forwarding in CSR form over the DC-local node index: the
  // equal-cost egress ports toward local node `lo` are
  // static_ports_[static_offsets_[lo] .. static_offsets_[lo + 1]).
  const std::vector<int32_t>* static_local_index_ = nullptr;
  std::vector<int32_t> static_offsets_;
  std::vector<PortIndex> static_ports_;
  NodeId local_dci_ = kInvalidNode;
  // (layer, dst DC) -> interned DCI-level multipath candidates.
  SwitchPathTable path_table_;
  int current_path_layer_ = 0;
  std::unique_ptr<MultipathPolicy> policy_;
  std::unique_ptr<PfcController> pfc_;

  int64_t forwarded_packets_ = 0;
  int64_t dropped_no_route_ = 0;
  int64_t ttl_exhausted_drops_ = 0;
};

class HostNode : public Node {
 public:
  using PacketSink = std::function<void(Packet pkt)>;

  HostNode(Simulator* sim, NodeId id, DcId dc, uint64_t rng_seed)
      : Node(sim, id, Kind::kHost, dc, rng_seed) {}

  void Receive(Packet pkt, PortIndex in_port) override;

  // Registers the transport-layer receive handler.
  void SetSink(PacketSink sink) { sink_ = std::move(sink); }

  // Transmits a packet out of the host NIC (port 0).
  void Send(Packet pkt);

 private:
  PacketSink sink_;
};

}  // namespace lcmp

// RDMA transport model: per-flow rate-paced senders with cumulative ACKs,
// NACK-triggered Go-Back-N (commodity RNICs treat out-of-order arrival as
// loss, Sec. 7.5), receiver-side CNP generation for DCQCN, and retransmission
// timeouts as the last-resort recovery (needed for link-failure experiments).
//
// One RdmaTransport instance manages every host in the network: it registers
// itself as each HostNode's packet sink and keeps per-flow sender/receiver
// state keyed by flow id.
// Sharded runs (DESIGN.md §12) share ONE transport across shard worker
// threads; the state is partitioned by construction rather than by locks.
// Sender state is touched only by events homed on the flow's source shard
// (pacing, RTO scans, and ACK/NACK/CNP handling all execute on the source
// host); receiver state only by the destination shard (DATA delivery). The
// per-flow map entries are pre-registered during single-threaded setup and
// never erased at runtime, so concurrent find() never races a rehash.
// Process-wide tallies are relaxed atomics (totals are deterministic; only
// the interleaving isn't), and a completing flow reads the sender's
// setup-written fields across shards only after at least one cross-shard
// packet handoff — whose channel + barrier ordering publishes them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "sim/network.h"
#include "topo/candidate_paths.h"
#include "transport/cc/cc_registry.h"
#include "transport/cc/segmented_cc.h"
#include "transport/flow.h"
#include "transport/reliability.h"
#include "transport/seq_window.h"

namespace lcmp {

struct TransportConfig {
  uint32_t mtu_payload = kDefaultMtuPayload;

  // Segment-split congestion control (DESIGN.md §14): which registry token
  // runs on the long-haul and end-fabric segments, plus per-segment tuning
  // bundles. A uniform spec (inter == intra, the default) instantiates one
  // controller end to end — the legacy behavior, bit for bit; a split spec
  // builds the SegmentedCc composite for cross-DC flows.
  SegmentCcSpec cc;
  CcTuning cc_inter;
  CcTuning cc_intra;
  // Receiver-side DCQCN CNP pacing.
  TimeNs cnp_interval = Microseconds(50);
  // Minimum spacing of duplicate NACKs per flow.
  TimeNs nack_min_interval = Microseconds(100);
  // Retransmission timeout: starts at max(rto_initial, rto_rtt_multiplier *
  // base_rtt) and adapts to rto_rtt_multiplier * SRTT once ACKs measure the
  // actual path (the chosen route may be far slower than the minimum-delay
  // path the base RTT is computed from).
  TimeNs rto_min = Milliseconds(1);
  TimeNs rto_initial = Seconds(2);
  int rto_rtt_multiplier = 3;
  // NIC backpressure: pacing stalls while the host egress backlog exceeds
  // this (RNICs arbitrate QPs instead of dropping their own traffic).
  int64_t host_backlog_bytes = 256 * 1024;
  // Bounded in-flight window: pacing stalls once the unacked byte count
  // reaches this cap and resumes ACK-clocked (real RNICs bound outstanding
  // WQEs). 0 = unbounded — the legacy open-loop sender, which transmits any
  // sub-BDP flow in full before the first feedback arrives and therefore
  // never lets the congestion controller shape it. The incast /
  // oversubscription scenario family runs windowed so the inter-DC CC choice
  // is observable (DESIGN.md §14).
  int64_t max_inflight_bytes = 0;

  // Loss/reorder recovery scheme (transport/reliability.h, DESIGN.md §15).
  // kGoBackN reproduces commodity RNICs (OOO arrival == loss, rewind to the
  // hole); kIrn is selective repeat: the receiver tracks out-of-order
  // segments in a fixed bitmap window, NACKs carry SACK-style
  // [hole_start, hole_end) ranges, and the sender retransmits exactly the
  // missing segments through a paced retransmit queue. IRN enables
  // flowlet/per-packet steering and lossy long-haul links without the
  // throughput collapse Go-Back-N suffers on reordering.
  ReliabilityMode reliability = ReliabilityMode::kGoBackN;
  // Receiver OOO window / sender retransmit window, in segments (rounded up
  // to a power of two). Segments beyond the window are dropped and re-sent
  // on a later NACK or RTO.
  int ooo_window_segments = 2048;
};

class RdmaTransport {
 public:
  using CompletionFn = std::function<void(const FlowRecord&)>;

  RdmaTransport(Network* net, const TransportConfig& config, CompletionFn on_complete);

  RdmaTransport(const RdmaTransport&) = delete;
  RdmaTransport& operator=(const RdmaTransport&) = delete;

  // Begins transmitting `spec` at the current simulation time.
  void StartFlow(const FlowSpec& spec);

  // Schedules StartFlow at spec.start_time (must be >= now) on the source
  // host's home shard. Also pre-registers the flow's sender/receiver map
  // entries and warms the path-metric cache, so sharded runs perform no
  // shared-map mutation after setup.
  void ScheduleFlow(const FlowSpec& spec);

  // --- statistics ---
  int active_senders() const {
    int n = 0;
    for (const auto& [id, s] : senders_) {
      n += (s.started && !s.done) ? 1 : 0;
    }
    return n;
  }
  int64_t completed_flows() const { return completed_flows_.load(std::memory_order_relaxed); }
  int64_t data_packets_sent() const { return data_packets_sent_.load(std::memory_order_relaxed); }
  int64_t retransmitted_packets() const {
    return retransmitted_packets_.load(std::memory_order_relaxed);
  }
  int64_t nacks_received() const { return nacks_.load(std::memory_order_relaxed); }
  int64_t cnps_received() const { return cnps_.load(std::memory_order_relaxed); }
  int64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  const SegmentCcSpec& cc_spec() const { return config_.cc; }

  // Test hook: the controller driving `flow`, nullptr for unknown flows.
  // For split cross-DC flows this is the SegmentedCc composite.
  const CongestionControl* flow_cc(FlowId flow) const {
    const auto it = senders_.find(flow);
    return it != senders_.end() ? it->second.cc.get() : nullptr;
  }

 private:
  struct Sender {
    FlowSpec spec;
    std::unique_ptr<CongestionControl> cc;
    // Non-null iff `cc` is the SegmentedCc composite (avoids a per-ACK
    // dynamic_cast when exporting the per-segment rate gauges).
    SegmentedCc* segmented = nullptr;
    uint32_t total_packets = 0;
    uint32_t next_seq = 0;   // next segment to transmit
    uint32_t acked = 0;      // cumulative segments acknowledged
    TimeNs start_time = 0;
    TimeNs base_rtt = 0;
    TimeNs srtt = 0;  // smoothed measured RTT; 0 until the first sample
    TimeNs rto = 0;
    TimeNs last_progress = 0;
    bool started = false;  // registered at setup; StartFlow fired at runtime
    bool pacing_active = false;
    bool done = false;
    // Mutated on the source shard, sampled on the destination shard at
    // completion; atomic for race-freedom, and kept out of the digest.
    std::atomic<uint32_t> retransmits{0};
    // Recurring RTO scan: one stored callable for the flow's lifetime; the
    // period follows the adaptive `rto` via Simulator::SetTimerInterval.
    Simulator::TimerId rto_timer = Simulator::kInvalidTimer;
    uint32_t acked_at_last_rto = 0;  // progress snapshot at the last scan
    // IRN only: pending selective retransmits (base tracks `acked`). Sized
    // at registration; retransmissions drain through PaceNext at the CC
    // rate, ahead of new data.
    SeqWindow rtx;
    // Retransmit-epoch guard: the last NACK hole start honored and when.
    // Duplicate requests for the same hole within one RTT are suppressed —
    // in both modes (a Go-Back-N rewind re-sends a full window; repeating it
    // per duplicate NACK multiplies the blast).
    uint32_t rtx_epoch_lo = UINT32_MAX;
    uint32_t rtx_epoch_hi = 0;  // IRN: high-water of ranges requested this epoch
    TimeNs rtx_epoch_time = -Seconds(1);
  };
  struct Receiver {
    uint32_t expected_seq = 0;
    uint64_t received_bytes = 0;
    TimeNs last_cnp = -Seconds(1);
    TimeNs last_nack = -Seconds(1);
    bool finished = false;  // completed; absorbs stragglers/duplicates
    // IRN only: buffered out-of-order segments beyond expected_seq, as a
    // fixed ring bitmap (base tracks expected_seq). Replaces the former
    // std::set tracker that heap-allocated per buffered segment.
    SeqWindow ooo;
    // IRN only: one past the highest segment discarded on window overflow
    // (open-loop senders can outrun the bitmap). While expected_seq is below
    // this mark the discarded tail is known-missing, and the in-order path
    // keeps NACKing it; without the mark an overflowed-then-drained window
    // degrades to one RTO probe per missing segment.
    uint32_t ooo_overflow_hi = 0;
  };

  // HandleData/HandleAck take the packet by mutable reference: they assume
  // ownership of its INT side-buffer handle (transferring it onto the ACK or
  // releasing it back to the network's pool).
  void OnHostReceive(NodeId host, Packet pkt);
  void HandleData(NodeId host, Packet& pkt);
  void HandleAck(Packet& pkt);
  void HandleNack(const Packet& pkt);
  void HandleCnp(const Packet& pkt);

  void RegisterFlow(const FlowSpec& spec);
  // Instantiates the flow's controller from config_.cc: one plain algorithm
  // for uniform specs and intra-DC flows, the SegmentedCc composite (with
  // per-segment base RTTs from the path oracle) for split cross-DC flows.
  std::unique_ptr<CongestionControl> BuildCc(const FlowSpec& spec, TimeNs whole_path_base_rtt);
  void PaceNext(FlowId flow);
  Packet MakeDataPacket(const Sender& s, uint32_t seq) const;
  // IRN: queues [lo, hi) for paced selective retransmission, clamped to the
  // sender's in-flight span and deduplicated by the rtx bitmap.
  void QueueRetransmitRange(Sender& s, uint32_t lo, uint32_t hi);
  void SchedulePacing(Sender& s, TimeNs delay);
  bool Irn() const { return config_.reliability == ReliabilityMode::kIrn; }
  // Bytes charged against the bounded in-flight window. Retransmissions lie
  // inside [acked, next_seq) and so are never double-counted — a lost
  // packet's bytes stay charged until the cumulative ACK passes it.
  int64_t InflightBytes(const Sender& s) const {
    return static_cast<int64_t>(s.next_seq - s.acked) * config_.mtu_payload;
  }
  void OnRtoScan(FlowId flow);
  void FinishSender(Sender& s);

  int64_t LineRate(NodeId host) const;

  Network* net_;
  TransportConfig config_;
  CompletionFn on_complete_;
  PathOracle oracle_;

  // Pre-registered at ScheduleFlow, never erased at runtime (flows flip
  // started/done/finished flags instead), so shard threads only ever find().
  std::unordered_map<FlowId, Sender> senders_;
  std::unordered_map<FlowId, Receiver> receivers_;

  std::atomic<int64_t> completed_flows_{0};
  std::atomic<int64_t> data_packets_sent_{0};
  std::atomic<int64_t> retransmitted_packets_{0};
  std::atomic<int64_t> nacks_{0};
  std::atomic<int64_t> cnps_{0};
  std::atomic<int64_t> timeouts_{0};
};

}  // namespace lcmp

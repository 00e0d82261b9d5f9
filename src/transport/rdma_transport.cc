#include "transport/rdma_transport.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace lcmp {
namespace {

// Shared transport-wide metric cells (one registry lookup per process).
struct TransportMetrics {
  obs::Counter* data_sent;
  obs::Counter* retransmits;
  obs::Counter* timeouts;
  obs::Counter* nacks;
  obs::Counter* cnps;
  obs::Counter* flows_completed;
  // Last CC rate set by any flow's rate change, (ts, key)-stamped; the
  // control plane's telemetry sweep samples it into the lcmp.cc.rate_bps
  // time series.
  obs::Gauge* cc_rate;
  // Per-segment last rates (split cross-DC flows only), sampled into the
  // lcmp.cc.{intra_src,inter,intra_dst}_rate_bps time series.
  obs::Gauge* cc_rate_intra_src;
  obs::Gauge* cc_rate_inter;
  obs::Gauge* cc_rate_intra_dst;
  static TransportMetrics& Get() {
    static TransportMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      TransportMetrics t;
      t.data_sent = reg.GetCounter("transport.data_packets_sent");
      t.retransmits = reg.GetCounter("transport.retransmitted_packets");
      t.timeouts = reg.GetCounter("transport.timeouts");
      t.nacks = reg.GetCounter("transport.nacks");
      t.cnps = reg.GetCounter("transport.cnps");
      t.flows_completed = reg.GetCounter("transport.flows_completed");
      t.cc_rate = reg.GetGauge("transport.cc.last_rate_bps");
      t.cc_rate_intra_src = reg.GetGauge("transport.cc.intra_src_rate_bps");
      t.cc_rate_inter = reg.GetGauge("transport.cc.inter_rate_bps");
      t.cc_rate_intra_dst = reg.GetGauge("transport.cc.intra_dst_rate_bps");
      return t;
    }();
    return m;
  }
};

// Exports the flow's current per-segment rates (TransportMetrics gauges).
void SetSegmentGauges(const SegmentedCc& cc) {
  TransportMetrics& m = TransportMetrics::Get();
  m.cc_rate_intra_src->Set(cc.segment(SegmentedCc::kIntraSrc)->rate_bps());
  m.cc_rate_inter->Set(cc.segment(SegmentedCc::kInterDc)->rate_bps());
  m.cc_rate_intra_dst->Set(cc.segment(SegmentedCc::kIntraDst)->rate_bps());
}

}  // namespace

RdmaTransport::RdmaTransport(Network* net, const TransportConfig& config,
                             CompletionFn on_complete)
    : net_(net),
      config_(config),
      on_complete_(std::move(on_complete)),
      oracle_(&net->graph()) {
  LCMP_CHECK(CcRegistry::Instance().Known(config_.cc.inter));
  LCMP_CHECK(CcRegistry::Instance().Known(config_.cc.intra));
  // Register as the packet sink of every host.
  const Graph& g = net_->graph();
  for (NodeId id = 0; id < g.num_vertices(); ++id) {
    if (g.vertex(id).kind == VertexKind::kHost) {
      net_->host(id).SetSink([this, id](Packet pkt) { OnHostReceive(id, std::move(pkt)); });
    }
  }
}

int64_t RdmaTransport::LineRate(NodeId host) const {
  return net_->host(host).port(0).rate_bps();
}

void RdmaTransport::RegisterFlow(const FlowSpec& spec) {
  // Pre-size the per-flow maps during single-threaded setup so sharded runs
  // never mutate them from worker threads, and warm the path-metric cache so
  // runtime lookups are read-only.
  Sender& s = senders_[spec.id];
  s.spec = spec;
  Receiver& r = receivers_[spec.id];
  if (Irn()) {
    // Bitmap windows are the only transport state that allocates; doing it
    // here keeps the packet hot path allocation-free and shard-safe (setup
    // is single-threaded, events only flip bits).
    const uint32_t window = static_cast<uint32_t>(std::max(config_.ooo_window_segments, 1));
    if (!s.rtx.allocated()) {
      s.rtx.Reset(0, window);
    }
    if (!r.ooo.allocated()) {
      r.ooo.Reset(0, window);
    }
  }
  oracle_.Metric(spec.src, spec.dst);
  // Split cross-DC flows also consult the per-segment metrics at StartFlow
  // (which runs on the flow's home shard): warm those cache rows here too.
  const Graph& g = net_->graph();
  const DcId src_dc = g.vertex(spec.src).dc;
  const DcId dst_dc = g.vertex(spec.dst).dc;
  if (!config_.cc.uniform() && src_dc != dst_dc) {
    const NodeId src_dci = g.DciOfDc(src_dc);
    const NodeId dst_dci = g.DciOfDc(dst_dc);
    if (src_dci != kInvalidNode && dst_dci != kInvalidNode) {
      oracle_.Metric(spec.src, src_dci);
      oracle_.Metric(src_dci, dst_dci);
      oracle_.Metric(dst_dci, spec.dst);
    }
  }
}

std::unique_ptr<CongestionControl> RdmaTransport::BuildCc(const FlowSpec& spec,
                                                          TimeNs whole_path_base_rtt) {
  const CcRegistry& registry = CcRegistry::Instance();
  const Graph& g = net_->graph();
  const DcId src_dc = g.vertex(spec.src).dc;
  const DcId dst_dc = g.vertex(spec.dst).dc;
  if (src_dc == dst_dc) {
    // The flow never crosses the border: the intra algorithm runs end to end.
    return registry.Create(config_.cc.intra, config_.cc_intra);
  }
  if (config_.cc.uniform()) {
    // Legacy single-instance path: one controller over the whole route.
    return registry.Create(config_.cc.inter, config_.cc_inter);
  }
  const NodeId src_dci = g.DciOfDc(src_dc);
  const NodeId dst_dci = g.DciOfDc(dst_dc);
  if (src_dci == kInvalidNode || dst_dci == kInvalidNode) {
    // No gateway to split at (degenerate topology): long-haul rules apply.
    return registry.Create(config_.cc.inter, config_.cc_inter);
  }
  // Per-segment unloaded round trips from the path oracle; each includes one
  // MTU of serialization at its own bottleneck, mirroring the whole-path
  // base-RTT recipe in StartFlow.
  const auto seg_rtt = [&](NodeId from, NodeId to) -> TimeNs {
    const PathMetric& m = oracle_.Metric(from, to);
    const TimeNs ser = SerializationDelay(config_.mtu_payload + kHeaderBytes,
                                          std::max<int64_t>(m.bottleneck_bps, 1));
    return 2 * m.delay_ns + ser;
  };
  SegmentBaseRtts base;
  base.intra_src = seg_rtt(spec.src, src_dci);
  base.inter = seg_rtt(src_dci, dst_dci);
  base.intra_dst = seg_rtt(dst_dci, spec.dst);
  if (base.inter <= 0) {
    base.inter = whole_path_base_rtt;  // oracle blind spot; never split-worse
  }
  return std::make_unique<SegmentedCc>(registry.Create(config_.cc.intra, config_.cc_intra),
                                       registry.Create(config_.cc.inter, config_.cc_inter),
                                       registry.Create(config_.cc.intra, config_.cc_intra),
                                       base, config_.cc.Token());
}

void RdmaTransport::ScheduleFlow(const FlowSpec& spec) {
  Simulator& sim = net_->sim_of(spec.src);
  LCMP_CHECK(spec.start_time >= sim.now());
  RegisterFlow(spec);
  sim.ScheduleAt(spec.start_time, [this, spec]() { StartFlow(spec); });
}

void RdmaTransport::StartFlow(const FlowSpec& spec) {
  LCMP_CHECK(spec.size_bytes > 0);
  if (senders_.find(spec.id) == senders_.end()) {
    RegisterFlow(spec);  // direct StartFlow callers (unit tests) skip ScheduleFlow
  }
  Simulator& sim = net_->sim_of(spec.src);

  Sender& s = senders_.at(spec.id);
  LCMP_CHECK(!s.started);
  s.started = true;
  s.spec = spec;
  s.total_packets = static_cast<uint32_t>(
      (spec.size_bytes + config_.mtu_payload - 1) / config_.mtu_payload);
  s.start_time = sim.now();
  s.last_progress = sim.now();
  // Base RTT: both directions of the minimum-delay path plus one MTU of
  // serialization at the bottleneck.
  const PathMetric& m = oracle_.Metric(spec.src, spec.dst);
  LCMP_CHECK_MSG(m.reachable, "flow %llu has unreachable endpoints",
                 static_cast<unsigned long long>(spec.id));
  const TimeNs ser = SerializationDelay(config_.mtu_payload + kHeaderBytes,
                                        std::max<int64_t>(m.bottleneck_bps, 1));
  s.base_rtt = 2 * m.delay_ns + ser;
  // Conservative until the first ACK measures the actual route: the flow may
  // be placed on a path much slower than the minimum-delay one.
  s.rto = std::max<TimeNs>({config_.rto_min, config_.rto_rtt_multiplier * s.base_rtt,
                            config_.rto_initial});
  s.cc = BuildCc(spec, s.base_rtt);
  s.segmented = dynamic_cast<SegmentedCc*>(s.cc.get());
  s.cc->Init(LineRate(spec.src), s.base_rtt, sim.now());

  const FlowId id = spec.id;
  PaceNext(id);
  s.rto_timer = sim.ScheduleEvery(s.rto, [this, id] { OnRtoScan(id); });
}

void RdmaTransport::SchedulePacing(Sender& s, TimeNs delay) {
  s.pacing_active = true;
  const FlowId id = s.spec.id;
  auto pace = [this, id]() {
    auto it = senders_.find(id);
    if (it == senders_.end()) {
      return;
    }
    it->second.pacing_active = false;
    PaceNext(id);
  };
  static_assert(InlineEvent::kFitsInline<decltype(pace)>,
                "pacing closure must stay allocation-free");
  net_->sim_of(s.spec.src).Schedule(delay, std::move(pace));
}

void RdmaTransport::PaceNext(FlowId flow) {
  auto it = senders_.find(flow);
  if (it == senders_.end()) {
    return;
  }
  Sender& s = it->second;
  if (!s.started || s.done || s.pacing_active) {
    return;
  }
  const bool has_rtx = s.rtx.count() > 0;
  if (!has_rtx && s.next_seq >= s.total_packets) {
    return;  // everything sent; waiting for ACKs (RTO guards losses)
  }
  LCMP_PROFILE_SCOPE("transport.pace");
  HostNode& host = net_->host(s.spec.src);
  // NIC backpressure: if the host egress backlog is deep, wait for drain
  // instead of stacking more packets (RNIC QP arbitration, not self-drops).
  const Port& nic = host.port(0);
  if (nic.queue_bytes() > config_.host_backlog_bytes) {
    SchedulePacing(s, SerializationDelay(nic.queue_bytes() / 2, nic.rate_bps()));
    return;
  }
  // Bounded in-flight window: stall without rescheduling — the ACK / NACK /
  // RTO handlers all re-enter PaceNext, so sending resumes ACK-clocked the
  // moment the window reopens. Retransmissions are exempt: they lie inside
  // [acked, next_seq), whose bytes are already charged to the window, so
  // re-sending them must not shrink the effective window (double-counting
  // retransmitted bytes would stall the flow permanently at small windows).
  if (!has_rtx && config_.max_inflight_bytes > 0 &&
      InflightBytes(s) >= config_.max_inflight_bytes) {
    return;
  }

  uint32_t seq;
  if (has_rtx) {
    // Selective retransmissions drain ahead of new data, at the same paced
    // rate (IRN recovers through the normal send path, not an unpaced
    // side-channel blast).
    seq = s.rtx.PopFirst();
    s.retransmits.fetch_add(1, std::memory_order_relaxed);
    retransmitted_packets_.fetch_add(1, std::memory_order_relaxed);
    TransportMetrics::Get().retransmits->Inc();
  } else {
    seq = s.next_seq;
    ++s.next_seq;
  }
  Packet pkt = MakeDataPacket(s, seq);
  data_packets_sent_.fetch_add(1, std::memory_order_relaxed);
  TransportMetrics::Get().data_sent->Inc();

  host.Send(std::move(pkt));

  // Pace the next segment at the congestion-controlled rate.
  const int64_t rate = std::clamp<int64_t>(s.cc->rate_bps(), Mbps(10), LineRate(s.spec.src));
  const TimeNs gap = SerializationDelay(pkt.size_bytes, rate);
  SchedulePacing(s, gap);
}

Packet RdmaTransport::MakeDataPacket(const Sender& s, uint32_t seq) const {
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.key = s.spec.key;
  pkt.flow_id = s.spec.id;
  pkt.src = s.spec.src;
  pkt.dst = s.spec.dst;
  pkt.seq = seq;
  const uint64_t offset = static_cast<uint64_t>(seq) * config_.mtu_payload;
  pkt.payload_bytes = static_cast<uint32_t>(
      std::min<uint64_t>(config_.mtu_payload, s.spec.size_bytes - offset));
  pkt.size_bytes = pkt.payload_bytes + kHeaderBytes;
  pkt.last_of_flow = (seq + 1 == s.total_packets);
  pkt.sent_ts = net_->sim_of(s.spec.src).now();
  if (net_->config().enable_int) {
    pkt.int_stack = net_->int_pool().Acquire();
  }
  return pkt;
}

void RdmaTransport::QueueRetransmitRange(Sender& s, uint32_t lo, uint32_t hi) {
  // Clamp to the live in-flight span: nothing below the cumulative ACK is
  // missing, nothing at/after next_seq has been transmitted yet.
  lo = std::max(lo, s.acked);
  hi = std::min(hi, s.next_seq);
  s.rtx.AdvanceBaseTo(s.acked);
  for (uint32_t seq = lo; seq < hi; ++seq) {
    s.rtx.Insert(seq);  // bitmap dedup: already-pending segments are no-ops
  }
}

// Periodic RTO scan (one recurring timer per flow). Fires every `rto`; a
// full period without cumulative-ACK progress while data is outstanding
// triggers Go-Back-N recovery.
void RdmaTransport::OnRtoScan(FlowId flow) {
  auto sit = senders_.find(flow);
  if (sit == senders_.end() || sit->second.done) {
    return;  // FinishSender cancelled the timer; nothing to do
  }
  Sender& s = sit->second;
  Simulator& sim = net_->sim_of(s.spec.src);
  if (s.acked == s.acked_at_last_rto && s.next_seq > s.acked) {
    LCMP_PROFILE_SCOPE("transport.rto_recovery");
    // No progress across one full RTO with data outstanding.
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    TransportMetrics::Get().timeouts->Inc();
    if (Irn()) {
      // Selective repeat: probe the first unacked segment instead of
      // re-blasting the window. Its delivery either fills the hole (the
      // cumulative ACK then advances past everything the receiver buffered)
      // or arrives as a duplicate whose ACK reports the next hole — and the
      // receiver NACKs remaining holes on every arrival, re-arming the
      // selective path. Pending rtx entries are stale by one RTO; rebuild
      // from the probe.
      s.rtx.ClearAll();
      s.rtx.AdvanceBaseTo(s.acked);
      QueueRetransmitRange(s, s.acked, s.acked + 1);
      // The epoch guard must not swallow the next NACK for this hole: the
      // timeout proves the previous request (or its repair) was lost.
      s.rtx_epoch_lo = UINT32_MAX;
      s.rtx_epoch_hi = 0;
    } else {
      // Go-Back-N: rewind to the cumulative ACK and resend everything.
      s.retransmits.fetch_add(s.next_seq - s.acked, std::memory_order_relaxed);
      retransmitted_packets_.fetch_add(s.next_seq - s.acked, std::memory_order_relaxed);
      TransportMetrics::Get().retransmits->Add(s.next_seq - s.acked);
      s.next_seq = s.acked;
      s.rtx_epoch_lo = UINT32_MAX;
    }
    const int64_t rate_before = obs::TraceEnabled() ? s.cc->rate_bps() : 0;
    s.cc->OnTimeout(sim.now());
    LCMP_TRACE(obs::TraceEv::kCcRateChange, sim.now(), flow, s.spec.src, kInvalidPort,
               s.cc->rate_bps() - rate_before);
    TransportMetrics::Get().cc_rate->Set(s.cc->rate_bps());
    PaceNext(flow);
  }
  s.acked_at_last_rto = s.acked;
  // The adaptive RTO estimate feeds the timer's next period.
  sim.SetTimerInterval(s.rto_timer, s.rto);
}

void RdmaTransport::OnHostReceive(NodeId host, Packet pkt) {
  switch (pkt.type) {
    case PacketType::kData:
      HandleData(host, pkt);
      break;
    case PacketType::kAck:
      HandleAck(pkt);
      break;
    case PacketType::kNack:
      HandleNack(pkt);
      break;
    case PacketType::kCnp:
      HandleCnp(pkt);
      break;
    case PacketType::kFecRepair:
      // Repair symbols are absorbed at the receiving DCI gateway and never
      // reach a host; tolerate one anyway (degenerate single-switch topos).
      net_->int_pool().ReleaseFrom(pkt);
      break;
  }
}

void RdmaTransport::HandleData(NodeId host, Packet& pkt) {
  LCMP_PROFILE_SCOPE("transport.handle_data");
  const FlowId id = pkt.flow_id;
  auto rit = receivers_.find(id);
  if (rit == receivers_.end() || rit->second.finished) {
    net_->int_pool().ReleaseFrom(pkt);
    return;  // unknown flow or stale segment of a completed one
  }
  Receiver& r = rit->second;
  Simulator& sim = net_->sim_of(host);
  HostNode& h = net_->host(host);

  // NACKs reuse payload_bytes (unused on control packets) as the SACK-style
  // hole end: the sender retransmits exactly [seq, hole_end). hole_end == 0
  // (Go-Back-N NACKs) means "no range information".
  auto reply = [&](PacketType type, uint32_t seq, uint32_t hole_end = 0) {
    Packet out;
    out.type = type;
    out.key = ReverseKey(pkt.key);
    out.flow_id = id;
    out.src = pkt.dst;
    out.dst = pkt.src;
    out.seq = seq;
    out.payload_bytes = hole_end;
    out.size_bytes = kControlPacketBytes;
    out.sent_ts = pkt.sent_ts;  // echoed for sender RTT measurement
    if (type == PacketType::kAck) {
      out.ecn_echo = pkt.ecn_ce;
      // Segmented-CC demux: echo the gateway stamps and the per-segment ECN
      // mask so the sender can split the RTT and route the marks.
      out.gw_src_off = pkt.gw_src_off;
      out.gw_dst_off = pkt.gw_dst_off;
      out.ecn_mask = pkt.ecn_mask;
      // Echo the INT stack back to the sender (HPCC): the ACK inherits the
      // DATA packet's pooled side-buffer instead of copying it.
      out.int_stack = pkt.int_stack;
      pkt.int_stack = kInvalidIntHandle;
    }
    h.Send(std::move(out));
  };

  // DCQCN notification point: CE-marked arrivals emit paced CNPs.
  if (pkt.ecn_ce && sim.now() - r.last_cnp >= config_.cnp_interval) {
    r.last_cnp = sim.now();
    Packet cnp;
    cnp.type = PacketType::kCnp;
    cnp.key = ReverseKey(pkt.key);
    cnp.flow_id = id;
    cnp.src = pkt.dst;
    cnp.dst = pkt.src;
    cnp.size_bytes = kControlPacketBytes;
    cnp.ecn_mask = pkt.ecn_mask;  // which segment(s) marked, for SegmentedCc
    h.Send(std::move(cnp));
  }

  if (pkt.seq == r.expected_seq) {
    ++r.expected_seq;
    r.received_bytes += pkt.payload_bytes;
    // IRN: drain buffered segments that are now in sequence (bit test +
    // clear per segment, no tree walk, no frees).
    if (Irn()) {
      while (r.ooo.TakeIfSet(r.expected_seq)) {
        ++r.expected_seq;
      }
      r.ooo.AdvanceBaseTo(r.expected_seq);
    }
    reply(PacketType::kAck, r.expected_seq);
    // Holes left behind the drained run keep the selective path armed: the
    // sender learns the next missing range without waiting for another
    // out-of-order arrival (lost *retransmissions* would otherwise only be
    // recovered by RTO probes, one hole per timeout).
    if (Irn() && sim.now() - r.last_nack >= config_.nack_min_interval) {
      if (r.ooo.count() > 0) {
        r.last_nack = sim.now();
        reply(PacketType::kNack, r.expected_seq, r.ooo.FirstSet());
      } else if (r.expected_seq < r.ooo_overflow_hi) {
        // The window overflowed earlier and has now drained: everything up
        // to the overflow mark was discarded unbuffered, so keep requesting
        // that tail instead of degrading to one RTO probe per segment.
        r.last_nack = sim.now();
        reply(PacketType::kNack, r.expected_seq, r.ooo_overflow_hi);
      }
    }
    auto sit = senders_.find(id);
    if (sit != senders_.end() && r.received_bytes >= sit->second.spec.size_bytes) {
      // Full payload delivered in order: the flow is complete.
      FlowRecord rec;
      rec.spec = sit->second.spec;
      rec.start_time = sit->second.start_time;
      rec.complete_time = sim.now();
      rec.total_packets = sit->second.total_packets;
      rec.retransmitted_packets = sit->second.retransmits.load(std::memory_order_relaxed);
      rec.base_rtt = sit->second.base_rtt;
      completed_flows_.fetch_add(1, std::memory_order_relaxed);
      TransportMetrics::Get().flows_completed->Inc();
      r.finished = true;
      if (on_complete_) {
        on_complete_(rec);
      }
    }
  } else if (pkt.seq > r.expected_seq) {
    if (Irn()) {
      // IRN lightweight OoO tracking: buffer the segment in the bitmap
      // window (out-of-window segments are dropped and re-sent later) and
      // request a *selective* retransmission of the first hole,
      // [expected_seq, first buffered segment).
      if (r.ooo.Insert(pkt.seq)) {
        r.received_bytes += pkt.payload_bytes;
      } else {
        // Out of window: discarded, but remember how far the sender got so
        // the in-order path can re-request the tail once the window drains.
        r.ooo_overflow_hi = std::max(r.ooo_overflow_hi, pkt.seq + 1);
      }
      if (sim.now() - r.last_nack >= config_.nack_min_interval) {
        r.last_nack = sim.now();
        // If the window overflowed and nothing is buffered, everything up to
        // this arrival is missing.
        const uint32_t hole_end = r.ooo.count() > 0 ? r.ooo.FirstSet() : pkt.seq;
        reply(PacketType::kNack, r.expected_seq, hole_end);
      }
      // A fully buffered tail can complete the flow once the hole fills; the
      // in-order branch above performs the drain and the completion check.
    } else if (sim.now() - r.last_nack >= config_.nack_min_interval) {
      // Gap: commodity RNIC behavior, request Go-Back-N from the hole.
      r.last_nack = sim.now();
      reply(PacketType::kNack, r.expected_seq);
    }
  } else {
    // Duplicate of an already-delivered segment: re-ACK so the sender moves.
    reply(PacketType::kAck, r.expected_seq);
  }
  // Any INT stack not transferred onto an ACK dies with the data packet.
  net_->int_pool().ReleaseFrom(pkt);
}

void RdmaTransport::HandleAck(Packet& pkt) {
  LCMP_PROFILE_SCOPE("transport.handle_ack");
  auto it = senders_.find(pkt.flow_id);
  if (it == senders_.end() || it->second.done || !it->second.started) {
    net_->int_pool().ReleaseFrom(pkt);
    return;
  }
  Sender& s = it->second;
  Simulator& sim = net_->sim_of(s.spec.src);
  if (pkt.seq > s.acked) {
    s.acked = pkt.seq;
    s.last_progress = sim.now();
    if (s.next_seq < s.acked) {
      s.next_seq = s.acked;  // cumulative ACK outran a Go-Back-N rewind
    }
    // Pending selective retransmits the cumulative ACK has passed are no
    // longer missing.
    s.rtx.AdvanceBaseTo(s.acked);
  }
  const TimeNs rtt = sim.now() - pkt.sent_ts;
  if (rtt > 0) {
    // SRTT EWMA (7/8 old + 1/8 new) drives the adaptive RTO.
    s.srtt = s.srtt == 0 ? rtt : (7 * s.srtt + rtt) / 8;
    s.rto = std::max<TimeNs>(config_.rto_min, config_.rto_rtt_multiplier * s.srtt);
  }
  const IntStack* telemetry =
      pkt.int_stack != kInvalidIntHandle ? &net_->int_pool().Get(pkt.int_stack) : nullptr;
  const int64_t rate_before = obs::TraceEnabled() ? s.cc->rate_bps() : 0;
  s.cc->OnAck(pkt, telemetry, rtt, sim.now());
  if (obs::TraceEnabled() && s.cc->rate_bps() != rate_before) {
    LCMP_TRACE(obs::TraceEv::kCcRateChange, sim.now(), pkt.flow_id, s.spec.src, kInvalidPort,
               s.cc->rate_bps() - rate_before);
  }
  TransportMetrics::Get().cc_rate->Set(s.cc->rate_bps());
  if (s.segmented != nullptr) {
    SetSegmentGauges(*s.segmented);
  }
  net_->int_pool().ReleaseFrom(pkt);
  if (s.acked >= s.total_packets) {
    FinishSender(s);
    return;
  }
  PaceNext(pkt.flow_id);
}

void RdmaTransport::HandleNack(const Packet& pkt) {
  LCMP_PROFILE_SCOPE("transport.handle_nack");
  auto it = senders_.find(pkt.flow_id);
  if (it == senders_.end() || it->second.done || !it->second.started) {
    return;
  }
  nacks_.fetch_add(1, std::memory_order_relaxed);
  TransportMetrics::Get().nacks->Inc();
  Sender& s = it->second;
  const TimeNs now = net_->sim_of(s.spec.src).now();
  if (pkt.seq > s.acked) {
    s.acked = pkt.seq;
    s.last_progress = now;
    s.rtx.AdvanceBaseTo(s.acked);
  }
  // Retransmit-epoch guard: NACKs for one gap arrive once per received
  // packet (paced only by nack_min_interval, typically far below the
  // long-haul RTT), but a retransmission needs a full RTT to take effect.
  // Honoring every duplicate meant Go-Back-N re-blasted the same window
  // several times per loss; one epoch per hole per RTT.
  const TimeNs epoch = s.srtt > 0 ? s.srtt : s.base_rtt;
  const bool same_gap = pkt.seq == s.rtx_epoch_lo && now - s.rtx_epoch_time < epoch;
  if (Irn()) {
    // SACK range [seq, payload_bytes); legacy range-free NACKs ask for
    // just the hole-start segment.
    const uint32_t hole_end = std::max(pkt.payload_bytes, pkt.seq + 1);
    uint32_t lo = pkt.seq;
    const bool in_epoch = s.rtx_epoch_lo != UINT32_MAX && now - s.rtx_epoch_time < epoch;
    if (in_epoch) {
      // Within one RTT of the last request, everything below the epoch's
      // high-water mark is already queued or in flight; re-requesting it
      // would duplicate a full pipe of retransmissions per NACK. Only the
      // part of the range above the mark is new.
      lo = std::max(lo, s.rtx_epoch_hi);
    } else {
      s.rtx_epoch_lo = pkt.seq;
      s.rtx_epoch_time = now;
      s.rtx_epoch_hi = pkt.seq;  // expired: a still-open hole is fair game
    }
    if (lo < hole_end) {
      s.rtx_epoch_hi = std::max(s.rtx_epoch_hi, hole_end);
      QueueRetransmitRange(s, lo, hole_end);
    }
  } else if (pkt.seq < s.next_seq && !same_gap) {
    // Go-Back-N: rewind to the receiver's hole and resend everything after.
    s.rtx_epoch_lo = pkt.seq;
    s.rtx_epoch_time = now;
    s.retransmits.fetch_add(s.next_seq - pkt.seq, std::memory_order_relaxed);
    retransmitted_packets_.fetch_add(s.next_seq - pkt.seq, std::memory_order_relaxed);
    TransportMetrics::Get().retransmits->Add(s.next_seq - pkt.seq);
    s.next_seq = pkt.seq;
  }
  PaceNext(pkt.flow_id);
}

void RdmaTransport::HandleCnp(const Packet& pkt) {
  LCMP_PROFILE_SCOPE("transport.handle_cnp");
  auto it = senders_.find(pkt.flow_id);
  if (it == senders_.end() || it->second.done || !it->second.started) {
    return;
  }
  cnps_.fetch_add(1, std::memory_order_relaxed);
  TransportMetrics::Get().cnps->Inc();
  Sender& s = it->second;
  Simulator& sim = net_->sim_of(s.spec.src);
  const int64_t rate_before = obs::TraceEnabled() ? s.cc->rate_bps() : 0;
  s.cc->OnCnp(sim.now(), pkt.ecn_mask);
  if (obs::TraceEnabled() && s.cc->rate_bps() != rate_before) {
    LCMP_TRACE(obs::TraceEv::kCcRateChange, sim.now(), pkt.flow_id, s.spec.src, kInvalidPort,
               s.cc->rate_bps() - rate_before);
  }
  TransportMetrics::Get().cc_rate->Set(s.cc->rate_bps());
  if (s.segmented != nullptr) {
    SetSegmentGauges(*s.segmented);
  }
}

void RdmaTransport::FinishSender(Sender& s) {
  // The entry stays in the map (done flips instead of erasing) so concurrent
  // cross-shard find() never races a rehash; the done guard above makes a
  // second finish — or a recycled-TimerId cancel — impossible.
  s.done = true;
  net_->sim_of(s.spec.src).CancelTimer(s.rto_timer);
}

}  // namespace lcmp

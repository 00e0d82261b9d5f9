#include "core/lcmp_router.h"

#include <algorithm>

#include "common/logging.h"
#include "core/path_quality.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace lcmp {

LcmpRouter::LcmpRouter(SwitchNode& sw, const LcmpConfig& config,
                       std::shared_ptr<const BootstrapTables> tables)
    : config_(config),
      tables_(std::move(tables)),
      estimator_(config, tables_.get(), sw.num_ports()),
      flow_cache_(config.flow_cache_capacity, config.flow_idle_timeout) {
  LCMP_CHECK(tables_ != nullptr);
  layout_dcs_ = std::max(sw.NumDcs(), 1);
  layout_layers_ = std::max(sw.num_path_layers(), 1);
  cpath_tables_.resize(static_cast<size_t>(layout_dcs_) * static_cast<size_t>(layout_layers_));
}

size_t LcmpRouter::CpathSlot(DcId dst_dc, int layer) {
  LCMP_CHECK(dst_dc >= 0 && layer >= 0);
  if (dst_dc >= layout_dcs_) {
    // Only safe while single-layer (row stride changes otherwise); multi-layer
    // layouts are fixed at construction from the switch's path table.
    LCMP_CHECK(layout_layers_ == 1);
    layout_dcs_ = dst_dc + 1;
  }
  if (layer >= layout_layers_) {
    layout_layers_ = layer + 1;  // appends rows; existing indices unchanged
  }
  const size_t slot = static_cast<size_t>(layer) * static_cast<size_t>(layout_dcs_) +
                      static_cast<size_t>(dst_dc);
  if (slot >= cpath_tables_.size()) {
    cpath_tables_.resize(static_cast<size_t>(layout_dcs_) *
                         static_cast<size_t>(layout_layers_));
  }
  return slot;
}

void LcmpRouter::InstallPathTable(DcId dst_dc, std::vector<uint8_t> cpath_scores) {
  InstallPathTable(dst_dc, /*layer=*/0, std::move(cpath_scores));
}

void LcmpRouter::InstallPathTable(DcId dst_dc, int layer, std::vector<uint8_t> cpath_scores) {
  cpath_tables_[CpathSlot(dst_dc, layer)] = std::move(cpath_scores);
}

const std::vector<uint8_t>& LcmpRouter::PathTableFor(SwitchNode& sw, DcId dst_dc, int layer,
                                                     std::span<const PathCandidate> candidates) {
  std::vector<uint8_t>& table = cpath_tables_[CpathSlot(dst_dc, layer)];
  if (table.size() != candidates.size()) {
    // On-demand table creation from the candidates' control-plane attributes
    // (normally ControlPlane::Provision pre-installs this).
    table.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      table[i] = CalcPathQuality(candidates[i].path_delay_ns, candidates[i].bottleneck_bps,
                                 config_, *tables_);
    }
    (void)sw;
  }
  return table;
}

void LcmpRouter::RefreshCongestion(SwitchNode& sw, std::span<const PathCandidate> candidates) {
  const TimeNs now = sw.sim().now();
  for (const PathCandidate& c : candidates) {
    if (estimator_.NeedsRefresh(c.port, now)) {
      const Port& port = sw.port(c.port);
      estimator_.Sample(c.port, port.queue_bytes(), port.rate_bps(), now);
    }
  }
}

PortIndex LcmpRouter::DecideNewFlow(SwitchNode& sw, const Packet& pkt,
                                    std::span<const PathCandidate> candidates) {
  LCMP_PROFILE_SCOPE("lcmp.decide_new_flow");
  // (1) refresh congestion state of stale candidate ports.
  RefreshCongestion(sw, candidates);
  const DcId dst_dc = sw.DstDcOf(pkt);
  const std::vector<uint8_t>& cpath =
      PathTableFor(sw, dst_dc, sw.current_path_layer(), candidates);

  // (2)+(3) per-candidate scores and fused cost, live ports only.
  scored_.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const PathCandidate& c = candidates[i];
    if (!sw.port(c.port).up()) {
      continue;
    }
    const uint8_t cong = estimator_.CongScore(c.port, sw.port(c.port).rate_bps());
    ScoredCandidate s;
    s.port = c.port;
    s.cong_score = cong;
    s.fused_cost = config_.alpha * static_cast<int32_t>(cpath[i]) +
                   config_.beta * static_cast<int32_t>(cong);
    scored_.push_back(s);
  }
  if (scored_.empty()) {
    return kInvalidPort;
  }
  // (4) filter + diversity-preserving hash.
  const uint64_t h = HashFlowKey(pkt.key, 0x1c3fULL ^ static_cast<uint64_t>(sw.id()));
  const SelectionResult sel = SelectDiverse(scored_, h, config_, scratch_);
  ++stats_.new_flow_decisions;
  if (sel.used_fallback) {
    ++stats_.fallback_decisions;
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    static obs::Counter* m_decisions = reg.GetCounter("lcmp.router.new_flow_decisions");
    static obs::Counter* m_fallbacks = reg.GetCounter("lcmp.router.fallback_decisions");
    static const std::vector<int64_t> kCostBounds = {0,   32,  64,  96,   128,  192,
                                                     256, 384, 512, 1024, 2048, 4096};
    static obs::Histogram* h_fused = reg.GetHistogram("lcmp.fused_cost", kCostBounds);
    static const std::vector<int64_t> kScoreBounds = {0, 16, 32, 64, 96, 128, 160, 192, 224};
    static obs::Histogram* h_cpath = reg.GetHistogram("lcmp.cpath_score", kScoreBounds);
    m_decisions->Inc();
    if (sel.used_fallback) {
      m_fallbacks->Inc();
    }
    for (const ScoredCandidate& s : scored_) {
      h_fused->AddAlways(s.fused_cost);
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      h_cpath->AddAlways(cpath[i]);
    }
  }
  LCMP_TRACE(obs::TraceEv::kRouteDecision, sw.sim().now(), RoutingFlowId(pkt.key), sw.id(),
             sel.port, /*aux=*/static_cast<int64_t>(scored_.size()));
  // (5) record the mapping for path consistency.
  if (sel.port != kInvalidPort) {
    flow_cache_.Insert(RoutingFlowId(pkt.key), sel.port, sw.sim().now());
  }
  return sel.port;
}

PortIndex LcmpRouter::SelectPort(SwitchNode& sw, const Packet& pkt,
                                 std::span<const PathCandidate> candidates) {
  LCMP_PROFILE_SCOPE("lcmp.select_port");
  ++stats_.packets;
  const TimeNs now = sw.sim().now();
  const FlowId fid = RoutingFlowId(pkt.key);
  const PortIndex cached = flow_cache_.Lookup(fid, now);
  if (cached != kInvalidPort) {
    if (sw.port(cached).up() || config_.disable_failover) {
      ++stats_.cache_hits;
      return cached;
    }
    // Data-plane fast failover: lazily invalidate the dead mapping and
    // treat this packet as the flow's first (Sec. 3.4).
    flow_cache_.Invalidate(fid);
    ++stats_.failover_rehashes;
    // aux = the invalidated (dead) port; the rehash's new pick follows as
    // this packet's kRouteDecision. Perfetto renders these as the failover
    // instants that make the paper's ~10 ms recovery visible on a timeline.
    LCMP_TRACE(obs::TraceEv::kFailover, now, fid, sw.id(), cached, /*aux=*/cached);
    static obs::Counter* m_rehash =
        obs::MetricsRegistry::Instance().GetCounter("lcmp.router.failover_rehashes");
    m_rehash->Inc();
  }
  return DecideNewFlow(sw, pkt, candidates);
}

void LcmpRouter::OnTick(SwitchNode& sw) {
  LCMP_PROFILE_SCOPE("lcmp.monitor_tick");
  ++ticks_;
  // Background monitor: sample every inter-DC egress so T/D evolve even when
  // no new flow arrives (Sec. 3.3 "iterates over device ports").
  const TimeNs now = sw.sim().now();
  for (PortIndex p = 0; p < sw.num_ports(); ++p) {
    const Port& port = sw.port(p);
    estimator_.Sample(p, port.queue_bytes(), port.rate_bps(), now);
  }
  // Periodic flow-cache GC at the configured (coarser) cadence.
  const int64_t ticks_per_gc = std::max<int64_t>(config_.gc_period / config_.sample_interval, 1);
  if (ticks_ % ticks_per_gc == 0) {
    stats_.gc_evictions += flow_cache_.Gc(now);
  }
}

size_t LcmpRouter::MemoryBytes() const {
  size_t cpath_bytes = 0;
  for (const auto& t : cpath_tables_) {
    cpath_bytes += t.size();
  }
  return estimator_.MemoryBytes() + flow_cache_.MemoryBytes() + tables_->MemoryBytes() +
         cpath_bytes;
}

PolicyFactory MakeLcmpFactory(const LcmpConfig& config) {
  // One shared bootstrap-table instance; routers are per switch.
  auto tables = std::make_shared<const BootstrapTables>(BootstrapTables::Build(config));
  return [config, tables](SwitchNode& sw) {
    return std::make_unique<LcmpRouter>(sw, config, tables);
  };
}

}  // namespace lcmp

// The LCMP data plane (Sec. 3.1.2): per-DCI-switch multipath policy fusing
// the control-plane path-quality score with on-switch congestion signals.
//
// Per-packet fast path: flow-cache lookup, timestamp refresh, forward.
// Per-new-flow slow path (steps 1-5 of Fig. 2):
//   (1) refresh congestion registers of stale candidate ports
//   (2) per-candidate scores: C_path lookup, C_cong from Q/T/D
//   (3) fused cost C(p) = alpha*C_path + beta*C_cong           (Eq. 1)
//   (4) filter the high-cost suffix + hash in the reduced set  (Sec. 3.4)
//   (5) record the mapping in the flow cache
// Failures: a cached egress that went down invalidates the entry on the fly
// and re-runs selection ("lazy update" fast failover, Sec. 3.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/bootstrap_tables.h"
#include "core/config.h"
#include "core/congestion_estimator.h"
#include "core/flow_cache.h"
#include "core/selector.h"
#include "sim/node.h"

namespace lcmp {

// Decision counters exposed to the control plane's telemetry collection.
struct LcmpRouterStats {
  int64_t packets = 0;
  int64_t new_flow_decisions = 0;
  int64_t cache_hits = 0;
  int64_t fallback_decisions = 0;   // decisions with every candidate saturated
  int64_t failover_rehashes = 0;    // cached egress dead -> re-selected
  int64_t gc_evictions = 0;
};

class LcmpRouter : public MultipathPolicy {
 public:
  // `tables` are the bootstrap tables installed by the control plane and are
  // shared across switches (they only depend on the config).
  LcmpRouter(SwitchNode& sw, const LcmpConfig& config,
             std::shared_ptr<const BootstrapTables> tables);

  PortIndex SelectPort(SwitchNode& sw, const Packet& pkt,
                       std::span<const PathCandidate> candidates) override;

  // Monitor cadence: background port sampling + periodic flow-cache GC.
  TimeNs tick_interval() const override { return config_.sample_interval; }
  void OnTick(SwitchNode& sw) override;

  const char* name() const override { return "lcmp"; }

  // Control-plane install hook: precomputed C_path scores for `dst_dc`,
  // aligned with the switch's candidate order. Called by ControlPlane; when
  // absent for a destination, the router builds the table on demand from the
  // candidate attributes (Sec. 3.1.2: on-demand table creation). The 2-arg
  // form targets path layer 0 (the only layer under plain downhill routing).
  void InstallPathTable(DcId dst_dc, std::vector<uint8_t> cpath_scores);
  void InstallPathTable(DcId dst_dc, int layer, std::vector<uint8_t> cpath_scores);

  const LcmpRouterStats& stats() const { return stats_; }
  const FlowCache& flow_cache() const { return flow_cache_; }
  const CongestionEstimator& estimator() const { return estimator_; }
  const LcmpConfig& config() const { return config_; }

  // Sec. 4 resource accounting: registers + flow cache + tables.
  size_t MemoryBytes() const;

 private:
  const std::vector<uint8_t>& PathTableFor(SwitchNode& sw, DcId dst_dc, int layer,
                                           std::span<const PathCandidate> candidates);
  // cpath_tables_ slot for (dst_dc, layer); grows the table as needed.
  size_t CpathSlot(DcId dst_dc, int layer);
  void RefreshCongestion(SwitchNode& sw, std::span<const PathCandidate> candidates);
  PortIndex DecideNewFlow(SwitchNode& sw, const Packet& pkt,
                          std::span<const PathCandidate> candidates);

  LcmpConfig config_;
  std::shared_ptr<const BootstrapTables> tables_;
  CongestionEstimator estimator_;
  FlowCache flow_cache_;
  // cpath_tables_[layer * layout_dcs_ + dst_dc][candidate_idx] = C_path
  // score. layout_dcs_/layout_layers_ mirror the switch's path-table shape
  // (layout_layers_ == 1 under plain downhill routing).
  int layout_dcs_ = 1;
  int layout_layers_ = 1;
  std::vector<std::vector<uint8_t>> cpath_tables_;
  std::vector<ScoredCandidate> scored_;   // scratch, reused per decision
  std::vector<ScoredCandidate> scratch_;  // scratch for SelectDiverse
  LcmpRouterStats stats_;
  int64_t ticks_ = 0;
};

// Factory wiring LcmpRouter as the per-DCI policy of a Network.
PolicyFactory MakeLcmpFactory(const LcmpConfig& config);

}  // namespace lcmp

// End-to-end experiment runner: builds topology + network + policy +
// transport + workload, runs to completion, and returns the statistics every
// paper figure is derived from.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"
#include "core/control_plane.h"
#include "fault/fault_plan.h"
#include "routing/policy.h"
#include "stats/fct_recorder.h"
#include "stats/link_utilization.h"
#include "topo/builders.h"
#include "topo/candidate_paths.h"
#include "transport/rdma_transport.h"
#include "workload/traffic_gen.h"

namespace lcmp {

enum class PolicyKind : uint8_t { kEcmp, kWcmp, kUcmp, kRedte, kLcmp };
const char* PolicyKindName(PolicyKind kind);

// Policy factory for a Network (LCMP consumes the LcmpConfig).
PolicyFactory MakePolicyFactory(PolicyKind kind, const LcmpConfig& lcmp_config);

enum class TopologyKind : uint8_t {
  kTestbed8,
  kBso13,
  // The herd-effect variant of the 8-DC testbed: all six DC1->DC8 routes are
  // identical (100G, 2x10ms), so path quality cannot separate candidates and
  // only the selection mechanism differs (paper Sec. 2.3 challenge 3).
  kTestbed8Sym,
  // Parameterized WANs (topo/gen/): sized by `num_dcs`, seeded through the
  // dedicated TopoRng stream so the graph is identical across --shards/--jobs.
  kRandomWan,   // ring + random chords (BuildRandomWan)
  kDragonfly,   // dragonfly-of-DCs
  kSlimFly,     // slim-fly-of-DCs (MMS), num_dcs rounds up to 2q²
  kFatTree,     // fat-tree-of-DCs (k-ary Clos), num_dcs rounds up to (5/4)k²
  kImported,    // Topology Zoo-style file import (`topo_file`)
};
const char* TopologyKindName(TopologyKind kind);

// Which (src DC, dst DC) pairs exchange traffic.
enum class PairingKind : uint8_t {
  kEndpointPair,    // DC1 <-> DC8 style, both directions (testbed workloads)
  kAllToAll,        // every ordered DC pair
  // All ordered pairs, with the endpoint pair (first DC, last DC) oversampled
  // ~4x so pair-focused analyses (Fig. 8) get enough samples while the pair's
  // share of offered load stays small (a heavy focus share would saturate the
  // pair's low-delay route and wash out the effect being measured).
  kAllToAllFocusEndpoints,
  // First DC -> last DC only (burst/herd micro-experiments).
  kEndpointOneWay,
};

// String -> enum parsing for CLI flags and the JSON sweep-spec loader. Each
// accepts the lower-case CLI token ("ecmp", "bso13", ...); on failure the
// target is left untouched and `error` lists every accepted token.
bool ParsePolicyKind(const std::string& text, PolicyKind* out, std::string* error);
bool ParseTopologyKind(const std::string& text, TopologyKind* out, std::string* error);
bool ParseWorkloadKind(const std::string& text, WorkloadKind* out, std::string* error);
bool ParsePairingKind(const std::string& text, PairingKind* out, std::string* error);
bool ParseFabricKind(const std::string& text, FabricKind* out, std::string* error);
bool ParsePathStrategyKind(const std::string& text, PathStrategyKind* out, std::string* error);

// The CLI token each parser accepts for a kind (inverse of the Parse*
// helpers; distinct from the display-oriented *KindName strings). CC
// algorithms are not an enum: they parse through the CcRegistry
// (transport/cc/cc_registry.h) into a SegmentCcSpec.
const char* PolicyKindToken(PolicyKind kind);
const char* TopologyKindToken(TopologyKind kind);
const char* PairingKindToken(PairingKind kind);
const char* WorkloadKindToken(WorkloadKind kind);
const char* FabricKindToken(FabricKind kind);
const char* PathStrategyKindToken(PathStrategyKind kind);

struct ExperimentConfig {
  TopologyKind topo = TopologyKind::kTestbed8;
  PairingKind pairing = PairingKind::kEndpointPair;
  PolicyKind policy = PolicyKind::kLcmp;
  // Segmented congestion control (DESIGN.md §14): registry tokens per
  // segment. The uniform default reproduces the legacy single-instance
  // transport; "lcp/dcqcn"-style splits run distinct inter/intra algorithms.
  SegmentCcSpec cc;
  // Per-segment algorithm tuning (sweepable via the cc.inter.* / cc.intra.*
  // registry fields).
  CcTuning cc_inter;
  CcTuning cc_intra;
  WorkloadKind workload = WorkloadKind::kWebSearch;
  double load = 0.3;       // target average inter-DC link utilization
  int num_flows = 1000;
  uint64_t seed = 1;
  // LCMP tunables (ablations override alpha/beta/w_* here).
  LcmpConfig lcmp;
  // Safety horizon; the run stops early once all flows complete.
  TimeNs horizon = Seconds(120);
  int hosts_per_dc = 8;
  // ---- generated/imported topologies (topo/gen/) ----
  // DC count for the parameterized WAN kinds (slimfly/fattree round up to
  // their family's nearest valid size); ignored by the fixed paper topologies.
  int num_dcs = 16;
  // Seed for topology generation; 0 = derive from `seed`. Generated WANs only
  // ever draw from TopoRng(EffectiveTopoSeed), so two experiments that share
  // this value share the exact graph regardless of workload/shard settings.
  uint64_t topo_seed = 0;
  int extra_chords = 8;    // kRandomWan: chords on top of the ring
  int df_group_size = 0;   // kDragonfly: DCs per group, 0 = auto
  int df_global_links = 2; // kDragonfly: global-link budget per DC
  std::string topo_file;   // kImported: edge-list or .gml path
  // Intra-DC fabric shape for generated/imported WANs (the fixed paper
  // topologies keep their collapsed testbed fabric).
  FabricKind fabric = FabricKind::kCollapsed;
  int fabric_leaves = 4;
  int fabric_spines = 2;
  // Candidate-path strategy: plain downhill (the paper) or FatPaths-style
  // layered non-minimal sets.
  PathStrategyKind path_strategy = PathStrategyKind::kDownhill;
  int path_layers = 4;
  int layer_drop_permille = 250;
  // Control-plane telemetry sweep cadence; each sweep also snapshots the
  // metrics registry when metrics are enabled. 0 keeps the loop off so the
  // event stream (and thus determinism digests) is identical to a run
  // without observability.
  TimeNs telemetry_period = 0;
  // Fault injection: a non-empty plan is armed on the network before the run
  // (see src/fault/). With monitor_invariants the run also carries an
  // InvariantMonitor; in strict mode any violation aborts via LCMP_CHECK,
  // otherwise violations are reported in the result.
  FaultPlan fault_plan;
  bool monitor_invariants = false;
  bool monitor_strict = true;
  // Declarative chaos: when fault_plan is empty and chaos_seed != 0,
  // RunExperiment draws a seeded chaos plan against the built topology
  // (GenerateChaosPlan), so fault sweeps are expressible as plain config
  // fields — no pre-built plan object needed.
  uint64_t chaos_seed = 0;
  double chaos_rate = 20.0;        // fault episodes per simulated second
  int64_t chaos_window_ms = 300;   // injection window length
  // Transport loss recovery (DESIGN.md §15): Go-Back-N (RoCE default) or
  // IRN selective retransmission with SACK-range NACKs.
  ReliabilityMode reliability = ReliabilityMode::kGoBackN;
  // Lossy long-haul tier on every inter-DC link (DESIGN.md §15): standing
  // Gilbert–Elliott corruption plus an optional k:m FEC shim at the DCI
  // gateways. All-defaults keeps the tier off and digests unchanged.
  double dci_loss_rate = 0.0;
  double dci_burst_len = 1.0;
  int fec_k = 0;
  int fec_m = 0;
  // Lossless operation: hop-by-hop PFC on every switch (the ext_pfc
  // substrate experiment). Thresholds follow its long-haul operating point.
  bool pfc_enabled = false;
  int64_t pfc_xoff_bytes = 1LL * 1024 * 1024;
  int64_t pfc_xon_bytes = 512LL * 1024;
  // Burst workload: all flows start at t=0 (herd-effect experiments). When
  // burst_size_bytes != 0 every flow gets that size instead of a CDF draw.
  bool burst_mode = false;
  uint64_t burst_size_bytes = 0;
  // ---- incast / oversubscription scenario family (DESIGN.md §14) ----
  // N-to-1 incast at the *destination* DC: `incast_fanin` senders spread
  // round-robin over the other host-bearing DCs all target one receiver host
  // in the last host-bearing DC, each shipping `incast_bytes`, starting
  // together at t=0. 0 keeps the family off. Incast flows ride on top of the
  // regular background matrix (num_flows) and are reported separately in
  // ExperimentResult::incast.
  int incast_fanin = 0;
  uint64_t incast_bytes = 1 << 20;
  // Oversubscribed DCI borders: divide every DCI<->DCI link's rate by this
  // factor after topology build (the OS_BORDERS axis). 1 = no change.
  int os_borders = 1;
  // Mixed traffic matrix: fraction of generated background flows redirected
  // to an intra-DC destination (same-DC host). 0 keeps the legacy pure
  // inter-DC matrix — and, critically, the legacy RNG stream.
  double mix_intra = 0.0;
  // Bounded in-flight sender window (TransportConfig::max_inflight_bytes).
  // 0 = the legacy open-loop sender. The incast family runs windowed: with
  // unbounded in-flight, any sub-BDP flow is fully transmitted before the
  // first inter-DC feedback returns and every CC algorithm degenerates to
  // the same line-rate blast.
  int64_t max_inflight_bytes = 0;
  // Conservative-PDES shard count (DESIGN.md §12): partitions the event core
  // by DC group and runs one worker thread per shard. Clamped to the DC
  // count; 1 keeps the sequential core. Deliberately NOT a registry-echoed
  // config field — any shard count produces bit-identical results, so it is
  // an execution knob like --jobs, not part of the experiment's identity.
  int shards = 1;
};

struct ExperimentResult {
  ExperimentConfig config;
  SlowdownStats overall;
  std::vector<BucketStats> buckets;           // per workload-CDF size bucket
  std::vector<LinkUtilization> link_utils;    // inter-DC directed links
  std::vector<FctRecorder::Sample> samples;   // raw per-flow samples
  std::vector<SwitchTelemetry> telemetry;     // LCMP switches only
  int flows_completed = 0;
  int flows_requested = 0;
  int64_t retransmitted_packets = 0;
  int64_t timeouts = 0;
  // Lossy-DCI tier accounting (all zero when the tier is off).
  int64_t dci_lost_packets = 0;
  int64_t fec_repair_packets = 0;
  int64_t fec_recovered_packets = 0;
  int64_t fec_unrecovered_packets = 0;
  uint64_t events_processed = 0;
  TimeNs sim_end_time = 0;
  double multipath_pair_fraction = 0;  // topology statistic (Sec. 6.2.1)
  // Fault-injection accounting (zero when no plan/monitor was configured).
  int64_t faults_injected = 0;
  int64_t invariant_checks = 0;
  int64_t invariant_violations = 0;
  std::vector<std::string> violation_log;
  // Switch-level substrate accounting, summed over every switch port:
  // drops (0 under PFC), PFC pause frames sent, and cumulative paused time.
  int64_t switch_dropped_packets = 0;
  int64_t pfc_pause_frames = 0;
  int64_t total_paused_ns = 0;
  // Endpoint egress spread (herd-effect experiments): over the first DC's
  // candidate egresses toward the last DC, the number of ports that carried
  // > 1 MB and the maximum egress queue depth observed.
  int endpoint_egress_used = 0;
  int64_t endpoint_max_queue_bytes = 0;
  // Memory accounting: graph bytes, multipath table bytes (shared arena +
  // per-switch slots), and the fleet shape they are amortized over.
  size_t topo_bytes = 0;
  size_t path_table_bytes = 0;
  size_t static_table_bytes = 0;
  int num_switches = 0;
  int num_dcis = 0;
  // Incast family only (incast_fanin > 0): slowdown summary over the incast
  // flows alone (the background matrix stays in `overall`).
  SlowdownStats incast;
  int incast_flows_completed = 0;

  // Slowdown summary filtered to one ordered DC pair.
  SlowdownStats ForDcPair(DcId src, DcId dst) const;
  // Summary over both directions of a DC pair.
  SlowdownStats ForDcPairBidir(DcId a, DcId b) const;
};

// Builds the experiment's graph (exposed for tests/examples).
Graph BuildTopology(const ExperimentConfig& config);

// Traffic pairing for the experiment's topology.
std::vector<std::pair<DcId, DcId>> BuildPairing(const ExperimentConfig& config, int num_dcs);

// Rejects values outside the domains the CLI help states: flows > 0, load in
// (0, 1], mix_intra in [0, 1), dci_loss_rate in [0, 1), max_inflight_bytes
// >= 0. Returns false and names the offending field in `error`.
bool ValidateExperimentConfig(const ExperimentConfig& config, std::string* error);

// Runs one experiment to completion (or the horizon) and gathers results.
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace lcmp

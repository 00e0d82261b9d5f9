// Token-keyed congestion-control registry (the CcFactory redesign).
//
// The old CcKind enum hard-wired four algorithms into switch statements in
// the transport, the harness and every bench binary. The registry replaces
// that with string tokens: each algorithm's .cc registers a factory (and its
// needs-INT flag) through an explicit Register*Cc hook — *explicit* because
// static-initializer self-registration is dead-stripped out of static
// archives — and everything downstream (flags, sweep fields, golden echoes)
// speaks tokens.
//
// SegmentCcSpec is the flow-level assignment: which token runs on the
// long-haul (inter) segment and which inside the end fabrics (intra). A
// uniform spec reproduces the legacy single-instance transport bit for bit;
// a split spec instantiates the SegmentedCc composite (segmented_cc.h).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "transport/cc/congestion_control.h"
#include "transport/cc/dcqcn.h"
#include "transport/cc/dctcp.h"
#include "transport/cc/hpcc.h"
#include "transport/cc/lcp.h"
#include "transport/cc/timely.h"

namespace lcmp {

// Per-algorithm tuning bundle handed to every factory. One struct per kind —
// a factory reads only its own sub-struct, so a single CcTuning can describe
// any algorithm choice (and the harness keeps one per segment).
struct CcTuning {
  DcqcnParams dcqcn;
  HpccParams hpcc;
  TimelyParams timely;
  DctcpParams dctcp;
  LcpParams lcp;
};

class CcRegistry {
 public:
  using Factory = std::function<std::unique_ptr<CongestionControl>(const CcTuning&)>;

  // The process-wide registry with all built-in algorithms registered.
  static CcRegistry& Instance();

  void Register(const std::string& token, Factory factory, bool needs_int);

  bool Known(const std::string& token) const;
  std::unique_ptr<CongestionControl> Create(const std::string& token,
                                            const CcTuning& tuning = {}) const;
  // True when the controller consumes HPCC-style in-band telemetry; the
  // network then stamps INT records on DATA packets.
  bool NeedsInt(const std::string& token) const;
  // Registration-order token list, for usage strings and error messages.
  const std::vector<std::string>& Tokens() const { return tokens_; }
  // "dcqcn | hpcc | timely | dctcp | lcp" for flag help / parse errors.
  std::string TokensJoined() const;

 private:
  CcRegistry() = default;
  struct Entry {
    Factory factory;
    bool needs_int = false;
  };
  std::vector<std::string> tokens_;
  std::map<std::string, Entry> entries_;
};

// Explicit registration hooks, one per algorithm translation unit; invoked
// once by CcRegistry::Instance().
void RegisterDcqcnCc(CcRegistry& registry);
void RegisterHpccCc(CcRegistry& registry);
void RegisterTimelyCc(CcRegistry& registry);
void RegisterDctcpCc(CcRegistry& registry);
void RegisterLcpCc(CcRegistry& registry);

// Parses a single algorithm token ("dcqcn", "lcp", ...); false + *error
// listing the known tokens on anything else.
bool ParseCcToken(const std::string& text, std::string* token, std::string* error);

// A flow's segment-split CC assignment.
struct SegmentCcSpec {
  std::string inter = "dcqcn";  // long-haul segment algorithm
  std::string intra = "dcqcn";  // end-fabric segment algorithm

  bool uniform() const { return inter == intra; }
  // Canonical token: "dcqcn" for uniform specs, "lcp/dcqcn" (inter/intra)
  // for split ones. Round-trips through Parse.
  std::string Token() const;
  // Accepts "tok" (sets both segments) or "interTok/intraTok".
  static bool Parse(const std::string& text, SegmentCcSpec* out, std::string* error);

  friend bool operator==(const SegmentCcSpec&, const SegmentCcSpec&) = default;
};

// True when any segment's algorithm needs INT stamping.
bool CcNeedsInt(const SegmentCcSpec& spec);

}  // namespace lcmp

// Bounded flow cache (Sec. 3.1.2 step 4 / Sec. 4).
//
// Maps a flow identifier to the chosen egress with a last-seen timestamp:
//   entry = flowId (8 B) + outDevIdx (4 B) + lastSeen (8 B) = 20 B/flow.
// Established flows refresh lastSeen and forward via the recorded egress,
// guaranteeing per-flow path consistency (no RDMA reordering). A periodic
// garbage collection evicts idle entries; a full cache evicts the stalest
// entry in the probed neighborhood so insertion stays O(1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace lcmp {

class FlowCache {
 public:
  // The paper's entry layout (20 B).
  struct Entry {
    FlowId flow_id = 0;        // 0 marks an empty slot
    PortIndex out_dev_idx = kInvalidPort;
    TimeNs last_seen = 0;
  };
  static constexpr size_t kBytesPerEntry = 20;  // Sec. 4 accounting
  // Deleted-slot marker: probing continues through tombstones so live entries
  // deeper in a chain stay reachable (flows must never be silently re-placed
  // mid-life, or they would be re-routed and reordered).
  static constexpr FlowId kTombstone = ~FlowId{0};

  // `capacity` is the maximum number of live entries; `idle_timeout` drives
  // both GC and lookup-time staleness rejection.
  FlowCache(int capacity, TimeNs idle_timeout);

  // Established-flow fast path: returns the recorded egress and refreshes
  // lastSeen, or kInvalidPort when the flow is unknown/expired.
  PortIndex Lookup(FlowId flow, TimeNs now);

  // Records the decision for a new flow. Evicts an expired or the stalest
  // probed entry when the table is full.
  void Insert(FlowId flow, PortIndex port, TimeNs now);

  // Invalidates one entry (data-plane fast-failover overwrites entries that
  // point at dead ports, Sec. 3.4).
  void Invalidate(FlowId flow);

  // Periodic GC sweep: evicts entries idle longer than the timeout.
  // Returns the number of evicted entries.
  int Gc(TimeNs now);

  int size() const { return live_; }
  int capacity() const { return capacity_; }

  // Read-only sweep over every live entry (fault-injection invariant
  // monitoring: "no entry still points at a dead egress"). Not a hot path.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Entry& e : slots_) {
      if (e.flow_id != 0 && e.flow_id != kTombstone) {
        fn(e);
      }
    }
  }

  // Paper-accounting memory footprint (entries * 20 B).
  size_t MemoryBytes() const { return static_cast<size_t>(capacity_) * kBytesPerEntry; }

  // --- statistics ---
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }

 private:
  // Open-addressing with linear probing; power-of-two slot count.
  size_t SlotFor(FlowId flow) const;
  Entry* Find(FlowId flow);
  // Allocates the slot array on first use (Insert only; Lookup on a
  // never-written cache is a plain miss).
  void EnsureSlots();

  int capacity_;
  TimeNs idle_timeout_;
  size_t mask_;
  std::vector<Entry> slots_;
  int live_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  // Fleet-wide metric handles, resolved once at construction (all caches
  // aggregate into the same cells).
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_evictions_;
};

}  // namespace lcmp

// ShadowBank: one neighborhood's shadow caches — the cached-set
// bookkeeping of every registered (eviction scorer x admission policy)
// pair, maintained against the same session stream the primary policy is
// replaying, in the same single pass.
//
// A shadow cell owns exactly what its policy decides: a full SegmentStore
// (placement differs per policy), its own serve transmissions (busy misses
// depend on which boxes hold replicas, so membership alone cannot
// reproduce a standalone run's counters), its scorer's cached-set ranking,
// its admission policy, and its counters.  Everything else is read from
// state the shard keeps once for all sides, because it is the same under
// every policy:
//
//  * the access ledger (cache/access_ledger.hpp) — recency, counts, and the
//    global replay cursor, written once per session start;
//  * viewer playback occupancy (hfc::ViewerOccupancy, the primary's) —
//    playback is never refused, so it is policy-independent;
//  * the primary's coax meter, for the headroom-gated admissions.  Coax
//    metering is policy-independent: every segment transmission is metered
//    exactly once whatever policy runs (paper section VI-B — the broadcast
//    consumes the wire whether a peer or the server sends it).
//
// Sharing is exact because each shared structure is a pure function of the
// session stream, which every side sees identically, and because each cell
// reads it at the same points of that stream a standalone run would.  A
// cell moves no bytes, feeds no rate meter, walks no tier tree, and never
// writes the primary's state — so with shadows on, the primary's event
// sequence is instruction-for-instruction the no-shadow sequence, and its
// report stays byte-identical (pinned in tests/shadow_bank_test.cpp, which
// also pins every cell's counters equal to a standalone run of its pair).
//
// Call protocol mirrors core::IndexServer call for call — start_session ->
// serve_segment per boundary, and fail_peer per failure draw — invoked by
// the shard immediately after the primary's counterpart, so each shadow
// sees the standalone event order.
//
// Zero steady-state allocations: stores are FlatMap64/PooledArena, serve
// slots are one flat array per cell, admission histories are flat tables
// or fixed sketch arrays (enforced by tests/allocation_audit_test.cpp with
// shadows on).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/admission.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

// Mirror of IndexServer's policy-dependent counters.  Policy-independent
// ones (peer failures, wiped bytes, metered totals) are deliberately
// absent — they are identical across the matrix and already in the primary
// report.
struct ShadowCounters {
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  std::uint64_t admission_denials = 0;
  double hit_bits = 0.0;
  double miss_bits = 0.0;

  ShadowCounters& operator+=(const ShadowCounters& other) {
    sessions += other.sessions;
    segments += other.segments;
    hits += other.hits;
    cold_misses += other.cold_misses;
    busy_misses += other.busy_misses;
    evictions += other.evictions;
    fills += other.fills;
    admission_denials += other.admission_denials;
    hit_bits += other.hit_bits;
    miss_bits += other.miss_bits;
    return *this;
  }
  bool operator==(const ShadowCounters&) const = default;
};

class ShadowBank {
 public:
  // One (scorer x admission) pair to shadow.  The display names label the
  // report cell; `scorer` must be non-null (a no-cache shadow would count
  // nothing), `admission` may be null for the always-admit fast path —
  // exactly the IndexServer convention.
  struct PairSpec {
    const char* scorer_display = "";
    const char* admission_display = "";
    std::unique_ptr<EvictionScorer> scorer;
    std::unique_ptr<AdmissionPolicy> admission;
  };

  // The slice of the system configuration the shadow replay logic reads,
  // decoupled from core::SystemConfig (this layer cannot see core).
  struct Settings {
    bool whole_program = true;  // CacheAdmission::WholeProgram vs Segment
    bool replicate_on_busy = false;
    int peer_stream_limit = 2;
    DataRate stream_rate;
    DataSize per_peer_storage;
  };

  // Admit bitmasks cap the matrix at 64 pairs per bank.
  static constexpr std::size_t kMaxPairs = 64;

  // `primary_coax` (the owning neighborhood's coax meter, fed by the
  // primary) and `viewers` (its viewer playback record) must outlive the
  // bank.
  ShadowBank(std::vector<PairSpec> pairs, const Settings& settings,
             std::uint32_t peer_count, const sim::RateMeter* primary_coax,
             const hfc::ViewerOccupancy* viewers);

  ShadowBank(const ShadowBank&) = delete;
  ShadowBank& operator=(const ShadowBank&) = delete;

  [[nodiscard]] std::size_t pair_count() const { return shadows_.size(); }
  [[nodiscard]] const char* scorer_name(std::size_t pair) const {
    return shadows_[pair].scorer_display;
  }
  [[nodiscard]] const char* admission_name(std::size_t pair) const {
    return shadows_[pair].admission_display;
  }
  [[nodiscard]] const ShadowCounters& counters(std::size_t pair) const {
    return shadows_[pair].counters;
  }

  // Mirrors IndexServer::start_session for every pair; bit p of the result
  // is pair p's whole-session admit decision.
  [[nodiscard]] std::uint64_t start_session(ProgramId program,
                                            DataSize program_size,
                                            sim::SimTime t);

  // Mirrors IndexServer::serve_segment; bit p of `admit_mask` is pair p's
  // decision from start_session.
  void serve_segment(SegmentKey key, sim::Interval interval,
                     std::uint64_t admit_mask, bool full_slice);

  // Mirrors IndexServer::fail_peer.
  void fail_peer(PeerId peer);

  // Live policy switching (cache::PolicySwitcher): mutable references into
  // one cell's private state, so the shard can exchange it wholesale with
  // the primary's — the cell's store/serve slots/policy state is promoted
  // to be the primary's warm cached set, and the demoted primary state
  // drops into the cell.  Counters are deliberately absent: both ledgers keep
  // accumulating in place across a switch (the primary's report stays one
  // continuous history; conservation — segments == hits + misses — holds
  // on both sides because each serve still bumps exactly one bucket).
  struct CellState {
    const char*& scorer_display;
    const char*& admission_display;
    std::unique_ptr<EvictionScorer>& scorer;
    std::unique_ptr<AdmissionPolicy>& admission;
    SegmentStore& store;
    hfc::StreamSlots& slots;
  };
  [[nodiscard]] CellState cell_state(std::size_t pair);

 private:
  struct Shadow {
    const char* scorer_display;
    const char* admission_display;
    std::unique_ptr<EvictionScorer> scorer;
    std::unique_ptr<AdmissionPolicy> admission;
    SegmentStore store;
    hfc::StreamSlots slots;
    ShadowCounters counters;
  };

  [[nodiscard]] bool allows(Shadow& shadow, ProgramId program, sim::SimTime t);
  [[nodiscard]] bool start_one(Shadow& shadow, ProgramId program,
                               DataSize program_size, sim::SimTime t);
  // Stores `bytes` for `key`, evicting as IndexServer::make_room does.
  [[nodiscard]] bool make_room(Shadow& shadow, SegmentKey key, DataSize bytes,
                               sim::SimTime t);
  void try_fill(Shadow& shadow, SegmentKey key, DataSize bytes, sim::SimTime t);

  Settings settings_;
  const sim::RateMeter* primary_coax_;
  const hfc::ViewerOccupancy* viewers_;
  std::vector<Shadow> shadows_;
};

}  // namespace vodcache::cache

// CacheCell: one cache policy's decisions for one neighborhood — the
// headend index server's placement logic (paper section IV-B) for a single
// (eviction scorer x admission policy) pair.
//
// At session start the cell records the popularity signal and decides
// whether the program should (now) be in the cache; at each segment it
// locates the replicas, serves from a peer with a free stream slot or
// classifies the miss (cold: not cached; busy: every storing peer is at its
// stream limit), and fills off the broadcast when the session was
// admitted, evicting lower-scored programs to make room.  A peer failure
// wipes the cell's store.
//
// The primary policy (core::IndexServer) and every shadow cell
// (cache::ShadowBank) are instances of this one type, so they run the same
// code.  A cell owns exactly what its policy decides: its scorer, its
// admission policy, its SegmentStore (placement differs per policy), its
// serve slots (busy misses depend on which boxes hold replicas) and its
// two display names.  What is the same under every policy comes in as
// arguments, never stored:
//
//  * the neighborhood's coax meter, read by headroom-gated admission
//    (every segment is metered exactly once whatever policy runs — paper
//    section VI-B);
//  * viewer playback occupancy (hfc::ViewerOccupancy) — playback is never
//    refused, so it is policy-independent;
//  * the counters each call bumps.  They belong to the caller's side, not
//    to the cell, so a live policy switch is one std::swap of two cells
//    while each side's counters keep accumulating in place (the primary's
//    report stays one continuous history).
//
// A cell moves no bytes and feeds no rate meter; metering, the tier walk
// and the media-server serve are the primary's additions around its cell.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/admission.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

// A cell's policy-dependent counters.  Policy-independent ones (peer
// failures, wiped bytes, tier hits) are the primary's alone — identical
// across the matrix and already in the primary report.
struct CellCounters {
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  // Sessions whose program the admission policy refused to cache (always
  // 0 under always-admit).
  std::uint64_t admission_denials = 0;
  double hit_bits = 0.0;
  double miss_bits = 0.0;

  CellCounters& operator+=(const CellCounters& other) {
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
  bool operator==(const CellCounters&) const = default;
};

// The slice of the system configuration a cell reads (this layer cannot
// see core::SystemConfig; core::cell_rules derives it).
struct CellRules {
  bool whole_program = true;  // CacheAdmission::WholeProgram vs Segment
  bool replicate_on_busy = false;
  int peer_stream_limit = 2;
  DataRate stream_rate;
  DataSize per_peer_storage;
};

enum class ServeResult {
  // A peer broadcast the segment from its cache slice.
  PeerHit,
  // Segment not in the neighborhood cache; central server streamed it.
  MissCold,
  // Segment cached, but the storing peer was at its stream limit
  // (section V-C: "the cache will trigger a miss if a segment is requested
  // from a peer that has more than two active streams").
  MissBusy,
};

class CacheCell {
 public:
  // `scorer` may be null (StrategyKind::None: no cache at all; only the
  // primary can be one); `admission` may be null, which means always-admit
  // with no virtual call and no meter query.  The display names label the
  // cell in the shadow matrix and the switch log.
  CacheCell(const char* scorer_name, const char* admission_name,
            std::unique_ptr<EvictionScorer> scorer,
            std::unique_ptr<AdmissionPolicy> admission, const CellRules& rules,
            std::uint32_t peer_count);

  // Session begins: records the popularity signal and decides whether this
  // program should (now) be in the cache.  `program_size` is the program's
  // full footprint at the stream rate (whole-program admission charges it
  // against capacity immediately).  The decision holds for the whole
  // session's opportunistic fills.
  [[nodiscard]] bool start_session(ProgramId program, DataSize program_size,
                                   sim::SimTime t, const sim::RateMeter& coax,
                                   CellCounters& counters);

  // Serves one segment transmission from the cell's replicas, or classifies
  // the miss and — when `admit` and the transmission covers the segment's
  // whole nominal duration (`full_slice`) — stores it off the broadcast.
  ServeResult serve_segment(SegmentKey key, sim::Interval interval, bool admit,
                            bool full_slice,
                            const hfc::ViewerOccupancy& viewers,
                            CellCounters& counters);

  // Failure injection: the peer's disk contents are lost.  Whole-program
  // admissions survive (the index server re-fills from future broadcasts);
  // under segment-granularity admission, programs that lost their last
  // segment leave the scorer's cached set.  Returns the bytes freed.
  DataSize fail_peer(PeerId peer);

  [[nodiscard]] const char* scorer_name() const { return scorer_name_; }
  [[nodiscard]] const char* admission_name() const { return admission_name_; }
  [[nodiscard]] const SegmentStore& store() const { return store_; }
  [[nodiscard]] const EvictionScorer* scorer() const { return scorer_.get(); }
  [[nodiscard]] const AdmissionPolicy* admission() const {
    return admission_.get();
  }
  [[nodiscard]] std::uint32_t peer_count() const { return slots_.peer_count(); }

 private:
  // The admission policy's verdict for `program` at `t` (counts a denial).
  [[nodiscard]] bool admits(ProgramId program, sim::SimTime t,
                            const sim::RateMeter& coax,
                            CellCounters& counters);
  // Evicts the scorer's victim if `incoming` strictly outranks it; false,
  // evicting nothing, when there is no victim or it is `incoming` itself.
  [[nodiscard]] bool evict_for(ProgramId incoming, sim::SimTime t,
                               CellCounters& counters);
  // Stores `bytes` for `key`, evicting strictly-lower-scored programs until
  // the store can physically place it (per-peer placement: aggregate free
  // space is not enough).
  void try_fill(SegmentKey key, DataSize bytes, sim::SimTime t,
                CellCounters& counters);

  const char* scorer_name_;
  const char* admission_name_;
  std::unique_ptr<EvictionScorer> scorer_;
  std::unique_ptr<AdmissionPolicy> admission_;
  CellRules rules_;
  SegmentStore store_;
  hfc::StreamSlots slots_;
};

}  // namespace vodcache::cache

// The headend index server (paper section IV-B, figures 4 and 5).
//
// One per neighborhood.  It monitors every request to compute popularity,
// dictates placement ("placement is not probabilistic"), and directs each
// segment request:
//
//   hit  (fig 5): locate the storing peer; if it has a free stream slot it
//                 broadcasts the segment on the coax.
//   miss (fig 4): the central media server streams the segment over fiber
//                 and the headend broadcasts it; if the program has been
//                 admitted to the cache, a peer is told to read the same
//                 broadcast off the wire and store it (no extra bandwidth).
//
// With a tier tree configured (beyond the paper's two levels), a miss
// walks up the tree first: the lowest tier node holding the program in its
// prefetch plan serves it, and only a full walk-through reaches the
// origin.  Tier traffic still rides this neighborhood's fiber feed, so
// coax and fiber metering are unchanged — only who pays for the bytes
// moves.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/admission.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "core/config.hpp"
#include "core/media_server.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"

namespace vodcache::core {

class TierSystem;

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

class IndexServer {
 public:
  // Composes one eviction scorer with one admission policy.  `scorer` may
  // be null (StrategyKind::None: no cache at all); `admission` may be null,
  // which means always-admit (the paper's behaviour) — convenient for
  // direct construction in tests, while the shard always passes a policy
  // built from the registry.
  // `tiers` (owned by the orchestrator, outliving the server) enables the
  // multi-tier miss walk; null is the paper's two-level world.
  // `tier_nodes` is this neighborhood's node path, one node id per level.
  IndexServer(NeighborhoodId id, std::uint32_t peer_count,
              const SystemConfig& config,
              std::unique_ptr<cache::EvictionScorer> scorer,
              std::unique_ptr<cache::AdmissionPolicy> admission,
              MediaServer& media_server, sim::SimTime horizon,
              const TierSystem* tiers = nullptr,
              std::vector<std::uint32_t> tier_nodes = {});

  // Session begins: records the popularity signal and decides whether this
  // program should (now) be in the cache.  `program_size` is the program's
  // full footprint at the stream rate (whole-program admission charges it
  // against capacity immediately).  The decision holds for the whole
  // session's opportunistic fills.
  [[nodiscard]] bool start_session(ProgramId program, DataSize program_size,
                                   sim::SimTime t);

  // Serve one segment transmission for a viewer in this neighborhood.
  // `full_slice` says the transmission covers the segment's entire nominal
  // duration (only fully-broadcast segments can be cached off the wire).
  ServeResult serve_segment(PeerId viewer, cache::SegmentKey key,
                            sim::Interval interval, bool admit,
                            bool full_slice);

  // Viewer playback always occupies a receive slot on the viewer's box for
  // the whole session (counts against its limit when asked to serve).  The
  // record is policy-independent: shadow cells read it through viewers().
  void occupy_viewer_slot(PeerId viewer, sim::Interval interval);

  // Failure injection: the peer's disk contents are lost (box swap/crash).
  // Whole-program admissions survive (the index server re-fills from
  // future broadcasts); under segment-granularity admission, programs that
  // lost their last segment are dropped from the strategy's cached set.
  void fail_peer(PeerId peer);

  // Warm policy switch (cache::PolicySwitcher): exchange this server's
  // cached set and policy state with a shadow cell's — the cell's
  // SegmentStore, serve slots, scorer, and admission policy become the
  // primary's (no cold restart), and the old primary state moves out
  // through the same references (demotion into the cell).  Viewer
  // playback is policy-independent and stays put, as do counters and
  // meters: the report remains one continuous per-neighborhood history,
  // and metering is policy-independent anyway.
  void swap_policy_state(std::unique_ptr<cache::EvictionScorer>& scorer,
                         std::unique_ptr<cache::AdmissionPolicy>& admission,
                         cache::SegmentStore& store, hfc::StreamSlots& slots);

  [[nodiscard]] NeighborhoodId id() const { return id_; }
  [[nodiscard]] std::uint32_t peer_count() const {
    return viewers_.peer_count();
  }
  [[nodiscard]] const hfc::ViewerOccupancy& viewers() const {
    return viewers_;
  }
  [[nodiscard]] const cache::SegmentStore& store() const { return store_; }
  [[nodiscard]] const cache::EvictionScorer& scorer() const {
    return *scorer_;
  }
  // Null means no policy gates admission (always-admit, the paper path).
  [[nodiscard]] const cache::AdmissionPolicy* admission() const {
    return admission_.get();
  }
  // All traffic on this neighborhood's coax (hits and misses alike).
  [[nodiscard]] const sim::RateMeter& coax_meter() const { return coax_meter_; }
  // The peer-originated share of that traffic (hits only).
  [[nodiscard]] const sim::RateMeter& peer_meter() const { return peer_meter_; }
  // The share absorbed by tier `level` (tiered runs only; same
  // horizon-clipping as every other meter, so byte conservation holds
  // exactly: coax == peer + sum(tiers) + origin).
  [[nodiscard]] const sim::RateMeter& tier_meter(std::size_t level) const {
    return tier_meters_[level];
  }

  struct Counters {
    std::uint64_t sessions = 0;
    std::uint64_t segments = 0;
    std::uint64_t hits = 0;
    std::uint64_t cold_misses = 0;
    std::uint64_t busy_misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t fills = 0;
    // Sessions whose program the admission policy refused to cache
    // (always 0 under always-admit; reported only when a gate is active).
    std::uint64_t admission_denials = 0;
    std::uint64_t peer_failures = 0;
    double hit_bits = 0.0;
    double miss_bits = 0.0;
    double wiped_bytes = 0.0;
    // Per tier level (SystemConfig::tiers order): neighborhood misses the
    // level's node absorbed.  Empty in the two-level world.
    std::vector<std::uint64_t> tier_hits;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  // Stores `bytes` for `key`, evicting strictly-lower-scored programs until
  // the store can physically place it (per-peer placement: aggregate free
  // space is not enough).  Returns false, storing nothing, if the incoming
  // program stops outranking the next victim first.
  bool make_room(cache::SegmentKey key, DataSize bytes, sim::SimTime t);
  void try_fill(cache::SegmentKey key, DataSize bytes, sim::SimTime t);
  // The admission policy's verdict for a program missed at `t` (counts a
  // denial).  True when no policy is configured.
  [[nodiscard]] bool admission_allows(ProgramId program, sim::SimTime t);

  NeighborhoodId id_;
  const SystemConfig& config_;
  std::unique_ptr<cache::EvictionScorer> scorer_;
  std::unique_ptr<cache::AdmissionPolicy> admission_;
  MediaServer& media_server_;
  cache::SegmentStore store_;
  hfc::ViewerOccupancy viewers_;
  hfc::StreamSlots slots_;
  sim::RateMeter coax_meter_;
  sim::RateMeter peer_meter_;
  const TierSystem* tiers_;
  std::vector<std::uint32_t> tier_nodes_;
  std::vector<sim::RateMeter> tier_meters_;
  Counters counters_;
};

}  // namespace vodcache::core

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
// Every placement decision — admit, locate, serve, fill, evict, wipe — is
// the primary policy's cache::CacheCell, the same type every shadow cell
// is.  The server adds what only the primary does around its cell: coax
// and peer metering, viewer playback occupancy, the media-server serve,
// the tier walk, and the policy-independent counters (peer failures, wiped
// bytes, tier hits).
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
#include "cache/cache_cell.hpp"
#include "cache/segment_store.hpp"
#include "cache/strategy.hpp"
#include "core/config.hpp"
#include "core/media_server.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"

namespace vodcache::core {

class TierSystem;

using cache::ServeResult;

// The configuration slice every cache cell reads, derived from the system
// configuration in this one place.
[[nodiscard]] cache::CellRules cell_rules(const SystemConfig& config);

class IndexServer {
 public:
  // `cell` is the primary policy (its peer count is the neighborhood's).
  // `tiers` (owned by the orchestrator, outliving the server) enables the
  // multi-tier miss walk; null is the paper's two-level world.
  // `tier_nodes` is this neighborhood's node path, one node id per level.
  IndexServer(NeighborhoodId id, const SystemConfig& config,
              cache::CacheCell cell, MediaServer& media_server,
              sim::SimTime horizon, const TierSystem* tiers = nullptr,
              std::vector<std::uint32_t> tier_nodes = {});

  // Direct construction (tests): an unnamed cell composing one eviction
  // scorer with one admission policy.  `scorer` may be null
  // (StrategyKind::None: no cache at all); `admission` may be null, which
  // means always-admit (the paper's behaviour).
  IndexServer(NeighborhoodId id, std::uint32_t peer_count,
              const SystemConfig& config,
              std::unique_ptr<cache::EvictionScorer> scorer,
              std::unique_ptr<cache::AdmissionPolicy> admission,
              MediaServer& media_server, sim::SimTime horizon);

  // Session begins: the cell's admit decision (see CacheCell), gated on
  // this neighborhood's coax meter.
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
  void fail_peer(PeerId peer);

  [[nodiscard]] NeighborhoodId id() const { return id_; }
  [[nodiscard]] std::uint32_t peer_count() const {
    return viewers_.peer_count();
  }
  [[nodiscard]] const hfc::ViewerOccupancy& viewers() const {
    return viewers_;
  }
  // The primary policy.  The shard's warm policy switch (cache::
  // PolicySwitcher) swaps it with a shadow cell through the mutable
  // overload; viewer playback, meters and counters stay put, so the report
  // remains one continuous per-neighborhood history.
  [[nodiscard]] const cache::CacheCell& cell() const { return cell_; }
  [[nodiscard]] cache::CacheCell& cell() { return cell_; }
  [[nodiscard]] const cache::SegmentStore& store() const {
    return cell_.store();
  }
  [[nodiscard]] const cache::EvictionScorer& scorer() const {
    return *cell_.scorer();
  }
  // Null means no policy gates admission (always-admit, the paper path).
  [[nodiscard]] const cache::AdmissionPolicy* admission() const {
    return cell_.admission();
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

  // The cell's counters plus what only the primary counts.
  struct Counters : cache::CellCounters {
    std::uint64_t peer_failures = 0;
    double wiped_bytes = 0.0;
    // Per tier level (SystemConfig::tiers order): neighborhood misses the
    // level's node absorbed.  Empty in the two-level world.
    std::vector<std::uint64_t> tier_hits;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  NeighborhoodId id_;
  const SystemConfig& config_;
  cache::CacheCell cell_;
  MediaServer& media_server_;
  hfc::ViewerOccupancy viewers_;
  sim::RateMeter coax_meter_;
  sim::RateMeter peer_meter_;
  const TierSystem* tiers_;
  std::vector<std::uint32_t> tier_nodes_;
  std::vector<sim::RateMeter> tier_meters_;
  Counters counters_;
};

}  // namespace vodcache::core

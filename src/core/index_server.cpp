#include "core/index_server.hpp"

#include <utility>

#include "core/tier_system.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

cache::CellRules cell_rules(const SystemConfig& config) {
  cache::CellRules rules;
  rules.whole_program = config.admission == CacheAdmission::WholeProgram;
  rules.replicate_on_busy = config.replicate_on_busy;
  rules.peer_stream_limit = config.peer_stream_limit;
  rules.stream_rate = config.stream_rate;
  rules.per_peer_storage = config.per_peer_storage;
  return rules;
}

IndexServer::IndexServer(NeighborhoodId id, const SystemConfig& config,
                         cache::CacheCell cell, MediaServer& media_server,
                         sim::SimTime horizon, const TierSystem* tiers,
                         std::vector<std::uint32_t> tier_nodes)
    : id_(id),
      config_(config),
      cell_(std::move(cell)),
      media_server_(media_server),
      viewers_(cell_.peer_count()),
      coax_meter_(horizon, config.meter_bucket),
      peer_meter_(horizon, config.meter_bucket),
      tiers_(tiers),
      tier_nodes_(std::move(tier_nodes)) {
  if (tiers_ != nullptr) {
    VODCACHE_EXPECTS(tier_nodes_.size() == tiers_->level_count());
    counters_.tier_hits.assign(tiers_->level_count(), 0);
    tier_meters_.reserve(tiers_->level_count());
    for (std::size_t l = 0; l < tiers_->level_count(); ++l) {
      tier_meters_.emplace_back(horizon, config.meter_bucket);
    }
  }
}

IndexServer::IndexServer(NeighborhoodId id, std::uint32_t peer_count,
                         const SystemConfig& config,
                         std::unique_ptr<cache::EvictionScorer> scorer,
                         std::unique_ptr<cache::AdmissionPolicy> admission,
                         MediaServer& media_server, sim::SimTime horizon)
    : IndexServer(id, config,
                  cache::CacheCell("", "", std::move(scorer),
                                   std::move(admission), cell_rules(config),
                                   peer_count),
                  media_server, horizon) {}

bool IndexServer::start_session(ProgramId program, DataSize program_size,
                                sim::SimTime t) {
  return cell_.start_session(program, program_size, t, coax_meter_,
                             counters_);
}

void IndexServer::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  viewers_.occupy(viewer, interval);
}

void IndexServer::fail_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < peer_count());
  ++counters_.peer_failures;
  counters_.wiped_bytes += cell_.fail_peer(peer).byte_count();
}

ServeResult IndexServer::serve_segment(PeerId viewer, cache::SegmentKey key,
                                       sim::Interval interval, bool admit,
                                       bool full_slice) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  VODCACHE_EXPECTS(interval.valid());
  const DataRate rate = config_.stream_rate;

  // Broadcast coax carries the segment exactly once regardless of source
  // (paper section VI-B: "each file must consume the same bandwidth whether
  // it is sent from a peer or the index server").
  coax_meter_.add(interval, rate);

  const ServeResult result = cell_.serve_segment(key, interval, admit,
                                                 full_slice, viewers_,
                                                 counters_);
  if (result == ServeResult::PeerHit) {
    peer_meter_.add(interval, rate);
    return result;
  }

  // Multi-tier walk: the lowest tier node holding the program absorbs the
  // miss; only a full walk-through reaches the origin.  tiers_ == nullptr
  // (the two-level world) is structurally the pre-tier path — no lookup,
  // the origin serves every miss.
  if (tiers_ != nullptr) {
    if (const auto level =
            tiers_->serving_level(tier_nodes_, key.program, interval.begin)) {
      ++counters_.tier_hits[*level];
      tier_meters_[*level].add(interval, rate);
      return result;
    }
  }
  media_server_.serve(interval, rate);
  return result;
}

}  // namespace vodcache::core

#include "core/index_server.hpp"

#include <utility>

#include "core/tier_system.hpp"
#include "util/assert.hpp"

namespace vodcache::core {

namespace {

std::vector<DataSize> contributions(std::uint32_t peer_count,
                                    DataSize per_peer) {
  return std::vector<DataSize>(peer_count, per_peer);
}

}  // namespace

// admission_ == nullptr is the always-admit fast path: no virtual call, no
// rate-meter query — byte-for-byte the pre-policy-engine request flow.
IndexServer::IndexServer(NeighborhoodId id, std::uint32_t peer_count,
                         const SystemConfig& config,
                         std::unique_ptr<cache::EvictionScorer> scorer,
                         std::unique_ptr<cache::AdmissionPolicy> admission,
                         MediaServer& media_server, sim::SimTime horizon,
                         const TierSystem* tiers,
                         std::vector<std::uint32_t> tier_nodes)
    : id_(id),
      config_(config),
      scorer_(std::move(scorer)),
      admission_(std::move(admission)),
      media_server_(media_server),
      store_(contributions(peer_count, config.per_peer_storage)),
      viewers_(peer_count),
      slots_(peer_count, config.peer_stream_limit),
      coax_meter_(horizon, config.meter_bucket),
      peer_meter_(horizon, config.meter_bucket),
      tiers_(tiers),
      tier_nodes_(std::move(tier_nodes)) {
  VODCACHE_EXPECTS(peer_count > 0);
  if (tiers_ != nullptr) {
    VODCACHE_EXPECTS(tier_nodes_.size() == tiers_->level_count());
    counters_.tier_hits.assign(tiers_->level_count(), 0);
    tier_meters_.reserve(tiers_->level_count());
    for (std::size_t l = 0; l < tiers_->level_count(); ++l) {
      tier_meters_.emplace_back(horizon, config.meter_bucket);
    }
  }
}

bool IndexServer::admission_allows(ProgramId program, sim::SimTime t) {
  if (admission_ == nullptr) return true;
  if (admission_->admit({program, t, coax_meter_.rate_at(t)})) return true;
  ++counters_.admission_denials;
  return false;
}

bool IndexServer::start_session(ProgramId program, DataSize program_size,
                                sim::SimTime t) {
  ++counters_.sessions;
  if (scorer_ == nullptr) return false;  // StrategyKind::None
  scorer_->record_access(program, t);
  if (admission_ != nullptr) admission_->record_access(program, t);

  if (config_.admission == CacheAdmission::WholeProgram) {
    // Already admitted: keep filling it.
    if (store_.has_commitment(program)) return true;
    if (!admission_allows(program, t)) return false;
    // Charge the whole program against capacity now, evicting victims the
    // scorer ranks below it ("it locates a collection of peers to store
    // the segments ... instruct peers to delete programs").
    while (store_.committed_total() + program_size > store_.capacity()) {
      const auto victim = scorer_->victim(t);
      if (!victim) return false;  // program larger than the whole cache
      if (*victim == program) return false;
      if (scorer_->score(program, t) <= scorer_->score(*victim, t)) {
        return false;
      }
      store_.evict_program(*victim);
      scorer_->on_evict(*victim);
      ++counters_.evictions;
    }
    store_.commit_program(program, program_size);
    scorer_->on_admit(program, t);
    return true;
  }

  // Segment-granularity ablation.
  // Already (partially) cached: keep filling it.
  if (store_.has_program(program)) return true;
  if (!admission_allows(program, t)) return false;
  // Free space: caching one more program costs nothing.
  if (store_.free_space() > DataSize{}) return true;
  // Full: admit only if the program outranks the current victim.
  const auto victim = scorer_->victim(t);
  if (!victim) return false;
  return scorer_->score(program, t) > scorer_->score(*victim, t);
}

void IndexServer::occupy_viewer_slot(PeerId viewer, sim::Interval interval) {
  viewers_.occupy(viewer, interval);
}

void IndexServer::fail_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < peer_count());
  const auto wiped = store_.wipe_peer(peer);
  ++counters_.peer_failures;
  counters_.wiped_bytes += wiped.freed.byte_count();
  if (scorer_ != nullptr &&
      config_.admission == CacheAdmission::Segment) {
    for (const ProgramId program : wiped.emptied_programs) {
      if (scorer_->is_cached(program)) scorer_->on_evict(program);
    }
  }
}

bool IndexServer::make_room(cache::SegmentKey key, DataSize bytes,
                            sim::SimTime t) {
  while (!store_.store(key, bytes)) {
    const auto victim = scorer_->victim(t);
    if (!victim) return false;  // nothing cached, yet no room: bytes > capacity
    if (*victim == key.program) return false;  // would evict ourselves
    if (scorer_->score(key.program, t) <= scorer_->score(*victim, t)) {
      return false;  // incoming does not outrank the cheapest cached program
    }
    store_.evict_program(*victim);
    scorer_->on_evict(*victim);
    ++counters_.evictions;
  }
  return true;
}

void IndexServer::try_fill(cache::SegmentKey key, DataSize bytes,
                           sim::SimTime t) {
  if (scorer_ == nullptr) return;
  if (config_.admission == CacheAdmission::WholeProgram &&
      !store_.has_commitment(key.program)) {
    // The session's admit decision went stale: the program was evicted
    // mid-session (or replication pushed past its commitment).
    return;
  }
  if (!make_room(key, bytes, t)) return;
  if (store_.has_program(key.program) &&
      !scorer_->is_cached(key.program)) {
    scorer_->on_admit(key.program, t);
  }
  ++counters_.fills;
}

ServeResult IndexServer::serve_segment(PeerId viewer, cache::SegmentKey key,
                                       sim::Interval interval, bool admit,
                                       bool full_slice) {
  VODCACHE_EXPECTS(viewer.value() < peer_count());
  VODCACHE_EXPECTS(interval.valid());
  ++counters_.segments;

  const DataRate rate = config_.stream_rate;
  const double bits = rate.bps() * interval.duration_seconds();

  // Broadcast coax carries the segment exactly once regardless of source
  // (paper section VI-B: "each file must consume the same bandwidth whether
  // it is sent from a peer or the index server").
  coax_meter_.add(interval, rate);

  // Span into the replica arena — read fully before try_fill() below can
  // mutate the store.
  const auto replicas = store_.locate(key);
  for (const PeerId replica : replicas) {
    if (slots_.try_acquire(replica, interval, viewers_)) {
      ++counters_.hits;
      counters_.hit_bits += bits;
      peer_meter_.add(interval, rate);
      if (admission_ != nullptr) admission_->on_serve(true, interval.begin);
      return ServeResult::PeerHit;
    }
  }

  const bool was_cached = !replicas.empty();
  if (was_cached) {
    ++counters_.busy_misses;
  } else {
    ++counters_.cold_misses;
  }
  counters_.miss_bits += bits;
  if (admission_ != nullptr) admission_->on_serve(false, interval.begin);

  // Multi-tier walk: the lowest tier node holding the program absorbs the
  // miss; only a full walk-through reaches the origin.  tiers_ == nullptr
  // (the two-level world) is structurally the pre-tier path — no lookup,
  // the origin serves every miss.
  bool origin_serves = true;
  if (tiers_ != nullptr) {
    if (const auto level =
            tiers_->serving_level(tier_nodes_, key.program, interval.begin)) {
      ++counters_.tier_hits[*level];
      tier_meters_[*level].add(interval, rate);
      origin_serves = false;
    }
  }
  if (origin_serves) media_server_.serve(interval, rate);

  // Opportunistic fill off the broadcast: only whole segments, and only if
  // the index server admitted the program for this session.  On a busy
  // miss a fill adds a *replica* — every existing copy's peer was stream-
  // saturated — which is only done when the replication extension is on.
  if (admit && full_slice && (!was_cached || config_.replicate_on_busy)) {
    const DataSize segment_bytes =
        rate.over_seconds(interval.duration_seconds());
    try_fill(key, segment_bytes, interval.begin);
  }
  return was_cached ? ServeResult::MissBusy : ServeResult::MissCold;
}

void IndexServer::swap_policy_state(
    std::unique_ptr<cache::EvictionScorer>& scorer,
    std::unique_ptr<cache::AdmissionPolicy>& admission,
    cache::SegmentStore& store, hfc::StreamSlots& slots) {
  // A null incoming scorer would demote the server to StrategyKind::None
  // mid-run; config validation forbids switching in that world.
  VODCACHE_EXPECTS(scorer != nullptr && scorer_ != nullptr);
  VODCACHE_EXPECTS(slots.peer_count() == peer_count());
  std::swap(scorer_, scorer);
  std::swap(admission_, admission);
  std::swap(store_, store);
  std::swap(slots_, slots);
}

}  // namespace vodcache::core

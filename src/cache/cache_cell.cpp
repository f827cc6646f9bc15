#include "cache/cache_cell.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace vodcache::cache {

CacheCell::CacheCell(const char* scorer_name, const char* admission_name,
                     std::unique_ptr<EvictionScorer> scorer,
                     std::unique_ptr<AdmissionPolicy> admission,
                     const CellRules& rules, std::uint32_t peer_count)
    : scorer_name_(scorer_name),
      admission_name_(admission_name),
      scorer_(std::move(scorer)),
      admission_(std::move(admission)),
      rules_(rules),
      store_(std::vector<DataSize>(peer_count, rules.per_peer_storage)),
      slots_(peer_count, rules.peer_stream_limit) {
  VODCACHE_EXPECTS(peer_count > 0);
}

bool CacheCell::admits(ProgramId program, sim::SimTime t,
                       const sim::RateMeter& coax, CellCounters& counters) {
  if (admission_ == nullptr) return true;
  if (admission_->admit({program, t, coax.rate_at(t)})) return true;
  ++counters.admission_denials;
  return false;
}

bool CacheCell::evict_for(ProgramId incoming, sim::SimTime t,
                          CellCounters& counters) {
  const auto victim = scorer_->victim(t);
  if (!victim) return false;  // nothing cached, yet no room
  if (*victim == incoming) return false;  // would evict ourselves
  if (scorer_->score(incoming, t) <= scorer_->score(*victim, t)) {
    return false;  // incoming does not outrank the cheapest cached program
  }
  store_.evict_program(*victim);
  scorer_->on_evict(*victim);
  ++counters.evictions;
  return true;
}

bool CacheCell::start_session(ProgramId program, DataSize program_size,
                              sim::SimTime t, const sim::RateMeter& coax,
                              CellCounters& counters) {
  ++counters.sessions;
  if (scorer_ == nullptr) return false;  // StrategyKind::None
  scorer_->record_access(program, t);
  if (admission_ != nullptr) admission_->record_access(program, t);

  if (rules_.whole_program) {
    // Already admitted: keep filling it.
    if (store_.has_commitment(program)) return true;
    if (!admits(program, t, coax, counters)) return false;
    // Charge the whole program against capacity now, evicting victims the
    // scorer ranks below it ("it locates a collection of peers to store
    // the segments ... instruct peers to delete programs").
    while (store_.committed_total() + program_size > store_.capacity()) {
      if (!evict_for(program, t, counters)) return false;
    }
    store_.commit_program(program, program_size);
    scorer_->on_admit(program, t);
    return true;
  }

  // Segment-granularity ablation.
  // Already (partially) cached: keep filling it.
  if (store_.has_program(program)) return true;
  if (!admits(program, t, coax, counters)) return false;
  // Free space: caching one more program costs nothing.
  if (store_.free_space() > DataSize{}) return true;
  // Full: admit only if the program outranks the current victim.
  const auto victim = scorer_->victim(t);
  if (!victim) return false;
  return scorer_->score(program, t) > scorer_->score(*victim, t);
}

void CacheCell::try_fill(SegmentKey key, DataSize bytes, sim::SimTime t,
                         CellCounters& counters) {
  if (scorer_ == nullptr) return;
  if (rules_.whole_program && !store_.has_commitment(key.program)) {
    // The session's admit decision went stale: the program was evicted
    // mid-session (or replication pushed past its commitment).
    return;
  }
  while (!store_.store(key, bytes)) {
    if (!evict_for(key.program, t, counters)) return;
  }
  if (store_.has_program(key.program) && !scorer_->is_cached(key.program)) {
    scorer_->on_admit(key.program, t);
  }
  ++counters.fills;
}

ServeResult CacheCell::serve_segment(SegmentKey key, sim::Interval interval,
                                     bool admit, bool full_slice,
                                     const hfc::ViewerOccupancy& viewers,
                                     CellCounters& counters) {
  ++counters.segments;
  const double bits = rules_.stream_rate.bps() * interval.duration_seconds();

  // Span into the replica arena — read fully before try_fill() below can
  // mutate the store.
  const auto replicas = store_.locate(key);
  for (const PeerId replica : replicas) {
    if (slots_.try_acquire(replica, interval, viewers)) {
      ++counters.hits;
      counters.hit_bits += bits;
      if (admission_ != nullptr) admission_->on_serve(true, interval.begin);
      return ServeResult::PeerHit;
    }
  }

  const bool was_cached = !replicas.empty();
  if (was_cached) {
    ++counters.busy_misses;
  } else {
    ++counters.cold_misses;
  }
  counters.miss_bits += bits;
  if (admission_ != nullptr) admission_->on_serve(false, interval.begin);

  // Opportunistic fill off the broadcast: only whole segments, and only if
  // the program was admitted for this session.  On a busy miss a fill adds
  // a *replica* — every existing copy's peer was stream-saturated — which
  // is only done when the replication extension is on.
  if (admit && full_slice && (!was_cached || rules_.replicate_on_busy)) {
    try_fill(key, rules_.stream_rate.over_seconds(interval.duration_seconds()),
             interval.begin, counters);
  }
  return was_cached ? ServeResult::MissBusy : ServeResult::MissCold;
}

DataSize CacheCell::fail_peer(PeerId peer) {
  const auto wiped = store_.wipe_peer(peer);
  if (scorer_ != nullptr && !rules_.whole_program) {
    for (const ProgramId program : wiped.emptied_programs) {
      if (scorer_->is_cached(program)) scorer_->on_evict(program);
    }
  }
  return wiped.freed;
}

}  // namespace vodcache::cache

#include "cache/shadow_bank.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

// Every branch below mirrors core::IndexServer's replay logic exactly —
// same predicates, same order — minus everything a shadow must not do:
// meter adds, tier walks, media-server serves.  The tier walk is safe to
// skip because it never changes the hit/miss classification or the fill
// decision; it only decides which upstream node pays for a miss.  When
// editing IndexServer's logic, mirror the change here (the cross-check
// tests fail loudly if the two drift).

ShadowBank::ShadowBank(std::vector<PairSpec> pairs, const Settings& settings,
                       std::uint32_t peer_count,
                       const sim::RateMeter* primary_coax,
                       const hfc::ViewerOccupancy* viewers)
    : settings_(settings), primary_coax_(primary_coax), viewers_(viewers) {
  VODCACHE_EXPECTS(primary_coax != nullptr);
  VODCACHE_EXPECTS(viewers != nullptr && viewers->peer_count() == peer_count);
  VODCACHE_EXPECTS(peer_count > 0);
  VODCACHE_EXPECTS(!pairs.empty() && pairs.size() <= kMaxPairs);
  shadows_.reserve(pairs.size());
  const std::vector<DataSize> contributions(peer_count,
                                            settings.per_peer_storage);
  for (auto& pair : pairs) {
    VODCACHE_EXPECTS(pair.scorer != nullptr);
    shadows_.push_back({pair.scorer_display,
                        pair.admission_display,
                        std::move(pair.scorer),
                        std::move(pair.admission),
                        SegmentStore(contributions),
                        hfc::StreamSlots(peer_count, settings.peer_stream_limit),
                        {}});
  }
}

bool ShadowBank::allows(Shadow& shadow, ProgramId program, sim::SimTime t) {
  if (shadow.admission == nullptr) return true;
  if (shadow.admission->admit({program, t, primary_coax_->rate_at(t)})) {
    return true;
  }
  ++shadow.counters.admission_denials;
  return false;
}

bool ShadowBank::start_one(Shadow& shadow, ProgramId program,
                           DataSize program_size, sim::SimTime t) {
  ++shadow.counters.sessions;
  shadow.scorer->record_access(program, t);
  if (shadow.admission != nullptr) shadow.admission->record_access(program, t);

  if (settings_.whole_program) {
    if (shadow.store.has_commitment(program)) return true;
    if (!allows(shadow, program, t)) return false;
    while (shadow.store.committed_total() + program_size >
           shadow.store.capacity()) {
      const auto victim = shadow.scorer->victim(t);
      if (!victim) return false;  // program larger than the whole cache
      if (*victim == program) return false;
      if (shadow.scorer->score(program, t) <=
          shadow.scorer->score(*victim, t)) {
        return false;
      }
      shadow.store.evict_program(*victim);
      shadow.scorer->on_evict(*victim);
      ++shadow.counters.evictions;
    }
    shadow.store.commit_program(program, program_size);
    shadow.scorer->on_admit(program, t);
    return true;
  }

  // Segment-granularity ablation.
  if (shadow.store.has_program(program)) return true;
  if (!allows(shadow, program, t)) return false;
  if (shadow.store.free_space() > DataSize{}) return true;
  const auto victim = shadow.scorer->victim(t);
  if (!victim) return false;
  return shadow.scorer->score(program, t) > shadow.scorer->score(*victim, t);
}

std::uint64_t ShadowBank::start_session(ProgramId program,
                                        DataSize program_size, sim::SimTime t) {
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < shadows_.size(); ++p) {
    if (start_one(shadows_[p], program, program_size, t)) {
      mask |= std::uint64_t{1} << p;
    }
  }
  return mask;
}

bool ShadowBank::make_room(Shadow& shadow, SegmentKey key, DataSize bytes,
                           sim::SimTime t) {
  while (!shadow.store.store(key, bytes)) {
    const auto victim = shadow.scorer->victim(t);
    if (!victim) return false;
    if (*victim == key.program) return false;
    if (shadow.scorer->score(key.program, t) <=
        shadow.scorer->score(*victim, t)) {
      return false;
    }
    shadow.store.evict_program(*victim);
    shadow.scorer->on_evict(*victim);
    ++shadow.counters.evictions;
  }
  return true;
}

void ShadowBank::try_fill(Shadow& shadow, SegmentKey key, DataSize bytes,
                          sim::SimTime t) {
  if (settings_.whole_program && !shadow.store.has_commitment(key.program)) {
    return;
  }
  if (!make_room(shadow, key, bytes, t)) return;
  if (shadow.store.has_program(key.program) &&
      !shadow.scorer->is_cached(key.program)) {
    shadow.scorer->on_admit(key.program, t);
  }
  ++shadow.counters.fills;
}

void ShadowBank::serve_segment(SegmentKey key, sim::Interval interval,
                               std::uint64_t admit_mask, bool full_slice) {
  const double bits =
      settings_.stream_rate.bps() * interval.duration_seconds();
  for (std::size_t p = 0; p < shadows_.size(); ++p) {
    Shadow& shadow = shadows_[p];
    ++shadow.counters.segments;

    const auto replicas = shadow.store.locate(key);
    bool hit = false;
    for (const PeerId replica : replicas) {
      if (shadow.slots.try_acquire(replica, interval, *viewers_)) {
        ++shadow.counters.hits;
        shadow.counters.hit_bits += bits;
        if (shadow.admission != nullptr) {
          shadow.admission->on_serve(true, interval.begin);
        }
        hit = true;
        break;
      }
    }
    if (hit) continue;

    const bool was_cached = !replicas.empty();
    if (was_cached) {
      ++shadow.counters.busy_misses;
    } else {
      ++shadow.counters.cold_misses;
    }
    shadow.counters.miss_bits += bits;
    if (shadow.admission != nullptr) {
      shadow.admission->on_serve(false, interval.begin);
    }

    const bool admit = (admit_mask >> p) & 1;
    if (admit && full_slice && (!was_cached || settings_.replicate_on_busy)) {
      const DataSize segment_bytes =
          settings_.stream_rate.over_seconds(interval.duration_seconds());
      try_fill(shadow, key, segment_bytes, interval.begin);
    }
  }
}

void ShadowBank::fail_peer(PeerId peer) {
  for (auto& shadow : shadows_) {
    const auto wiped = shadow.store.wipe_peer(peer);
    if (!settings_.whole_program) {
      for (const ProgramId program : wiped.emptied_programs) {
        if (shadow.scorer->is_cached(program)) shadow.scorer->on_evict(program);
      }
    }
  }
}

ShadowBank::CellState ShadowBank::cell_state(std::size_t pair) {
  Shadow& shadow = shadows_[pair];
  return CellState{shadow.scorer_display, shadow.admission_display,
                   shadow.scorer,         shadow.admission,
                   shadow.store,          shadow.slots};
}

}  // namespace vodcache::cache

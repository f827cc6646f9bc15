#include "hfc/settop.hpp"

#include <algorithm>
#include <limits>

namespace vodcache::hfc {

namespace {

// Before every event: a slot holding it is free.
constexpr sim::SimTime kFree =
    sim::SimTime::millis(std::numeric_limits<std::int64_t>::min());

}  // namespace

ViewerOccupancy::ViewerOccupancy(std::uint32_t peer_count)
    : count_(peer_count, 0),
      ends_(static_cast<std::size_t>(peer_count) * stride_) {
  VODCACHE_EXPECTS(peer_count > 0);
}

void ViewerOccupancy::occupy(PeerId viewer, sim::Interval playback) {
  VODCACHE_EXPECTS(viewer.value() < count_.size());
  VODCACHE_EXPECTS(playback.valid());
  const std::size_t p = viewer.value();
  // Drop the playbacks over by now, keeping the rest in order.
  sim::SimTime* run = &ends_[p * stride_];
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < count_[p]; ++i) {
    if (run[i] > playback.begin) run[kept++] = run[i];
  }
  count_[p] = kept;
  if (kept == stride_) {
    const std::uint32_t stride = stride_ * 2;
    std::vector<sim::SimTime> wider(count_.size() * stride);
    for (std::size_t q = 0; q < count_.size(); ++q) {
      for (std::uint32_t i = 0; i < count_[q]; ++i) {
        wider[q * stride + i] = ends_[q * stride_ + i];
      }
    }
    ends_.swap(wider);
    stride_ = stride;
    run = &ends_[p * stride_];
  }
  run[count_[p]++] = playback.end;
}

int ViewerOccupancy::active(PeerId peer, sim::SimTime now) const {
  VODCACHE_EXPECTS(peer.value() < count_.size());
  const std::size_t p = peer.value();
  const sim::SimTime* run = &ends_[p * stride_];
  int live = 0;
  for (std::uint32_t i = 0; i < count_[p]; ++i) live += run[i] > now ? 1 : 0;
  return live;
}

StreamSlots::StreamSlots(std::uint32_t peer_count, int limit)
    : limit_(limit),
      peer_count_(peer_count),
      ends_(static_cast<std::size_t>(peer_count) *
                static_cast<std::size_t>(limit < 0 ? 0 : limit),
            kFree) {
  VODCACHE_EXPECTS(peer_count > 0);
  VODCACHE_EXPECTS(limit >= 0);
}

bool StreamSlots::try_acquire(PeerId peer, sim::Interval interval,
                              const ViewerOccupancy& viewers) {
  VODCACHE_EXPECTS(interval.valid());
  if (active(peer, interval.begin, viewers) >= limit_) return false;
  // Below the limit at most limit - 1 serves are live, so a slot is free.
  sim::SimTime* run = ends_.data() + run_offset(peer);
  *std::find_if(run, run + limit_, [&](sim::SimTime end) {
    return end <= interval.begin;
  }) = interval.end;
  return true;
}

int StreamSlots::active(PeerId peer, sim::SimTime now,
                        const ViewerOccupancy& viewers) const {
  VODCACHE_EXPECTS(peer.value() < peer_count_);
  const sim::SimTime* run = ends_.data() + run_offset(peer);
  int live = viewers.active(peer, now);
  for (int i = 0; i < limit_; ++i) live += run[i] > now ? 1 : 0;
  return live;
}

}  // namespace vodcache::hfc

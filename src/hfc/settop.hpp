// Set-top box stream occupancy.
//
// The paper's peers are the STBs cable companies already deploy: always-on
// (no churn), a fixed storage contribution to the neighborhood cache
// (<= 10 GB of a ~40 GB disk), and at most two concurrently active streams
// in either direction (section V-C).  Storage *contents* are tracked by
// cache::SegmentStore; this file tracks the boxes' active streams.
//
// A box's streams come in two kinds, kept apart because they differ in
// who decides them:
//
//  * viewer playback (ViewerOccupancy) — the trace is ground truth for what
//    users watched, so playback is never refused, and it is the same under
//    every cache policy.  One record per neighborhood serves the primary
//    and every shadow cell.
//  * serve transmissions (StreamSlots) — a box broadcasting a cached
//    segment.  Which box serves depends on the policy's placement, so each
//    side (the primary, every shadow cell) keeps its own.
//
// The limit applies when a box is asked to *serve*: a serve is admitted
// iff the box's viewer playbacks plus serves active at its start are below
// the limit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"

namespace vodcache::hfc {

// Viewer playback of every box in one neighborhood.
class ViewerOccupancy {
 public:
  explicit ViewerOccupancy(std::uint32_t peer_count);

  // `viewer` watches over `playback`; never refused.
  void occupy(PeerId viewer, sim::Interval playback);

  // Playbacks of `peer` still running at `now` (a transmission occupies
  // [begin, end), so one ending exactly at `now` is over).
  [[nodiscard]] int active(PeerId peer, sim::SimTime now) const;

  [[nodiscard]] std::uint32_t peer_count() const {
    return static_cast<std::uint32_t>(count_.size());
  }

 private:
  // Peer-major runs of `stride_` end times, the first count_[p] of run p
  // in use.  A user can stack overlapping sessions, so when one box's run
  // is full of live playbacks every run is re-laid out at double stride
  // (a high-water mark, like any growing vector).
  std::uint32_t stride_ = 4;
  std::vector<std::uint32_t> count_;
  std::vector<sim::SimTime> ends_;
};

// One side's serve transmissions: `limit` end times per box, flat.  A serve
// is admitted only while the box's total is below the limit, so at most
// `limit` serves are ever live and a slot whose end has passed is free.
class StreamSlots {
 public:
  StreamSlots(std::uint32_t peer_count, int limit);

  // Acquire a serve slot on `peer` for `interval` iff the limit allows;
  // returns success.
  [[nodiscard]] bool try_acquire(PeerId peer, sim::Interval interval,
                                 const ViewerOccupancy& viewers);

  // Viewer playbacks plus serves active on `peer` at `now`.
  [[nodiscard]] int active(PeerId peer, sim::SimTime now,
                           const ViewerOccupancy& viewers) const;

  [[nodiscard]] int limit() const { return limit_; }
  [[nodiscard]] std::uint32_t peer_count() const { return peer_count_; }

 private:
  // Where `peer`'s slots start in ends_ (index through data(): at limit 0
  // the array is empty).
  [[nodiscard]] std::size_t run_offset(PeerId peer) const {
    return static_cast<std::size_t>(peer.value()) *
           static_cast<std::size_t>(limit_);
  }

  int limit_;
  std::uint32_t peer_count_;
  std::vector<sim::SimTime> ends_;
};

}  // namespace vodcache::hfc

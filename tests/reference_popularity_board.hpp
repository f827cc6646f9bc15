// The live, mutable form of the global popularity board: one shared
// instance fed by every neighborhood as a serial simulation discovers
// accesses.  The engine never runs it — each shard reads the trace-prebuilt
// ReplayBoard through its own ReplayCursor (cache/popularity_board.hpp) —
// but it is the directly-testable statement of the board's semantics, and
// the cursor is pinned against it (tests/cache_test.cpp), the way
// reference_sim.hpp pins the engine.
//
//  * lag == 0: counts are live, and every count change (new access or
//    window expiry) is pushed to subscribers.
//  * lag > 0: counts are frozen at batch boundaries (multiples of the lag),
//    published lazily at the first query past a boundary.
//
// Time must be fed in non-decreasing order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"

namespace vodcache::test {

class PopularityBoard {
 public:
  PopularityBoard(std::size_t program_count, sim::SimTime window,
                  sim::SimTime lag)
      : window_(window), lag_(lag), live_(program_count, 0) {
    VODCACHE_EXPECTS(program_count > 0);
    VODCACHE_EXPECTS(window > sim::SimTime{});
    VODCACHE_EXPECTS(lag >= sim::SimTime{});
    if (lag_ > sim::SimTime{}) {
      snapshot_.assign(program_count, 0);
      next_batch_ = lag_;
    }
  }

  // A session started anywhere in the system.
  void record(ProgramId program, sim::SimTime t) {
    VODCACHE_EXPECTS(program.value() < live_.size());
    VODCACHE_EXPECTS(events_.empty() || t >= events_.back().time);
    advance(t);
    events_.push_back({t, program});
    ++live_[program.value()];
    if (lag_ == sim::SimTime{}) notify(program, t);
  }

  // Advance the clock (expiry + snapshot batching) without recording.
  void advance(sim::SimTime t) {
    publish_snapshots(t);
    expire(t - window_, t);
  }

  // Accesses for `program` visible at time `t`: the live in-window count
  // when lag == 0, the last snapshot otherwise.
  [[nodiscard]] std::int64_t visible_count(ProgramId program, sim::SimTime t) {
    VODCACHE_EXPECTS(program.value() < live_.size());
    advance(t);
    if (lag_ == sim::SimTime{}) return live_[program.value()];
    return snapshot_[program.value()];
  }

  // Incremented every time a snapshot is published (lag > 0).
  [[nodiscard]] std::uint64_t snapshot_epoch() const { return epoch_; }

  // Called as (program, time) whenever the live count of `program`
  // changes.  Only fired when lag == 0.
  void subscribe(std::function<void(ProgramId, sim::SimTime)> callback) {
    subscribers_.push_back(std::move(callback));
  }

 private:
  struct Event {
    sim::SimTime time;
    ProgramId program;
  };

  void notify(ProgramId program, sim::SimTime t) {
    for (const auto& callback : subscribers_) callback(program, t);
  }

  void expire(sim::SimTime cutoff, sim::SimTime now) {
    while (!events_.empty() && events_.front().time < cutoff) {
      const ProgramId program = events_.front().program;
      events_.pop_front();
      VODCACHE_ASSERT(live_[program.value()] > 0);
      --live_[program.value()];
      if (lag_ == sim::SimTime{}) notify(program, now);
    }
  }

  void publish_snapshots(sim::SimTime t) {
    // Catch up on every batch boundary passed; only the last one's contents
    // matter, so expire once to the final boundary and copy.
    if (lag_ == sim::SimTime{} || t < next_batch_) return;
    sim::SimTime boundary = next_batch_;
    while (boundary + lag_ <= t) boundary += lag_;
    expire(boundary - window_, boundary);
    snapshot_ = live_;
    next_batch_ = boundary + lag_;
    ++epoch_;
  }

  sim::SimTime window_;
  sim::SimTime lag_;
  std::deque<Event> events_;
  std::vector<std::int64_t> live_;
  std::vector<std::int64_t> snapshot_;
  sim::SimTime next_batch_;
  std::uint64_t epoch_ = 0;
  std::vector<std::function<void(ProgramId, sim::SimTime)>> subscribers_;
};

}  // namespace vodcache::test

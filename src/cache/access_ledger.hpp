// AccessLedger: one neighborhood's access history, held once and read by
// every eviction scorer replaying that neighborhood — the primary and every
// shadow cell.
//
// Each scorer takes exactly one access per session start, and each access
// advances one recency sequence.  So everything a scorer derives from the
// access stream alone is identical in every scorer of a shard: the
// sequence, each program's last access, GreedyDual's cumulative counts,
// LFU's sliding-window counts, and GlobalLFU's replay cursor with its
// lagged local deltas.  The ledger holds that state once, in dense
// per-program tables sized to the catalog.  The shard writes it once per
// session start, before any scorer hears of the session; a scorer keeps
// only what is its own — its cached set, ordered by the scores it last
// computed.
//
// Ledger changes that move a cached program's score without an access to
// that program (LFU window expiry, remote accesses and expiries on the
// global board) fan out to the subscribed scorers' StaleSets, and a scorer
// re-ranks its stale programs at its next victim() call.  The deferral is
// exact: CachedSet::min() depends only on the live scores, and victim()
// brings every live score up to date before it asks.
//
// Tables are allocated only when a scorer that reads them attaches, so a
// no-cache shard carries none and an LRU shard carries one.  Attachment
// must precede the first access: a table attached later would have missed
// the accesses before it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/popularity_board.hpp"
#include "sim/replay_clock.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

// A scorer's cached-program membership as one byte per program, plus the
// cached programs whose ledger-derived score changed since the scorer last
// ranked them.  A program is listed at most once, so a list reserved for
// the catalog never grows.
class StaleSet {
 public:
  explicit StaleSet(std::size_t program_count)
      : state_(program_count, 0) {}

  // The ledger holds the set's address.
  StaleSet(const StaleSet&) = delete;
  StaleSet& operator=(const StaleSet&) = delete;

  // Pre-sizes the list for scorers that mark (zero steady-state
  // allocations); the others never pay for it.
  void reserve_list() { list_.reserve(state_.size()); }

  [[nodiscard]] bool cached(ProgramId program) const {
    VODCACHE_EXPECTS(program.value() < state_.size());
    return (state_[program.value()] & kCached) != 0;
  }
  void set_cached(ProgramId program, bool cached) {
    VODCACHE_EXPECTS(program.value() < state_.size());
    std::uint8_t& state = state_[program.value()];
    state = cached ? (state | kCached) : (state & kListed);
  }

  // No-op unless `program` is cached and not listed yet.
  void mark(ProgramId program) {
    std::uint8_t& state = state_[program.value()];
    if (state != kCached) return;
    state |= kListed;
    list_.push_back(program);
  }

  // Calls fn(program) once for every listed program that is still cached,
  // unlisting it first.  Marks made while draining are drained too.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t i = 0; i < list_.size(); ++i) {
      const ProgramId program = list_[i];
      std::uint8_t& state = state_[program.value()];
      state &= kCached;
      if (state != 0) fn(program);
    }
    list_.clear();
  }

 private:
  static constexpr std::uint8_t kCached = 1;
  static constexpr std::uint8_t kListed = 2;

  std::vector<std::uint8_t> state_;
  std::vector<ProgramId> list_;
};

class AccessLedger {
 public:
  // `lfu_history` is the LFU window (0: no window, LFU ranks like LRU).
  // `board` and `clock` back GlobalLFU scorers (null when none can run);
  // both must outlive the ledger, and the board need not be frozen yet.
  AccessLedger(std::size_t program_count, sim::SimTime lfu_history,
               std::shared_ptr<const ReplayBoard> board = nullptr,
               const sim::ReplayClock* clock = nullptr);

  // Fan-out targets point back into the ledger, so it stays put.
  AccessLedger(const AccessLedger&) = delete;
  AccessLedger& operator=(const AccessLedger&) = delete;

  // A session for `program` started at `t` in this neighborhood.  Called
  // once per session start, before any scorer's record_access.
  void record_access(ProgramId program, sim::SimTime t);

  [[nodiscard]] std::size_t program_count() const { return program_count_; }

  // Attachment, one call per table a scorer reads (idempotent).  Watchers
  // are marked stale on every change the ledger makes to a program's
  // window count (LFU) or visible global count (GlobalLFU, lag 0).
  void attach_recency();
  void attach_totals();
  void attach_window(StaleSet* watcher);
  void attach_global(StaleSet* watcher);
  // Stops fanning out to `watcher` (scorer destruction).
  void detach(StaleSet* watcher);

  // Recency: the sequence number of `program`'s last access, 0 if never.
  [[nodiscard]] std::int64_t last_access(ProgramId program) const {
    VODCACHE_EXPECTS(program.value() < last_access_.size());
    return last_access_[program.value()];
  }
  // GreedyDual: accesses since the start of the run.
  [[nodiscard]] std::int64_t total_count(ProgramId program) const {
    VODCACHE_EXPECTS(program.value() < total_.size());
    return total_[program.value()];
  }
  // LFU: accesses within the window, as of the last recorded access.
  [[nodiscard]] std::int64_t window_count(ProgramId program) const {
    VODCACHE_EXPECTS(program.value() < window_count_.size());
    return window_count_[program.value()];
  }
  [[nodiscard]] sim::SimTime lfu_history() const { return lfu_history_; }

  // GlobalLFU.  advance_global() moves the replay cursor to the shard
  // clock at `t` (monotone; repeated calls within one event are no-ops).
  // global_count() is the count a GlobalLFU ranks by: the live global
  // count at lag 0; at lag > 0 the last snapshot plus this neighborhood's
  // accesses since it.  snapshot_epoch() changes whenever a snapshot is
  // published.
  [[nodiscard]] sim::SimTime global_lag() const;
  void advance_global(sim::SimTime t);
  [[nodiscard]] std::int64_t global_count(ProgramId program) const;
  [[nodiscard]] std::uint64_t snapshot_epoch() const {
    return cursor_->snapshot_epoch();
  }

 private:
  void expire_window(sim::SimTime now);

  struct WindowEvent {
    sim::SimTime time;
    ProgramId program;
  };

  std::size_t program_count_;
  sim::SimTime lfu_history_;
  std::shared_ptr<const ReplayBoard> board_;
  const sim::ReplayClock* clock_;

  bool recorded_ = false;
  std::vector<std::int64_t> last_access_;
  std::int64_t sequence_ = 0;
  std::vector<std::int64_t> total_;

  bool window_ = false;
  util::RingBuffer<WindowEvent> window_events_;
  std::vector<std::int64_t> window_count_;
  std::vector<StaleSet*> window_watchers_;

  std::optional<ReplayCursor> cursor_;
  std::vector<StaleSet*> global_watchers_;
  // lag > 0: this neighborhood's accesses since the snapshot in force.
  std::vector<std::int64_t> local_since_snapshot_;
  std::uint64_t seen_epoch_ = 0;
};

}  // namespace vodcache::cache

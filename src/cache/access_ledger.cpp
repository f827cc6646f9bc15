#include "cache/access_ledger.hpp"

#include <algorithm>
#include <utility>

namespace vodcache::cache {

AccessLedger::AccessLedger(std::size_t program_count, sim::SimTime lfu_history,
                           std::shared_ptr<const ReplayBoard> board,
                           const sim::ReplayClock* clock)
    : program_count_(program_count),
      lfu_history_(lfu_history),
      board_(std::move(board)),
      clock_(clock) {
  VODCACHE_EXPECTS(program_count > 0);
  VODCACHE_EXPECTS(lfu_history >= sim::SimTime{});
  VODCACHE_EXPECTS((board_ == nullptr) == (clock_ == nullptr));
  VODCACHE_EXPECTS(board_ == nullptr ||
                   board_->program_count() == program_count);
}

void AccessLedger::attach_recency() {
  if (!last_access_.empty()) return;
  VODCACHE_EXPECTS(!recorded_);
  last_access_.assign(program_count_, 0);
}

void AccessLedger::attach_totals() {
  if (!total_.empty()) return;
  VODCACHE_EXPECTS(!recorded_);
  total_.assign(program_count_, 0);
}

void AccessLedger::attach_window(StaleSet* watcher) {
  VODCACHE_EXPECTS(watcher != nullptr);
  if (window_count_.empty()) {
    VODCACHE_EXPECTS(!recorded_);
    window_count_.assign(program_count_, 0);
    window_ = lfu_history_ > sim::SimTime{};
  }
  watcher->reserve_list();
  window_watchers_.push_back(watcher);
}

void AccessLedger::attach_global(StaleSet* watcher) {
  VODCACHE_EXPECTS(board_ != nullptr);
  if (!cursor_) {
    VODCACHE_EXPECTS(!recorded_);
    ReplayCursor::ChangeCallback on_change;
    if (board_->lag() == sim::SimTime{}) {
      on_change = [this](ProgramId program) {
        for (StaleSet* watcher : global_watchers_) watcher->mark(program);
      };
    } else {
      local_since_snapshot_.assign(program_count_, 0);
    }
    cursor_.emplace(*board_, std::move(on_change));
  }
  // Lagged scorers re-rank on snapshot turns instead of per change.
  if (board_->lag() == sim::SimTime{}) {
    watcher->reserve_list();
    global_watchers_.push_back(watcher);
  }
}

void AccessLedger::detach(StaleSet* watcher) {
  std::erase(window_watchers_, watcher);
  std::erase(global_watchers_, watcher);
}

void AccessLedger::expire_window(sim::SimTime now) {
  const sim::SimTime cutoff = now - lfu_history_;
  while (!window_events_.empty() && window_events_.front().time < cutoff) {
    const ProgramId program = window_events_.front().program;
    window_events_.pop_front();
    VODCACHE_ASSERT(window_count_[program.value()] > 0);
    --window_count_[program.value()];
    for (StaleSet* watcher : window_watchers_) watcher->mark(program);
  }
}

void AccessLedger::record_access(ProgramId program, sim::SimTime t) {
  VODCACHE_EXPECTS(program.value() < program_count_);
  recorded_ = true;
  // Expire before counting in, so an access never expires itself.
  if (window_) expire_window(t);
  ++sequence_;
  if (!last_access_.empty()) last_access_[program.value()] = sequence_;
  if (!total_.empty()) ++total_[program.value()];
  if (window_) {
    window_events_.push_back({t, program});
    ++window_count_[program.value()];
  }
  if (cursor_) {
    advance_global(t);
    // The caller's own session start is the next access on the shared
    // timeline (the cursor checks it).
    cursor_->ingest_local(program, t, clock_->visible);
    if (!local_since_snapshot_.empty()) {
      ++local_since_snapshot_[program.value()];
    }
  }
}

sim::SimTime AccessLedger::global_lag() const {
  VODCACHE_EXPECTS(board_ != nullptr);
  return board_->lag();
}

void AccessLedger::advance_global(sim::SimTime t) {
  cursor_->advance(t, clock_->position, clock_->visible);
  if (local_since_snapshot_.empty()) return;
  const std::uint64_t epoch = cursor_->snapshot_epoch();
  if (epoch == seen_epoch_) return;
  // A new global batch arrived: the local deltas are folded into it.
  seen_epoch_ = epoch;
  std::fill(local_since_snapshot_.begin(), local_since_snapshot_.end(), 0);
}

std::int64_t AccessLedger::global_count(ProgramId program) const {
  std::int64_t count = cursor_->visible_count(program);
  if (!local_since_snapshot_.empty()) {
    count += local_since_snapshot_[program.value()];
  }
  return count;
}

}  // namespace vodcache::cache

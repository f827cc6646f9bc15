// Least Frequently Used over an N-hour history (paper section IV-B.2).
//
// "The index server keeps a history of all events that occur within the
// last N hours ... Items that are accessed the most frequently are stored
// in the cache, with ties being resolved using an LRU strategy."
//
// Score = (accesses within the sliding window, recency sequence).  The
// window itself is the neighborhood's AccessLedger's: it advances on every
// access, and an expiry that lowers a cached program's count marks it
// stale here, to be re-ranked at the next victim decision.  The window
// length is the ledger's (one per shard, from the run's configuration).
//
// history == 0 degenerates to pure LRU (the paper's figure 11 uses this as
// its leftmost point).
#pragma once

#include "cache/strategy.hpp"

namespace vodcache::cache {

class LfuStrategy final : public ScoredStrategy {
 public:
  explicit LfuStrategy(AccessLedger& ledger);

  [[nodiscard]] std::string_view name() const override { return "LFU"; }

  void record_access(ProgramId program, sim::SimTime t) override;
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override;

  [[nodiscard]] sim::SimTime history() const { return ledger().lfu_history(); }
  // Current in-window access count (exposed for tests).
  [[nodiscard]] std::int64_t frequency(ProgramId program) const {
    return ledger().window_count(program);
  }
};

}  // namespace vodcache::cache

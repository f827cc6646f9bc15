// Global LFU (paper section VI-A, figure 13): an LFU whose popularity data
// comes from every neighborhood in the system, not just the local one.
//
// Score:
//   lag == 0 : (live global in-window count, local recency)
//   lag > 0  : (global count at last snapshot + local accesses since that
//               snapshot, local recency)
//
// The popularity data is an immutable, trace-prebuilt ReplayBoard read
// through one ReplayCursor per shard — the neighborhood AccessLedger's —
// paced by the shard's ReplayClock.  No cross-neighborhood
// synchronization, so shards can run on different threads; counts are
// exact at every decision point (see README "Architecture").  At lag 0
// every count change the cursor makes to a cached program marks it stale
// here; at lag > 0 counts only move at snapshot turns (and local
// accesses), and a turn re-ranks the whole cached set.
#pragma once

#include <cstdint>

#include "cache/strategy.hpp"

namespace vodcache::cache {

class GlobalLfuStrategy final : public ScoredStrategy {
 public:
  // The ledger must carry a replay board.
  explicit GlobalLfuStrategy(AccessLedger& ledger);

  [[nodiscard]] std::string_view name() const override {
    return lagged_ ? "GlobalLFU(lagged)" : "GlobalLFU";
  }

  void record_access(ProgramId program, sim::SimTime t) override;
  [[nodiscard]] Score score(ProgramId program, sim::SimTime t) override;

 private:
  void refresh(sim::SimTime t) override;

  bool lagged_;
  // lag > 0: the ledger's snapshot epoch this scorer last ranked against.
  std::uint64_t seen_epoch_ = 0;
};

}  // namespace vodcache::cache

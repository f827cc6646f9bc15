// Eviction half of the cache policy engine (paper section IV-B.2 and VI-A).
//
// The index server composes two independent policies: an EvictionScorer —
// this file — ranking what stays in the cache, and an AdmissionPolicy
// (cache/admission.hpp) deciding whether a missed program may enter at all.
// The index server consults the scorer for three things: recording the
// popularity signal (one access per *session*, matching the paper's use of
// "accesses"), scoring a program's retention value, and nominating the
// cheapest cached program to evict.  The segment store performs the actual
// evictions and reports admissions back, so a scorer always knows the
// current cached set.
//
// Scores are ordered pairs: bigger means more valuable.  LFU's "ties are
// resolved using an LRU strategy" falls out of the pair comparison
// (primary = frequency, secondary = recency sequence number).
//
// A scorer's access-derived state — recency, counts, the global board —
// lives in the neighborhood's AccessLedger (cache/access_ledger.hpp),
// shared with every other scorer of the shard.  The ledger must have
// recorded a session start before any scorer's record_access for it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "cache/access_ledger.hpp"
#include "cache/victim_index.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vodcache::cache {

using Score = std::pair<std::int64_t, std::int64_t>;

class EvictionScorer {
 public:
  virtual ~EvictionScorer() = default;

  EvictionScorer() = default;
  EvictionScorer(const EvictionScorer&) = delete;
  EvictionScorer& operator=(const EvictionScorer&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // A session for `program` started at `t` in this neighborhood.
  virtual void record_access(ProgramId program, sim::SimTime t) = 0;

  // Current retention value of `program` (cached or candidate).
  [[nodiscard]] virtual Score score(ProgramId program, sim::SimTime t) = 0;

  // The cached program with the lowest score, if any program is cached.
  [[nodiscard]] virtual std::optional<ProgramId> victim(sim::SimTime t) = 0;

  // Store feedback: `program` gained its first stored segment / lost all.
  virtual void on_admit(ProgramId program, sim::SimTime t) = 0;
  virtual void on_evict(ProgramId program) = 0;

  [[nodiscard]] virtual bool is_cached(ProgramId program) const = 0;
  [[nodiscard]] virtual std::size_t cached_count() const = 0;
};

// Common machinery shared by every concrete scorer: the cached-set score
// index, a dense membership/staleness table, and the neighborhood ledger.
//
// Programs the ledger (or the scorer itself) marks stale are re-ranked at
// the next victim() call, before the cached set is asked for its minimum.
class ScoredStrategy : public EvictionScorer {
 public:
  ~ScoredStrategy() override;

  [[nodiscard]] std::optional<ProgramId> victim(sim::SimTime t) override;
  void on_admit(ProgramId program, sim::SimTime t) override;
  void on_evict(ProgramId program) override;
  [[nodiscard]] bool is_cached(ProgramId program) const override;
  [[nodiscard]] std::size_t cached_count() const override;

 protected:
  // `ledger` must outlive the scorer.  Every scorer ranks by recency.
  explicit ScoredStrategy(AccessLedger& ledger);

  [[nodiscard]] AccessLedger& ledger() { return *ledger_; }
  [[nodiscard]] const AccessLedger& ledger() const { return *ledger_; }
  [[nodiscard]] CachedSet& cached() { return cached_; }
  [[nodiscard]] const CachedSet& cached() const { return cached_; }
  // The fan-out target for ledger changes (see AccessLedger::attach_*).
  [[nodiscard]] StaleSet& stale() { return stale_; }

  // Hook for scorers that refresh before the cached-set ordering is
  // consulted (oracle horizon drift, global board advance).
  virtual void refresh(sim::SimTime /*t*/) {}

 private:
  AccessLedger* ledger_;
  CachedSet cached_;
  StaleSet stale_;
};

}  // namespace vodcache::cache

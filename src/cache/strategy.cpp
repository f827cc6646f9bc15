#include "cache/strategy.hpp"

namespace vodcache::cache {

ScoredStrategy::ScoredStrategy(AccessLedger& ledger)
    : ledger_(&ledger), stale_(ledger.program_count()) {
  ledger.attach_recency();
}

ScoredStrategy::~ScoredStrategy() { ledger_->detach(&stale_); }

std::optional<ProgramId> ScoredStrategy::victim(sim::SimTime t) {
  refresh(t);
  stale_.drain(
      [&](ProgramId program) { cached_.update(program, score(program, t)); });
  return cached_.min();
}

void ScoredStrategy::on_admit(ProgramId program, sim::SimTime t) {
  refresh(t);
  cached_.insert(program, score(program, t));
  stale_.set_cached(program, true);
}

void ScoredStrategy::on_evict(ProgramId program) {
  cached_.erase(program);
  stale_.set_cached(program, false);
}

bool ScoredStrategy::is_cached(ProgramId program) const {
  return stale_.cached(program);
}

std::size_t ScoredStrategy::cached_count() const { return cached_.size(); }

}  // namespace vodcache::cache

#include "cache/global_lfu.hpp"

namespace vodcache::cache {

GlobalLfuStrategy::GlobalLfuStrategy(AccessLedger& ledger)
    : ScoredStrategy(ledger), lagged_(ledger.global_lag() > sim::SimTime{}) {
  ledger.attach_global(&stale());
}

void GlobalLfuStrategy::refresh(sim::SimTime t) {
  // Advancing applies the expiries and remote accesses since the last
  // event; at lag 0 they mark their cached programs stale.
  ledger().advance_global(t);
  if (!lagged_ || ledger().snapshot_epoch() == seen_epoch_) return;
  // A new global batch arrived: local deltas are folded into it; re-rank
  // everything we hold.
  seen_epoch_ = ledger().snapshot_epoch();
  cached().for_each_program(
      [&](ProgramId program) { cached().update(program, score(program, t)); });
}

void GlobalLfuStrategy::record_access(ProgramId program, sim::SimTime t) {
  if (!lagged_) {
    stale().mark(program);
    return;
  }
  refresh(t);
  cached().update(program, score(program, t));
}

Score GlobalLfuStrategy::score(ProgramId program, sim::SimTime t) {
  ledger().advance_global(t);
  return {ledger().global_count(program), ledger().last_access(program)};
}

}  // namespace vodcache::cache

#include "cache/lfu.hpp"

namespace vodcache::cache {

LfuStrategy::LfuStrategy(AccessLedger& ledger) : ScoredStrategy(ledger) {
  ledger.attach_window(&stale());
}

void LfuStrategy::record_access(ProgramId program, sim::SimTime /*t*/) {
  // The ledger already counted the access in; expiries it made on the way
  // marked their programs stale.
  stale().mark(program);
}

Score LfuStrategy::score(ProgramId program, sim::SimTime /*t*/) {
  return {ledger().window_count(program), ledger().last_access(program)};
}

}  // namespace vodcache::cache

#include "cache/lru.hpp"

namespace vodcache::cache {

void LruStrategy::record_access(ProgramId program, sim::SimTime t) {
  cached().update(program, score(program, t));
}

Score LruStrategy::score(ProgramId program, sim::SimTime /*t*/) {
  // Never-accessed programs (possible when a store is pre-seeded) rank last.
  return {ledger().last_access(program), 0};
}

}  // namespace vodcache::cache

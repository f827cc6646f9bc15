// Drives eviction scorers outside a shard, the way a shard does.
#pragma once

#include "cache/access_ledger.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vodcache::test {

// One session start: written to the neighborhood's access ledger once,
// then announced to every scorer of that neighborhood.
template <typename... Scorers>
void record(cache::AccessLedger& ledger, ProgramId program, sim::SimTime t,
            Scorers&... scorers) {
  ledger.record_access(program, t);
  (scorers.record_access(program, t), ...);
}

}  // namespace vodcache::test

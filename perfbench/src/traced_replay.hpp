// The traced replay: the engine's single-thread path re-driven from the
// benchmark through the library's public pieces — Topology::build, the
// ReplayBoard / FutureIndex / TierPlanBuilder prepass products, the
// NeighborhoodShard constructor, feed() and finish(), and
// MediaServer::merge — with the benchmark's own demux in between, and a
// span around every call.  It changes nothing in the library; its summed
// IndexServer counters must equal VodSystem::run()'s report for the same
// input, which is how the traced run proves it replayed the same work.
#pragma once

#include <cstddef>
#include <vector>

#include "checks.hpp"
#include "core/config.hpp"
#include "span_trace.hpp"
#include "trace/session_source.hpp"

namespace perfbench {

namespace trace = vodcache::trace;

struct ReplayResult {
  CounterTotals counters;       // summed over every shard
  std::size_t shadow_cells = 0; // shadow pairs per shard (0: no bank)
  // Per shard: summed feed() and finish() time.
  std::vector<double> shard_busy_s;
  // Every feed() call's duration, in call order.
  std::vector<double> feed_s;
};

// Replays `source` under `config` (threads are ignored: the replay is
// single-threaded) and records spans into `tracer`, all under one root
// span named "core.run".
[[nodiscard]] ReplayResult traced_replay(const trace::SessionSource& source,
                                         const core::SystemConfig& config,
                                         Tracer& tracer);

}  // namespace perfbench

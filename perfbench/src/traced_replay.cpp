#include "traced_replay.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "cache/future_index.hpp"
#include "cache/popularity_board.hpp"
#include "core/media_server.hpp"
#include "core/neighborhood_shard.hpp"
#include "core/tier_system.hpp"
#include "hfc/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace cache = vodcache::cache;
namespace hfc = vodcache::hfc;
namespace sim = vodcache::sim;
using vodcache::NeighborhoodId;
using vodcache::PeerId;
using Shard = core::NeighborhoodShard;

// Which whole-trace prepass products the engine builds for `config` (the
// same rule as ShardedSimulation; a divergence shows up as a counter
// mismatch against the untraced report).
struct Needs {
  bool board = false;
  bool future = false;
  bool flush = false;
  bool tiers = false;
  [[nodiscard]] bool any() const { return board || future || flush || tiers; }
};

Needs needs_of(const core::SystemConfig& config) {
  const bool all_scorers = config.shadow_matrix || config.policy_switch;
  Needs need;
  need.board =
      config.strategy.kind == core::StrategyKind::GlobalLfu || all_scorers;
  need.future =
      config.strategy.kind == core::StrategyKind::Oracle || all_scorers;
  need.flush = !config.peer_failures.empty();
  need.tiers = !config.tiers.empty() &&
               config.prefetch.kind != core::PrefetchKind::None &&
               std::any_of(config.tiers.begin(), config.tiers.end(),
                           [](const auto& t) {
                             return t.capacity > vodcache::DataSize{};
                           });
  return need;
}

// One session start as the prepass products consume it.
struct PrepassRecord {
  sim::SimTime start;
  sim::SimTime duration;
  vodcache::ProgramId program;
  NeighborhoodId neighborhood;
};

// Failure draws, rolled serially over neighborhoods in index order per
// wave (the seed's RNG stream crosses neighborhoods).
std::vector<std::vector<Shard::PendingFailure>> roll_failures(
    const core::SystemConfig& config, const hfc::Topology& topology) {
  auto waves = config.peer_failures;
  std::stable_sort(waves.begin(), waves.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  const auto neighborhoods = topology.neighborhood_count();
  std::vector<std::vector<Shard::PendingFailure>> failures(neighborhoods);
  for (const auto& wave : waves) {
    vodcache::Rng rng(wave.seed);
    for (std::uint32_t n = 0; n < neighborhoods; ++n) {
      Shard::PendingFailure pending;
      pending.time = wave.time;
      const auto peers = topology.size_of(NeighborhoodId{n});
      for (std::uint32_t p = 0; p < peers; ++p) {
        if (rng.bernoulli(wave.fraction)) pending.peers.push_back(PeerId{p});
      }
      failures[n].push_back(std::move(pending));
    }
  }
  return failures;
}

}  // namespace

ReplayResult traced_replay(const trace::SessionSource& source,
                           const core::SystemConfig& config_in,
                           Tracer& tracer) {
  core::SystemConfig config = config_in;
  config.validate();
  const Needs need = needs_of(config);
  const auto& catalog = source.catalog();
  ReplayResult result;

  const auto root = tracer.begin("core.run");

  std::unique_ptr<hfc::Topology> topology;
  std::unique_ptr<core::TierSystem> tiers;
  {
    ScopedSpan span(tracer, "hfc.topology_build");
    topology = std::make_unique<hfc::Topology>(hfc::Topology::build(
        source.user_count(), config.neighborhood_size, config.tiers));
    if (!config.tiers.empty()) {
      tiers = std::make_unique<core::TierSystem>(*topology,
                                                 config.prefetch.refresh);
    }
  }
  const auto neighborhoods = topology->neighborhood_count();

  std::shared_ptr<cache::ReplayBoard> board;
  std::vector<cache::FutureIndex> future;
  cache::FutureIndex empty_future;
  sim::SimTime failure_flush = sim::SimTime::millis(-1);
  if (need.any()) {
    ScopedSpan prepass(tracer, "cache.prepass");
    std::vector<PrepassRecord> records;
    {
      ScopedSpan span(tracer, "trace.prepass_read");
      records.reserve(static_cast<std::size_t>(source.session_count_hint()));
      auto stream = source.open();
      trace::SessionRecord record;
      while (stream->next(record)) {
        records.push_back({record.start, record.duration, record.program,
                           topology->neighborhood_of(record.user)});
      }
    }
    if (need.board) {
      ScopedSpan span(tracer, "cache.prepass.board");
      board = std::make_shared<cache::ReplayBoard>(
          catalog.size(), config.strategy.lfu_history,
          config.strategy.global_lag);
      board->reserve(records.size());
      for (const auto& r : records) board->add(r.program, r.start);
      board->freeze();
    }
    if (need.future) {
      ScopedSpan span(tracer, "cache.prepass.future");
      future.resize(neighborhoods);
      for (auto& index : future) index = cache::FutureIndex(catalog.size());
      for (const auto& r : records) {
        future[r.neighborhood.value()].add(r.program, r.start);
      }
      for (auto& index : future) index.freeze();
    }
    if (need.tiers) {
      ScopedSpan span(tracer, "cache.prepass.tier_plan");
      core::TierPlanBuilder builder(*topology, config, catalog);
      for (const auto& r : records) {
        builder.observe(r.neighborhood, r.program, r.start);
      }
      tiers->set_plans(builder.finish(source.horizon()));
    }
    if (need.flush) {
      // The last segment-boundary event anywhere in the system.
      ScopedSpan span(tracer, "cache.prepass.flush");
      const auto segment_ms = config.segment_duration.millis_count();
      for (const auto& r : records) {
        const auto duration_ms = r.duration.millis_count();
        const auto full = duration_ms > 0 ? (duration_ms - 1) / segment_ms : 0;
        failure_flush = std::max(
            failure_flush, r.start + sim::SimTime::millis(full * segment_ms));
      }
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  {
    ScopedSpan span(tracer, "core.shard.build");
    auto failures = roll_failures(config, *topology);
    shards.reserve(neighborhoods);
    for (std::uint32_t n = 0; n < neighborhoods; ++n) {
      const NeighborhoodId id{n};
      shards.push_back(std::make_unique<Shard>(
          id, topology->size_of(id), catalog, source.horizon(), config,
          n < future.size() ? &future[n] : &empty_future, board,
          std::move(failures[n]), tiers.get(),
          tiers != nullptr ? tiers->node_path(id)
                           : std::vector<std::uint32_t>{}));
    }
  }
  result.shard_busy_s.assign(neighborhoods, 0.0);

  // Demux, one stream chunk at a time, exactly as the engine cuts it.  The
  // pull from the stream is its own span; the split into per-shard batches
  // is left to the root span's self time.
  const auto chunk_ms = config.stream_chunk.millis_count();
  std::vector<std::vector<Shard::StreamSession>> batches(neighborhoods);
  std::vector<std::uint32_t> active;
  std::vector<trace::SessionRecord> pulled;
  auto stream = source.open();
  trace::SessionRecord record;
  bool more = stream->next(record);
  std::uint64_t index = 0;
  while (more) {
    const auto chunk_end = sim::SimTime::millis(
        (record.start.millis_count() / chunk_ms + 1) * chunk_ms);
    {
      ScopedSpan span(tracer, "trace.next");
      pulled.clear();
      while (more && record.start < chunk_end) {
        pulled.push_back(record);
        more = stream->next(record);
      }
    }
    for (const auto& r : pulled) {
      const auto n = topology->neighborhood_of(r.user).value();
      if (batches[n].empty()) active.push_back(n);
      batches[n].push_back({r, index++, topology->peer_of(r.user)});
    }
    for (const auto n : active) {
      std::uint32_t id = 0;
      {
        ScopedSpan span(tracer, "core.shard.feed");
        id = span.id();
        shards[n]->feed(batches[n]);
      }
      const double took = tracer.spans()[id].duration();
      result.feed_s.push_back(took);
      result.shard_busy_s[n] += took;
      batches[n].clear();
    }
    active.clear();
  }

  for (std::uint32_t n = 0; n < neighborhoods; ++n) {
    std::uint32_t id = 0;
    {
      ScopedSpan span(tracer, "core.shard.finish");
      id = span.id();
      shards[n]->finish(failure_flush);
    }
    result.shard_busy_s[n] += tracer.spans()[id].duration();
  }

  {
    ScopedSpan span(tracer, "core.merge");
    core::MediaServer media(source.horizon(), config.meter_bucket);
    for (const auto& shard : shards) media.merge(shard->media_server());
  }
  tracer.end(root);

  for (const auto& shard : shards) {
    result.counters.add(shard->index_server().counters());
  }
  if (!shards.empty() && shards.front()->shadow_bank() != nullptr) {
    result.shadow_cells = shards.front()->shadow_bank()->pair_count();
  }
  return result;
}

}  // namespace perfbench

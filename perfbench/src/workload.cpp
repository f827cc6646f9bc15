#include "workload.hpp"

#include <algorithm>
#include <thread>

namespace perfbench {
namespace {

namespace sim = vodcache::sim;
using vodcache::DataSize;

constexpr std::uint32_t kPaperUsers = 41'698;

// Worker threads a workload asks for, never more than the machine has.
std::uint32_t capped_threads(std::uint32_t wanted) {
  const std::uint32_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  return std::min(wanted, cores);
}

Workload base(const std::string& name, std::uint64_t seed,
              std::uint32_t users, std::int32_t days) {
  Workload w;
  w.name = name;
  w.generator.seed = trace::GeneratorConfig{}.seed + seed;
  w.generator.user_count = users;
  w.generator.days = days;
  // Paper configuration: LFU with 72 h history, 1,000-peer neighborhoods,
  // 10 GB per peer, admit-always (all SystemConfig defaults).
  w.system.strategy.kind = core::StrategyKind::Lfu;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_lfu", "scale_1m", "shadow_matrix", "churn_storm"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      const WorkloadOverrides& overrides) {
  Workload w;
  if (name == "paper_lfu") {
    // The paper's configuration with a warm cache, where reads dominate;
    // the single-thread path.
    w = base(name, seed, kPaperUsers, 7);
    w.system.threads = 1;
  } else if (name == "scale_1m") {
    // A million users, one day: 1,000 cold shards, so per-shard fixed
    // cost, demux, merge and memory dominate and the cache layer does
    // little.
    w = base(name, seed, 1'000'000, 1);
    w.system.threads = 4;
  } else if (name == "shadow_matrix") {
    // LFU primary plus every (scorer x admission) shadow cell: the shadow
    // bank and its ReplayBoard/FutureIndex prepass do almost all the work.
    w = base(name, seed, kPaperUsers, 1);
    w.system.shadow_matrix = true;
    w.system.threads = 4;
  } else if (name == "churn_storm") {
    // A figure 8 sweep point (2 GB per peer) with three 30% peer-wipe
    // waves and a top-popular hub tier: the only workload that runs victim
    // selection, failure flush and the tier walk.
    w = base(name, seed, kPaperUsers, 7);
    w.system.per_peer_storage = DataSize::gigabytes(2);
    for (const int hour : {48, 96, 144}) {
      core::SystemConfig::PeerFailure wave;
      wave.time = sim::SimTime::hours(hour);
      wave.fraction = 0.3;
      wave.seed = w.generator.seed + static_cast<std::uint64_t>(hour);
      w.system.peer_failures.push_back(wave);
    }
    vodcache::hfc::TierLevelSpec hub;
    hub.fan_in = 6;
    hub.capacity = DataSize::gigabytes(2000);
    w.system.tiers.push_back(hub);
    w.system.prefetch.kind = core::PrefetchKind::TopPopular;
    w.system.threads = 4;
  } else {
    return std::nullopt;
  }
  if (overrides.days) w.generator.days = *overrides.days;
  if (overrides.users) w.generator.user_count = *overrides.users;
  if (overrides.threads) w.system.threads = *overrides.threads;
  w.system.threads = capped_threads(w.system.threads);
  return w;
}

std::unique_ptr<trace::GeneratorSource> make_source(const Workload& workload) {
  return std::make_unique<trace::GeneratorSource>(workload.generator);
}

}  // namespace perfbench

// Zero-allocation steady-state audit (ISSUE 7 acceptance criterion).
//
// The data-oriented shard hot path promises: once warmed up, feeding
// sessions through a shard performs no heap allocations at all — the flat
// tables, pooled arenas, ring buffers, lazy heaps, and scratch vectors all
// recycle at their high-water marks.  This binary replaces ::operator new
// with a counting probe and asserts that promise *exactly* (== 0, not
// "small") for the paper-default policy engine configurations:
//
//   * strategy None (no cache), LRU, and LFU (sliding-window expiry
//     exercises the ring buffer and downward CachedSet re-ranks);
//   * whole-program and segment-granularity admission, Always policy;
//   * replication-on-busy, which adds replica-block arena churn.
//
// The warmup must carry the shard past every high-water mark: two full
// diurnal cycles touch all programs, fill the cache into steady eviction
// churn, and see the prime-time session peak twice; day 3 is measured.
// Everything is seeded, so this test is exactly reproducible — a failure
// means a real allocation crept into the hot path, never noise.
//
// The shadow-matrix cases audit every registered scorer and admission at
// once: the shadow bank rides the same feed() loop, so its 25 (scorer x
// admission) pairs — the Oracle's future-index lookups, the TinyLFU
// sketch, all of them — must be equally allocation-free once warm, and so
// must the shard's access ledger fanning window expiries (LFU primary) and
// replay-cursor changes (GlobalLFU primary) out to every scorer's stale
// set.  Failure storms stay out of scope
// (wipe_peer returns the emptied-program vector by design).
#include <gtest/gtest.h>

#include <string>

#include "alloc_audit_support.hpp"
#include "alloc_probe.hpp"
#include "test_support.hpp"
#include "trace/generator.hpp"

VODCACHE_DEFINE_ALLOC_PROBE();

namespace vodcache {
namespace {

trace::Trace audit_trace() {
  trace::GeneratorConfig workload;
  workload.days = 3;
  workload.user_count = 200;
  workload.program_count = 60;
  workload.sessions_per_user_per_day = 5.0;
  workload.seed = 20260808;
  return trace::generate_power_info_like(workload);
}

core::SystemConfig audit_config(core::StrategyKind strategy) {
  core::SystemConfig config;
  config.neighborhood_size = 200;  // one shard holds the whole population
  // Small enough that ~60 programs of ~1.8 GB overflow it: eviction churn
  // is part of the audited steady state.
  config.per_peer_storage = DataSize::megabytes(200);
  config.strategy.kind = strategy;
  config.strategy.lfu_history = sim::SimTime::hours(12);
  config.admission_policy.kind = core::AdmissionKind::Always;
  return config;
}

struct AuditCase {
  core::StrategyKind strategy;
  core::CacheAdmission admission;
  bool replicate_on_busy;
  const char* label;
};

class AllocationAudit : public ::testing::TestWithParam<AuditCase> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocationAudit,
    ::testing::Values(
        AuditCase{core::StrategyKind::None, core::CacheAdmission::WholeProgram,
                  false, "none"},
        AuditCase{core::StrategyKind::Lru, core::CacheAdmission::WholeProgram,
                  false, "lru_whole"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  false, "lfu_whole"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::Segment,
                  false, "lfu_segment"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  true, "lfu_replicate"},
        AuditCase{core::StrategyKind::Lfu, core::CacheAdmission::WholeProgram,
                  false, "lfu_shadow_matrix"},
        AuditCase{core::StrategyKind::GlobalLfu,
                  core::CacheAdmission::WholeProgram, false,
                  "global_shadow_matrix"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST_P(AllocationAudit, SteadyStateShardLoopIsAllocationFree) {
  const AuditCase c = GetParam();
  auto config = audit_config(c.strategy);
  config.admission = c.admission;
  config.replicate_on_busy = c.replicate_on_busy;
  // The shadow case rides the whole (scorer x admission) matrix — every
  // shadow's stores, sketches, and admission histories must hit their
  // high-water marks within the same warmup.
  config.shadow_matrix = std::string(c.label).ends_with("shadow_matrix");

  const auto trace = audit_trace();
  const auto result =
      test::audit_shard_allocations(trace, config, sim::SimTime::days(2));

  // The measured region must be a real workload, not an empty tail.
  EXPECT_GT(result.steady_sessions, 200u);
  EXPECT_EQ(result.steady_allocs, 0u)
      << result.steady_allocs << " heap allocations across "
      << result.steady_sessions << " steady-state sessions";
}

// The probe itself must count: otherwise a broken override would make the
// audit vacuously green.
TEST(AllocationProbe, CountsOperatorNew) {
  const auto before = test::alloc_count();
  auto* p = new int{42};
  const auto after = test::alloc_count();
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace vodcache

// The benchmark's own tests, at tiny scale: every workload replays and
// passes its output checks, the traced replay reproduces VodSystem::run()
// counter for counter, and span self-time arithmetic is pinned on a
// hand-built tree.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "checks.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "span_trace.hpp"
#include "traced_replay.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr WorkloadOverrides kTiny{3, 3000, 2};

Workload tiny(const std::string& name, std::uint64_t seed = 1) {
  auto w = make_workload(name, seed, kTiny);
  EXPECT_TRUE(w.has_value()) << name;
  return *w;
}

struct Replayed {
  core::SimulationReport report;
  std::string json;
};

Replayed run(const Workload& w, std::uint32_t threads) {
  auto source = make_source(w);
  auto config = w.system;
  config.threads = threads;
  core::VodSystem system(*source, config);
  Replayed r{system.run(), {}};
  r.json = core::to_json(r.report);
  return r;
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,10] with children A [1,4] and B [3,6] (overlapping: [1,6]
  // counted once) and C [8,12] (clipped to the root at 10); A has a child
  // [2,3].
  Tracer t;
  const auto root = t.add("root", Span::kNoParent, 0.0, 10.0);
  const auto a = t.add("a", root, 1.0, 4.0);
  const auto b = t.add("b", root, 3.0, 6.0);
  const auto c = t.add("c", root, 8.0, 12.0);
  const auto a1 = t.add("leaf", a, 2.0, 3.0);
  const auto self = self_times(t.spans());
  EXPECT_DOUBLE_EQ(self[root], 3.0);
  EXPECT_DOUBLE_EQ(self[a], 2.0);
  EXPECT_DOUBLE_EQ(self[b], 3.0);
  EXPECT_DOUBLE_EQ(self[c], 4.0);
  EXPECT_DOUBLE_EQ(self[a1], 1.0);

  // Same-named spans aggregate by name.
  t.add("leaf", b, 4.0, 4.5);
  const auto totals = totals_by_name(t.spans());
  EXPECT_EQ(totals.at("leaf").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("leaf").total_s, 1.5);
  EXPECT_DOUBLE_EQ(totals.at("b").self_s, 2.5);
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 3.0);
}

TEST(SelfTime, TracerNestsAndRejectsOutOfOrderEnds) {
  Tracer t;
  const auto outer = t.begin("outer");
  const auto inner = t.begin("inner");
  EXPECT_THROW(t.end(outer), std::logic_error);
  t.end(inner);
  t.end(outer);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[inner].parent, outer);
  EXPECT_EQ(t.spans()[outer].parent, Span::kNoParent);
  EXPECT_LE(t.spans()[inner].end_s, t.spans()[outer].end_s);

  std::ostringstream out;
  t.write_jsonl(out);
  EXPECT_NE(out.str().find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(out.str().find("\"parent\":null"), std::string::npos);
}

TEST(Workloads, SeedShiftsTheGeneratorSeed) {
  const auto base = make_workload("paper_lfu", 0);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->generator.seed, 20070625u);
  EXPECT_EQ(make_workload("paper_lfu", 3)->generator.seed, 20070628u);
  EXPECT_FALSE(make_workload("no_such_workload", 0).has_value());
}

TEST(Workloads, EveryWorkloadPassesItsChecksAndMatchesOneThread) {
  for (const auto& name : workload_names()) {
    const auto w = tiny(name);
    const Replayed r = run(w, w.system.threads);
    EXPECT_TRUE(check_report(r.report).empty()) << name;
    EXPECT_EQ(digest(r.json), digest(run(w, 1).json)) << name;
  }
}

TEST(Workloads, ChecksCatchABrokenReport) {
  Replayed r = run(tiny("paper_lfu"), 1);
  ASSERT_TRUE(check_report(r.report).empty());
  ++r.report.hits;
  EXPECT_FALSE(check_report(r.report).empty());
  --r.report.hits;
  ++r.report.neighborhoods.front().cold_misses;
  EXPECT_FALSE(check_report(r.report).empty());
}

TEST(TracedReplay, CountersEqualRunForEveryWorkload) {
  for (const auto& name : workload_names()) {
    const auto w = tiny(name);
    const Replayed r = run(w, w.system.threads);
    auto source = make_source(w);
    Tracer tracer;
    const auto traced = traced_replay(*source, w.system, tracer);
    EXPECT_TRUE(compare_totals(traced.counters, totals_of(r.report)).empty())
        << name;
    EXPECT_EQ(traced.shadow_cells > 0, w.system.shadow_matrix) << name;
    EXPECT_EQ(traced.shard_busy_s.size(), r.report.neighborhood_count) << name;
    EXPECT_FALSE(traced.feed_s.empty()) << name;

    // Every span hangs under the one root.
    const auto totals = totals_by_name(tracer.spans());
    EXPECT_EQ(totals.at("core.run").count, 1u) << name;
    EXPECT_EQ(totals.at("core.shard.feed").count, traced.feed_s.size())
        << name;
  }
}

TEST(TracedReplay, CountersDifferWhenTheInputDiffers) {
  const auto w = tiny("paper_lfu");
  const Replayed other = run(tiny("paper_lfu", 2), 1);
  auto source = make_source(w);
  Tracer tracer;
  const auto traced = traced_replay(*source, w.system, tracer);
  EXPECT_FALSE(
      compare_totals(traced.counters, totals_of(other.report)).empty());
}

}  // namespace
}  // namespace perfbench

// The shard's shared access ledger and the deferred re-ranking it drives.
//
// Scorers that read the ledger re-rank a cached program only when it is
// asked for a victim, not when the ledger changes the program's score.
// These tests drive LFU and GlobalLFU scorers — two per ledger, with
// different cached sets, like a primary and a shadow cell of one shard —
// through random access and expiry streams, ask victim() at random points,
// and pin each answer to an eager reference: the minimum (score, program)
// over the cached set, every score recomputed from scratch from the access
// log.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cache/access_ledger.hpp"
#include "cache/global_lfu.hpp"
#include "cache/lfu.hpp"
#include "scorer_support.hpp"
#include "util/rng.hpp"

namespace vodcache::cache {
namespace {

constexpr std::size_t kPrograms = 24;

// A cached set driven the way the index server drives one: programs are
// admitted after their access and evicted through victim() when full.
struct Side {
  std::set<std::uint32_t> cached;
  std::size_t capacity;
};

// The eager reference victim: min (score, program) over `cached`.
template <typename ScoreFn>
std::optional<ProgramId> eager_victim(const std::set<std::uint32_t>& cached,
                                      ScoreFn&& score) {
  std::optional<std::pair<Score, std::uint32_t>> best;
  for (const std::uint32_t p : cached) {
    const std::pair<Score, std::uint32_t> entry{score(ProgramId{p}), p};
    if (!best || entry < *best) best = entry;
  }
  if (!best) return std::nullopt;
  return ProgramId{best->second};
}

TEST(DeferredRerank, LfuVictimsMatchEagerReference) {
  const auto history = sim::SimTime::minutes(90);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    AccessLedger ledger(kPrograms, history);
    LfuStrategy primary(ledger);
    LfuStrategy cell(ledger);
    Side sides[2] = {{{}, 6}, {{}, 11}};
    LfuStrategy* scorers[2] = {&primary, &cell};

    // Access log of (time, program); entry i carries sequence i + 1.
    std::vector<std::pair<sim::SimTime, std::uint32_t>> log;
    sim::SimTime now;
    const auto reference_score = [&](ProgramId program) {
      // Window counts as of the last access (expiry happens on access).
      std::int64_t count = 0;
      std::int64_t last = 0;
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].second != program.value()) continue;
        last = static_cast<std::int64_t>(i + 1);
        if (log[i].first >= log.back().first - history) ++count;
      }
      return Score{count, last};
    };

    for (int step = 0; step < 1500; ++step) {
      now += sim::SimTime::seconds(rng.uniform_int(1, 600));
      const auto program =
          static_cast<std::uint32_t>(rng.uniform_u64(kPrograms));
      test::record(ledger, ProgramId{program}, now, primary, cell);
      log.emplace_back(now, program);

      for (int s = 0; s < 2; ++s) {
        Side& side = sides[s];
        LfuStrategy& scorer = *scorers[s];
        // Ask at random points, not after every access.
        if (rng.bernoulli(0.4)) {
          ASSERT_EQ(scorer.victim(now),
                    eager_victim(side.cached, reference_score))
              << "seed " << seed << " step " << step << " side " << s;
        }
        if (side.cached.count(program) != 0 || !rng.bernoulli(0.6)) continue;
        if (side.cached.size() == side.capacity) {
          const auto victim = scorer.victim(now);
          ASSERT_EQ(victim, eager_victim(side.cached, reference_score));
          scorer.on_evict(*victim);
          side.cached.erase(victim->value());
        }
        scorer.on_admit(ProgramId{program}, now);
        side.cached.insert(program);
      }
    }
  }
}

TEST(DeferredRerank, GlobalLfuVictimsMatchEagerReference) {
  const auto window = sim::SimTime::hours(2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    // The system-wide timeline: this neighborhood owns about a third of
    // it; the rest arrives through the board as remote traffic.
    std::vector<ReplayBoard::Access> accesses;
    std::vector<bool> local;
    sim::SimTime t;
    for (int i = 0; i < 1500; ++i) {
      t += sim::SimTime::seconds(rng.uniform_int(0, 300));
      accesses.push_back(
          {t, ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))}});
      local.push_back(rng.bernoulli(0.35));
    }
    auto board = std::make_shared<ReplayBoard>(kPrograms, window,
                                               sim::SimTime{});
    for (const auto& access : accesses) board->add(access.program, access.time);
    board->freeze();

    sim::ReplayClock clock;
    AccessLedger ledger(kPrograms, sim::SimTime{}, board, &clock);
    GlobalLfuStrategy primary(ledger);
    GlobalLfuStrategy cell(ledger);
    Side sides[2] = {{{}, 5}, {{}, 12}};
    GlobalLfuStrategy* scorers[2] = {&primary, &cell};

    // Reference state: the clock's visible prefix and query time, and the
    // local recency sequence.
    std::vector<std::int64_t> last(kPrograms, 0);
    std::int64_t sequence = 0;
    const auto reference_score = [&](ProgramId program) {
      std::int64_t count = 0;
      for (std::size_t i = 0; i < clock.position; ++i) {
        if (accesses[i].program == program &&
            accesses[i].time >= clock.now - window) {
          ++count;
        }
      }
      return Score{count, last[program.value()]};
    };
    const auto check_sides = [&](int step) {
      for (int s = 0; s < 2; ++s) {
        if (!rng.bernoulli(0.5)) continue;
        ASSERT_EQ(scorers[s]->victim(clock.now),
                  eager_victim(sides[s].cached, reference_score))
            << "seed " << seed << " step " << step << " side " << s;
      }
    };

    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (!local[i]) continue;
      const ProgramId program = accesses[i].program;
      // Session start of record i: records before it are visible; the
      // ledger counts the start itself in.
      clock.now = accesses[i].time;
      clock.position = i;
      test::record(ledger, program, clock.now, primary, cell);
      last[program.value()] = ++sequence;
      clock.position = i + 1;
      check_sides(static_cast<int>(i));

      for (int s = 0; s < 2; ++s) {
        Side& side = sides[s];
        if (side.cached.count(program.value()) != 0 || !rng.bernoulli(0.6)) {
          continue;
        }
        if (side.cached.size() == side.capacity) {
          const auto victim = scorers[s]->victim(clock.now);
          ASSERT_EQ(victim, eager_victim(side.cached, reference_score));
          scorers[s]->on_evict(*victim);
          side.cached.erase(victim->value());
        }
        scorers[s]->on_admit(program, clock.now);
        side.cached.insert(program.value());
      }

      // A segment boundary before this neighborhood's next session start:
      // every start before it has been replayed system-wide, remote ones
      // included.
      std::size_t next = i + 1;
      while (next < accesses.size() && !local[next]) ++next;
      if (next < accesses.size() && accesses[next].time > clock.now) {
        const auto gap = static_cast<std::uint64_t>(
            (accesses[next].time - clock.now).millis_count());
        clock.now += sim::SimTime::millis(
            static_cast<std::int64_t>(rng.uniform_u64(gap) + 1));
        clock.position = board->position_at(clock.now, i + 1);
        check_sides(static_cast<int>(i));
      }
    }
  }
}

// A ledger fans changes out only to scorers that are still alive.
TEST(AccessLedger, DetachedScorerStopsReceivingChanges) {
  AccessLedger ledger(kPrograms, sim::SimTime::minutes(10));
  LfuStrategy survivor(ledger);
  {
    LfuStrategy gone(ledger);
    test::record(ledger, ProgramId{1}, sim::SimTime::minutes(0), survivor,
                 gone);
    gone.on_admit(ProgramId{1}, sim::SimTime::minutes(0));
  }
  survivor.on_admit(ProgramId{1}, sim::SimTime::minutes(0));
  // Program 1's access expires here and fans out to the survivor alone.
  test::record(ledger, ProgramId{2}, sim::SimTime::minutes(20), survivor);
  EXPECT_EQ(survivor.frequency(ProgramId{1}), 0);
  EXPECT_EQ(survivor.victim(sim::SimTime::minutes(20)), ProgramId{1});
}

// Tables exist only for the scorers that attach.
TEST(AccessLedger, RecordsOnlyAttachedTables) {
  AccessLedger ledger(kPrograms, sim::SimTime::minutes(10));
  ledger.record_access(ProgramId{3}, sim::SimTime::minutes(1));
  AccessLedger lru_only(kPrograms, sim::SimTime::minutes(10));
  lru_only.attach_recency();
  lru_only.record_access(ProgramId{3}, sim::SimTime::minutes(1));
  lru_only.record_access(ProgramId{4}, sim::SimTime::minutes(2));
  EXPECT_EQ(lru_only.last_access(ProgramId{3}), 1);
  EXPECT_EQ(lru_only.last_access(ProgramId{4}), 2);
  EXPECT_EQ(lru_only.last_access(ProgramId{5}), 0);
}

}  // namespace
}  // namespace vodcache::cache
